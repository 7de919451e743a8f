//! The simulator facade: owns all state and drives the event loop.
//!
//! One [`Simulator`] holds every node (host memory + CPU model + NIC),
//! the fabric between them, and the discrete-event queue. All public
//! operations (allocating memory, creating queues, posting work requests)
//! are instantaneous control-plane actions; simulated time only advances
//! inside [`Simulator::run`] and friends.
//!
//! The WQE lifecycle implemented here:
//!
//! ```text
//! post_send ──► WQE bytes in host memory ──► doorbell
//!                                              │ t_doorbell
//!                          fetch (batch DMA or serialized managed fetch)
//!                                              │ snapshot bytes
//!                          issue on the queue's PU (decode at issue)
//!                                              │ t_issue(class)
//!              data path: PCIe stages / wire / atomic engine / RECV consume
//!                                              │
//!                          Complete: writebacks, CQE, WAIT wake-ups
//! ```
//!
//! Self-modification falls out of the byte-level fetch: any verb that
//! writes into a WQ ring changes what a later fetch decodes — but *only*
//! fetches that happen after the write, which is why managed queues
//! (fetch gated by ENABLE) are required for correctness, exactly as in the
//! paper (§3.1–§3.2).

use crate::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use crate::cq::{CompletionQueue, Cqe, CqeStatus};
use crate::engine::{EventKind, EventQueue};
use crate::error::{Error, Result};
use crate::host::Host;
use crate::ids::{CqId, NodeId, ProcessId, QpId, WqId};
use crate::mem::{Access, HostMemory, MemoryRegion};
use crate::net::{InFlight, Payload};
use crate::nic::Nic;
use crate::qp::{QpConfig, QueuePair};
use crate::rate::RateLimiter;
use crate::slab::{BufPool, Slab};
use crate::time::Time;
use crate::trace::{Trace, TraceEvent};
use crate::verbs::Opcode;
use crate::wq::{WorkQueue, WqBlock, WqKind};
use crate::wqe::{Sge, WorkRequest, Wqe, SGE_SIZE, WQE_SIZE};

/// Redelivery delay after receiver-not-ready (RC RNR NAK back-off).
const RNR_DELAY: Time = Time::from_us(1);
/// Delay before an arrival at a dead QP fails back to the initiator.
const DEAD_QP_TIMEOUT: Time = Time::from_us(100);

/// How a host thread observes completions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListenMode {
    /// Busy-polling thread: pickup within
    /// [`HostConfig::t_poll_pickup`](crate::config::HostConfig).
    Polling,
    /// Blocking thread woken by a completion event: pays
    /// [`HostConfig::t_event_wake`](crate::config::HostConfig).
    Event,
}

/// Callback invoked per completion by a CQ listener.
pub type CqCallback = Box<dyn FnMut(&mut Simulator, Cqe)>;
/// One-shot scheduled host action.
pub type TimerCallback = Box<dyn FnOnce(&mut Simulator)>;

struct CqListener {
    cq: CqId,
    node: NodeId,
    mode: ListenMode,
    cb: Option<CqCallback>,
    scheduled: bool,
}

/// Utilization snapshot of one NIC's resources — used by the Table 4
/// harness to name the bottleneck.
#[derive(Clone, Debug, Default)]
pub struct NicUtilization {
    /// Busy time summed over all PUs.
    pub pu_busy: Time,
    /// Managed-fetch engine busy time (summed over ports).
    pub fetch_busy: Time,
    /// Atomic engine busy time (summed over ports).
    pub atomic_busy: Time,
    /// Link egress busy time (summed over ports).
    pub link_busy: Time,
    /// PCIe bus busy time.
    pub pcie_busy: Time,
}

/// The top-level simulator. See the module docs.
pub struct Simulator {
    cfg: SimConfig,
    now: Time,
    events: EventQueue,
    mems: Vec<HostMemory>,
    nics: Vec<Nic>,
    hosts: Vec<Host>,
    node_names: Vec<String>,
    /// Dense one-way link latency table, `links[a][b]` — the per-arrival
    /// lookup must not hash.
    links: Vec<Vec<Option<Time>>>,
    qps: Vec<QueuePair>,
    qp_owner: Vec<ProcessId>,
    wqs: Vec<WorkQueue>,
    cqs: Vec<CompletionQueue>,
    inflight: Slab<InFlight>,
    callbacks: Slab<TimerCallback>,
    listeners: Slab<CqListener>,
    /// Recycled payload/result byte buffers (see [`BufPool`]).
    buf_pool: BufPool,
    /// Reusable scratch for WAIT wake-ups inside `push_cqe`.
    woken_buf: Vec<WqId>,
    /// Reusable scratch for listener poll batches inside `on_notify`.
    notify_buf: Vec<Cqe>,
    trace: Trace,
}

impl Simulator {
    /// Create an empty simulator.
    pub fn new(cfg: SimConfig) -> Simulator {
        let trace = Trace::new(cfg.trace);
        let events = EventQueue::new();
        Simulator {
            cfg,
            now: Time::ZERO,
            events,
            mems: Vec::new(),
            nics: Vec::new(),
            hosts: Vec::new(),
            node_names: Vec::new(),
            links: Vec::new(),
            qps: Vec::new(),
            qp_owner: Vec::new(),
            wqs: Vec::new(),
            cqs: Vec::new(),
            inflight: Slab::new(),
            callbacks: Slab::new(),
            listeners: Slab::new(),
            buf_pool: BufPool::new(),
            woken_buf: Vec::new(),
            notify_buf: Vec::new(),
            trace,
        }
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Add a host (memory + CPU + NIC). Returns its id.
    pub fn add_node(&mut self, name: &str, host: HostConfig, nic: NicConfig) -> NodeId {
        let id = NodeId(self.mems.len() as u32);
        self.mems.push(HostMemory::new(id, host.dram_bytes));
        self.hosts.push(Host::new(id, host));
        self.nics.push(Nic::new(nic));
        self.node_names.push(name.to_string());
        for row in &mut self.links {
            row.push(None);
        }
        self.links.push(vec![None; self.mems.len()]);
        id
    }

    /// Connect two nodes with a bidirectional link.
    pub fn connect_nodes(&mut self, a: NodeId, b: NodeId, link: LinkConfig) {
        assert_ne!(a, b, "loopback needs no link");
        self.links[a.index()][b.index()] = Some(link.one_way);
        self.links[b.index()][a.index()] = Some(link.one_way);
    }

    /// Connect every pair of `nodes` with identical bidirectional links —
    /// the full-mesh wiring a multi-node serving cluster assumes (each
    /// shard primary forwards to backups on any other node). Existing
    /// links between listed pairs are overwritten.
    pub fn connect_mesh(&mut self, nodes: &[NodeId], link: LinkConfig) {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                self.connect_nodes(a, b, link.clone());
            }
        }
    }

    fn one_way(&self, a: NodeId, b: NodeId) -> Option<Time> {
        if a == b {
            return Some(Time::ZERO);
        }
        self.links[a.index()][b.index()]
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// NIC configuration of a node.
    pub fn nic_config(&self, node: NodeId) -> &NicConfig {
        &self.nics[node.index()].config
    }

    /// Host configuration of a node.
    pub fn host_config(&self, node: NodeId) -> &HostConfig {
        &self.hosts[node.index()].config
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocate `len` bytes (aligned) in a node's DRAM.
    pub fn alloc(&mut self, node: NodeId, len: u64, align: u64) -> Result<u64> {
        self.mems[node.index()].alloc(len, align)
    }

    /// Register a memory region owned by the node's init process.
    pub fn register_mr(
        &mut self,
        node: NodeId,
        addr: u64,
        len: u64,
        access: Access,
    ) -> Result<MemoryRegion> {
        self.register_mr_owned(node, addr, len, access, ProcessId(0))
    }

    /// Register a memory region with an explicit owning process.
    pub fn register_mr_owned(
        &mut self,
        node: NodeId,
        addr: u64,
        len: u64,
        access: Access,
        owner: ProcessId,
    ) -> Result<MemoryRegion> {
        self.mems[node.index()].register(addr, len, access, owner)
    }

    /// Host CPU write (no key checks).
    pub fn mem_write(&mut self, node: NodeId, addr: u64, bytes: &[u8]) -> Result<()> {
        self.mems[node.index()].write(addr, bytes)
    }

    /// Host CPU read (no key checks).
    pub fn mem_read(&self, node: NodeId, addr: u64, len: u64) -> Result<Vec<u8>> {
        Ok(self.mems[node.index()].read(addr, len)?.to_vec())
    }

    /// Host CPU u64 write.
    pub fn mem_write_u64(&mut self, node: NodeId, addr: u64, v: u64) -> Result<()> {
        self.mems[node.index()].write_u64(addr, v)
    }

    /// Host CPU u64 read.
    pub fn mem_read_u64(&self, node: NodeId, addr: u64) -> Result<u64> {
        self.mems[node.index()].read_u64(addr)
    }

    /// Direct access to a node's memory (advanced use: substrates that
    /// build in-memory structures, e.g. hash tables).
    pub fn mem(&mut self, node: NodeId) -> &mut HostMemory {
        &mut self.mems[node.index()]
    }

    /// The registered region `key` resolves to on `node` (rkey when
    /// `remote`, lkey otherwise), or `None` when unregistered there — the
    /// read-only lookup deploy-time bounds analysis runs against.
    pub fn mr_by_key(&self, node: NodeId, key: u32, remote: bool) -> Option<&MemoryRegion> {
        self.mems[node.index()].region_by_key(key, remote)
    }

    // ------------------------------------------------------------------
    // Queues
    // ------------------------------------------------------------------

    /// Create a completion queue.
    pub fn create_cq(&mut self, node: NodeId, depth: u32) -> Result<CqId> {
        let max = self.nics[node.index()].config.max_cq_depth as u32;
        if depth == 0 || depth > max {
            return Err(Error::InvalidWr("bad CQ depth"));
        }
        let id = CqId(self.cqs.len() as u32);
        self.cqs.push(CompletionQueue::new(id, node, depth));
        Ok(id)
    }

    /// Create a queue pair owned by the node's init process.
    pub fn create_qp(&mut self, node: NodeId, cfg: QpConfig) -> Result<QpId> {
        self.create_qp_owned(node, cfg, ProcessId(0))
    }

    /// Create a queue pair owned by `owner`; its rings die with the owner
    /// (unless the owner is a long-lived hull process — §5.6).
    pub fn create_qp_owned(
        &mut self,
        node: NodeId,
        cfg: QpConfig,
        owner: ProcessId,
    ) -> Result<QpId> {
        let nic_cfg = self.nics[node.index()].config.clone();
        if cfg.port >= nic_cfg.ports {
            return Err(Error::InvalidWr("port out of range"));
        }
        if cfg.sq_depth == 0
            || cfg.rq_depth == 0
            || cfg.sq_depth as usize > nic_cfg.max_wq_depth
            || cfg.rq_depth as usize > nic_cfg.max_wq_depth
        {
            return Err(Error::InvalidWr("bad WQ depth"));
        }
        for cq in [cfg.send_cq, cfg.recv_cq] {
            let cq = self
                .cqs
                .get(cq.index())
                .ok_or(Error::UnknownEntity("cq", cq.0))?;
            if cq.node != node {
                return Err(Error::InvalidWr("CQ on a different node"));
            }
        }
        let sq_ring = self.alloc(node, cfg.sq_depth as u64 * WQE_SIZE, 64)?;
        let rq_ring = self.alloc(node, cfg.rq_depth as u64 * WQE_SIZE, 64)?;
        let qp_id = QpId(self.qps.len() as u32);
        let sq_id = WqId(self.wqs.len() as u32);
        let rq_id = WqId(self.wqs.len() as u32 + 1);
        let pu = self.nics[node.index()].assign_pu(cfg.port, cfg.pu);
        self.wqs.push(WorkQueue::new(
            sq_id,
            qp_id,
            node,
            WqKind::Send,
            sq_ring,
            cfg.sq_depth,
            cfg.sq_managed,
            cfg.port,
            pu,
        ));
        self.wqs.push(WorkQueue::new(
            rq_id,
            qp_id,
            node,
            WqKind::Recv,
            rq_ring,
            cfg.rq_depth,
            false,
            cfg.port,
            pu,
        ));
        self.qps.push(QueuePair::new(
            qp_id,
            node,
            sq_id,
            rq_id,
            cfg.send_cq,
            cfg.recv_cq,
            cfg.port,
        ));
        self.qp_owner.push(owner);
        Ok(qp_id)
    }

    /// Connect two QPs as an RC pair. Both directions are wired; the QPs
    /// may live on the same node (loopback).
    pub fn connect_qps(&mut self, a: QpId, b: QpId) -> Result<()> {
        if a == b {
            return Err(Error::BadQpState(a, "cannot self-connect"));
        }
        let (na, nb) = (self.qps[a.index()].node, self.qps[b.index()].node);
        if self.one_way(na, nb).is_none() {
            return Err(Error::BadQpState(a, "no link between nodes"));
        }
        if self.qps[a.index()].peer.is_some() || self.qps[b.index()].peer.is_some() {
            return Err(Error::BadQpState(a, "already connected"));
        }
        self.qps[a.index()].peer = Some(b);
        self.qps[b.index()].peer = Some(a);
        Ok(())
    }

    /// The send queue of a QP.
    pub fn sq_of(&self, qp: QpId) -> WqId {
        self.qps[qp.index()].sq
    }

    /// The receive queue of a QP.
    pub fn rq_of(&self, qp: QpId) -> WqId {
        self.qps[qp.index()].rq
    }

    /// Send-side CQ of a QP.
    pub fn send_cq_of(&self, qp: QpId) -> CqId {
        self.qps[qp.index()].send_cq
    }

    /// Receive-side CQ of a QP.
    pub fn recv_cq_of(&self, qp: QpId) -> CqId {
        self.qps[qp.index()].recv_cq
    }

    /// Node that owns a QP.
    pub fn node_of_qp(&self, qp: QpId) -> NodeId {
        self.qps[qp.index()].node
    }

    /// Host-memory address of the slot WQE `idx` occupies in the SQ ring.
    /// RedN constructs aim verbs at `addr + field offset` to patch WQEs.
    pub fn sq_wqe_addr(&self, qp: QpId, idx: u64) -> u64 {
        self.wqs[self.sq_of(qp).index()].slot_addr(idx)
    }

    /// Number of WQEs posted to the SQ so far (the next post gets this
    /// index).
    pub fn sq_posted(&self, qp: QpId) -> u64 {
        self.wqs[self.sq_of(qp).index()].posted
    }

    /// Number of WQEs posted to the RQ so far.
    pub fn rq_posted(&self, qp: QpId) -> u64 {
        self.wqs[self.rq_of(qp).index()].posted
    }

    /// Ring depth (in WQE slots) of a work queue.
    pub fn wq_depth(&self, wq: WqId) -> u32 {
        self.wqs[wq.index()].depth
    }

    /// Make the RQ of `qp` a cyclic receive ring: the NIC re-arms consumed
    /// RECVs as the ring wraps, so the pre-posted scatter programs serve
    /// forever with no further host posts (the receive-side analogue of
    /// §3.4's WQ recycling; real NICs expose this as cyclic receive
    /// buffers). Requires the ring to be fully posted first — every slot
    /// must already hold its RECV program.
    pub fn set_rq_cyclic(&mut self, qp: QpId) -> Result<()> {
        let rq = self.rq_of(qp);
        let wq = &mut self.wqs[rq.index()];
        if wq.posted < wq.depth as u64 {
            return Err(Error::InvalidWr(
                "cyclic RQ requires a fully posted ring (post every slot first)",
            ));
        }
        wq.cyclic = true;
        Ok(())
    }

    /// Register the SQ ring of `qp` as an RDMA-accessible memory region —
    /// the paper's "code region" (§3.5 "Offload setup"): self-modifying
    /// chains need verbs that can write into the ring.
    pub fn register_sq_ring(&mut self, qp: QpId, owner: ProcessId) -> Result<MemoryRegion> {
        let wq = &self.wqs[self.sq_of(qp).index()];
        let (node, base, len) = (wq.node, wq.base_addr, wq.ring_bytes());
        self.register_mr_owned(node, base, len, Access::all(), owner)
    }

    /// Rate-limit a QP's send queue (`ibv_modify_qp_rate_limit`).
    pub fn set_rate_limit(&mut self, qp: QpId, ops_per_sec: f64, burst: u64) {
        let sq = self.sq_of(qp);
        let wq = &mut self.wqs[sq.index()];
        wq.rate_limiter = Some(RateLimiter::new(ops_per_sec, burst));
        wq.rate_ops_per_sec = Some(ops_per_sec);
    }

    // ------------------------------------------------------------------
    // Posting
    // ------------------------------------------------------------------

    /// Post one work request to a QP's send queue. Serializes the WQE into
    /// the ring in host memory and (for unmanaged queues) rings the
    /// doorbell. Returns the WQE's monotonic index.
    pub fn post_send(&mut self, qp: QpId, wr: WorkRequest) -> Result<u64> {
        let idx = self.post_send_quiet(qp, wr)?;
        let sq = self.sq_of(qp);
        if !self.wqs[sq.index()].managed {
            self.ring_doorbell(qp)?;
        }
        Ok(idx)
    }

    /// Post a batch with a single doorbell.
    pub fn post_send_batch(&mut self, qp: QpId, wrs: &[WorkRequest]) -> Result<u64> {
        let mut first = 0;
        for (i, wr) in wrs.iter().enumerate() {
            let idx = self.post_send_quiet(qp, *wr)?;
            if i == 0 {
                first = idx;
            }
        }
        let sq = self.sq_of(qp);
        if !self.wqs[sq.index()].managed {
            self.ring_doorbell(qp)?;
        }
        Ok(first)
    }

    /// Post without ringing any doorbell (managed queues, or pre-staging).
    pub fn post_send_quiet(&mut self, qp: QpId, wr: WorkRequest) -> Result<u64> {
        if wr.wqe.opcode == Opcode::Recv {
            return Err(Error::InvalidWr("RECV posted to a send queue"));
        }
        let sq = self.sq_of(qp);
        let (addr, idx) = {
            let wq = &self.wqs[sq.index()];
            if wq.block == WqBlock::Dead {
                return Err(Error::BadQpState(qp, "QP is dead"));
            }
            if !wq.has_room() {
                return Err(Error::WqFull(sq));
            }
            (wq.slot_addr(wq.posted), wq.posted)
        };
        let node = self.wqs[sq.index()].node;
        self.mems[node.index()].write(addr, &wr.wqe.encode())?;
        self.wqs[sq.index()].posted += 1;
        Ok(idx)
    }

    /// Overwrite the WQE at `idx` in the SQ ring (host-side re-arming,
    /// e.g. re-initializing a recycled chain between runs).
    pub fn rewrite_sq_wqe(&mut self, qp: QpId, idx: u64, wr: WorkRequest) -> Result<()> {
        let addr = self.sq_wqe_addr(qp, idx);
        let node = self.node_of_qp(qp);
        self.mems[node.index()].write(addr, &wr.wqe.encode())
    }

    /// Post a receive.
    pub fn post_recv(&mut self, qp: QpId, wr: WorkRequest) -> Result<u64> {
        if wr.wqe.opcode != Opcode::Recv {
            return Err(Error::InvalidWr(
                "only RECV may be posted to a receive queue",
            ));
        }
        let rq = self.rq_of(qp);
        let (addr, idx) = {
            let wq = &self.wqs[rq.index()];
            if wq.block == WqBlock::Dead {
                return Err(Error::BadQpState(qp, "QP is dead"));
            }
            if !wq.has_room() {
                return Err(Error::WqFull(rq));
            }
            (wq.slot_addr(wq.posted), wq.posted)
        };
        let node = self.wqs[rq.index()].node;
        self.mems[node.index()].write(addr, &wr.wqe.encode())?;
        self.wqs[rq.index()].posted += 1;
        // Receiver-not-ready retry: a parked arrival gets another chance.
        if let Some(msg) = self.qps[qp.index()].rnr_queue.pop_front() {
            self.events
                .schedule(self.now + RNR_DELAY, EventKind::Arrive { qp, msg });
        }
        Ok(idx)
    }

    /// Host-side ENABLE of a managed queue: raise its fetch limit to
    /// `count` (absolute) and kick it after the doorbell latency. This is
    /// what the driver does when the host itself releases a managed chain,
    /// as opposed to an ENABLE verb doing it from another queue.
    pub fn host_enable(&mut self, qp: QpId, count: u64) -> Result<()> {
        let sq = self.sq_of(qp);
        let node = self.wqs[sq.index()].node;
        let t = self.nics[node.index()].config.t_doorbell;
        {
            let wq = &mut self.wqs[sq.index()];
            wq.enabled_until = wq.enabled_until.max(count);
            // A host enable is an MMIO write, same as a doorbell — counted
            // so artifacts can prove the CPU left the steady-state loop.
            wq.stat_doorbells += 1;
        }
        self.trace.record(
            self.now,
            TraceEvent::Enable {
                wq: sq,
                until: count,
            },
        );
        self.events
            .schedule(self.now + t, EventKind::WqAdvance { wq: sq });
        Ok(())
    }

    /// Ring a QP's send doorbell: the NIC notices new WQEs after the MMIO
    /// latency.
    pub fn ring_doorbell(&mut self, qp: QpId) -> Result<()> {
        let sq = self.sq_of(qp);
        let node = self.wqs[sq.index()].node;
        let t = self.nics[node.index()].config.t_doorbell;
        self.wqs[sq.index()].stat_doorbells += 1;
        self.trace.record(self.now, TraceEvent::Doorbell { wq: sq });
        self.events
            .schedule(self.now + t, EventKind::WqAdvance { wq: sq });
        Ok(())
    }

    /// Poll up to `max` completions from a CQ.
    pub fn poll_cq(&mut self, cq: CqId, max: usize) -> Vec<Cqe> {
        self.cqs[cq.index()].poll(max)
    }

    /// Allocation-free [`Simulator::poll_cq`]: reap up to `max`
    /// completions into `out` (appending) and return how many arrived.
    /// Clients keep one buffer per reap loop instead of allocating a
    /// fresh `Vec<Cqe>` per poll.
    pub fn poll_cq_into(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> usize {
        self.cqs[cq.index()].poll_into(max, out)
    }

    /// Monotonic completion count of a CQ (the WAIT target value).
    pub fn cq_total(&self, cq: CqId) -> u64 {
        self.cqs[cq.index()].total
    }

    /// Simulated time of the CQ's most recent completion
    /// ([`Time::ZERO`] if it never completed anything). Failure
    /// detectors use this as a heartbeat: a client whose ack CQ has been
    /// silent for longer than its timeout while requests are in flight
    /// declares the primary suspect (§5.6 failover detection).
    pub fn cq_last_completion(&self, cq: CqId) -> Time {
        self.cqs[cq.index()].last_completion
    }

    /// Whether the CQ has ever dropped a pollable entry because it was
    /// full. The monotonic [`cq_total`](Simulator::cq_total) count (and
    /// with it every WAIT threshold) keeps advancing through an overrun —
    /// only host-pollable entries are lost — so a pipelined fleet stalls
    /// visibly on missing completions rather than wedging the NIC; hosts
    /// check this flag to learn that polling undercounted.
    pub fn cq_overrun(&self, cq: CqId) -> bool {
        self.cqs[cq.index()].overrun
    }

    // ------------------------------------------------------------------
    // Host-side scheduling
    // ------------------------------------------------------------------

    /// Schedule `f` to run at absolute simulated time `at`.
    pub fn at(&mut self, at: Time, f: TimerCallback) {
        let key = self.callbacks.insert(f);
        self.events
            .schedule(at.max(self.now), EventKind::Callback { key });
    }

    /// Schedule `f` to run after `delay`.
    pub fn after(&mut self, delay: Time, f: TimerCallback) {
        let at = self.now + delay;
        self.at(at, f);
    }

    /// Register a host thread that observes a CQ. The callback runs once
    /// per completion, after the mode's pickup/wake delay. Returns a key
    /// for [`Simulator::remove_cq_listener`].
    pub fn set_cq_listener(&mut self, cq: CqId, mode: ListenMode, cb: CqCallback) -> u64 {
        let node = self.cqs[cq.index()].node;
        let key = self.listeners.insert(CqListener {
            cq,
            node,
            mode,
            cb: Some(cb),
            scheduled: false,
        });
        self.cqs[cq.index()].listener = Some(key);
        key
    }

    /// Remove a CQ listener.
    pub fn remove_cq_listener(&mut self, key: u64) {
        if let Some(l) = self.listeners.remove(key) {
            self.cqs[l.cq.index()].listener = None;
        }
    }

    /// Spawn a process on a node.
    pub fn spawn_process(
        &mut self,
        node: NodeId,
        name: &str,
        parent: Option<ProcessId>,
    ) -> ProcessId {
        self.hosts[node.index()].spawn(name, parent)
    }

    /// Kill a process: the OS reclaims its memory registrations and frees
    /// its QP rings — any offload chain living in them dies (§5.6).
    pub fn kill_process(&mut self, node: NodeId, pid: ProcessId) -> bool {
        if !self.hosts[node.index()].kill(pid) {
            return false;
        }
        self.mems[node.index()].reclaim_owner(pid);
        for qp in 0..self.qps.len() {
            if self.qps[qp].node == node && self.qp_owner[qp] == pid {
                self.qps[qp].dead = true;
                let (sq, rq) = (self.qps[qp].sq, self.qps[qp].rq);
                self.wqs[sq.index()].block = WqBlock::Dead;
                self.wqs[rq.index()].block = WqBlock::Dead;
            }
        }
        true
    }

    /// Restart a dead process (its previous resources stay dead; the
    /// application must re-create them, which is what costs vanilla
    /// Memcached its 2.25 s in Fig 16).
    pub fn restart_process(&mut self, node: NodeId, pid: ProcessId) -> bool {
        self.hosts[node.index()].restart(pid)
    }

    /// Bring a dead QP back to life — shorthand for "the restarted
    /// application re-created its queue pairs and the client reconnected".
    /// The failure harness uses this after the restart + rebuild delay so
    /// it does not have to model the reconnection handshake.
    pub fn revive_qp(&mut self, qp: QpId) {
        self.qps[qp.index()].dead = false;
        let (sq, rq) = (self.qps[qp.index()].sq, self.qps[qp.index()].rq);
        for wq in [sq, rq] {
            if self.wqs[wq.index()].block == WqBlock::Dead {
                self.wqs[wq.index()].block = WqBlock::None;
            }
        }
        self.events
            .schedule(self.now, EventKind::WqAdvance { wq: sq });
    }

    /// Kernel panic: host-side execution stops; the NIC and memory keep
    /// going, so hull-owned offloads continue serving (§5.6 "OS failure").
    pub fn os_panic(&mut self, node: NodeId) {
        self.hosts[node.index()].os_panic();
    }

    /// Whether a node's OS is up.
    pub fn os_alive(&self, node: NodeId) -> bool {
        self.hosts[node.index()].os_alive
    }

    /// Account `demand` of CPU work on a node; returns the finish time.
    pub fn host_execute(&mut self, node: NodeId, demand: Time, seq: u64) -> Time {
        let now = self.now;
        self.hosts[node.index()].execute(now, demand, seq)
    }

    /// Declare how many host threads are runnable (drives the scheduler-
    /// pressure model behind Fig 15).
    pub fn set_runnable_threads(&mut self, node: NodeId, n: usize) {
        self.hosts[node.index()].runnable_threads = n;
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Run until no events remain.
    pub fn run(&mut self) -> Result<()> {
        while let Some(ev) = self.events.pop() {
            if self.events.processed() > self.cfg.max_events {
                return Err(Error::EventBudgetExhausted(self.cfg.max_events));
            }
            self.now = ev.at;
            self.handle(ev.kind)?;
        }
        Ok(())
    }

    /// Run until simulated time `t` (events at exactly `t` included).
    pub fn run_until(&mut self, t: Time) -> Result<()> {
        while let Some(next) = self.events.peek_time() {
            if next > t {
                break;
            }
            let ev = self.events.pop().expect("peeked");
            if self.events.processed() > self.cfg.max_events {
                return Err(Error::EventBudgetExhausted(self.cfg.max_events));
            }
            self.now = ev.at;
            self.handle(ev.kind)?;
        }
        self.now = self.now.max(t);
        Ok(())
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: Time) -> Result<()> {
        let t = self.now + d;
        self.run_until(t)
    }

    /// Process exactly one event. Returns false when none remain.
    /// Synchronous experiment drivers use this to run until a condition
    /// (e.g. a completion) without draining the whole queue.
    pub fn step(&mut self) -> Result<bool> {
        let Some(ev) = self.events.pop() else {
            return Ok(false);
        };
        if self.events.processed() > self.cfg.max_events {
            return Err(Error::EventBudgetExhausted(self.cfg.max_events));
        }
        self.now = ev.at;
        self.handle(ev.kind)?;
        Ok(true)
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Total events dispatched since construction — the engine's hot-path
    /// op count, and the denominator of events/s and allocs-per-event
    /// metrics in the `sim_events` bench.
    pub fn events_processed(&self) -> u64 {
        self.events.processed()
    }

    /// The execution trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Resource-utilization snapshot for a node's NIC.
    pub fn utilization(&self, node: NodeId) -> NicUtilization {
        let nic = &self.nics[node.index()];
        NicUtilization {
            pu_busy: nic.pus.iter().map(|p| p.busy_total()).sum(),
            fetch_busy: nic.fetch_engine.iter().map(|f| f.busy_total()).sum(),
            atomic_busy: nic.atomic_engine.iter().map(|f| f.busy_total()).sum(),
            link_busy: nic.link_tx.iter().map(|f| f.busy_total()).sum(),
            pcie_busy: nic.pcie_bus.busy_total(),
        }
    }

    /// Total verbs executed by a node's NIC.
    pub fn verbs_executed(&self, node: NodeId) -> u64 {
        self.nics[node.index()].stat_verbs
    }

    /// WQEs executed by one queue (includes recycled re-executions).
    pub fn wq_executed(&self, wq: WqId) -> u64 {
        self.wqs[wq.index()].stat_executed
    }

    /// Total doorbells the host has rung across all of a node's queues.
    /// Steady-state zero growth on a server node is the §3.4 claim made
    /// measurable: the NIC re-arms itself, no CPU on the critical path.
    pub fn node_doorbells(&self, node: NodeId) -> u64 {
        self.wqs
            .iter()
            .filter(|wq| wq.node == node)
            .map(|wq| wq.stat_doorbells)
            .sum()
    }

    /// Total WQEs the host has posted across all of a node's queues (send
    /// and receive). Recycled rings re-execute without re-posting, so this
    /// counter going flat while ops complete proves CPU-free serving.
    pub fn node_posts(&self, node: NodeId) -> u64 {
        self.wqs
            .iter()
            .filter(|wq| wq.node == node)
            .map(|wq| wq.posted)
            .sum()
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, kind: EventKind) -> Result<()> {
        match kind {
            EventKind::WqAdvance { wq } => self.advance_wq(wq),
            EventKind::FetchDone {
                wq,
                idx,
                managed,
                batch,
            } => self.on_fetch_done(wq, idx, managed, batch),
            EventKind::IssueDone { wq, idx } => self.on_issue_done(wq, idx),
            EventKind::Arrive { qp, msg } => self.on_arrive(qp, msg),
            EventKind::Complete { wq, idx, msg } => self.on_complete(wq, idx, msg),
            EventKind::Callback { key } => {
                if let Some(cb) = self.callbacks.remove(key) {
                    cb(self);
                }
                Ok(())
            }
            EventKind::Notify { key } => self.on_notify(key),
            EventKind::PushCqe { cq, cqe } => {
                self.push_cqe(cq, cqe);
                Ok(())
            }
        }
    }

    /// Drive a send queue: start a fetch and/or issue the next WQE.
    fn advance_wq(&mut self, wq_id: WqId) -> Result<()> {
        self.try_issue(wq_id)?;
        self.try_fetch(wq_id)
    }

    fn try_fetch(&mut self, wq_id: WqId) -> Result<()> {
        let wq = &self.wqs[wq_id.index()];
        if wq.kind != WqKind::Send
            || wq.fetch_inflight
            || wq.block == WqBlock::Dead
            || !wq.can_fetch()
        {
            return Ok(());
        }
        let node = wq.node;
        let port = wq.port;
        let managed = wq.managed;
        if managed {
            // Doorbell order: fetch only when this queue's pipeline is
            // empty, one WQE at a time. The per-port engine pipelines
            // fetches of *independent* queues: each fetch occupies the
            // engine for `t_managed_fetch_slot` and completes after the
            // full `t_managed_fetch` DMA latency, so a lone queue pays the
            // Fig 8 marginal while concurrent queues overlap their DMAs.
            if wq.executing.is_some() || wq.fetched != wq.executed {
                return Ok(());
            }
            let idx = wq.fetched;
            let cfg = &self.nics[node.index()].config;
            let lat = cfg.t_managed_fetch;
            let slot = cfg.t_managed_fetch_slot();
            let slot_done = self.nics[node.index()].fetch_engine[port].acquire(self.now, slot);
            let done = slot_done + (lat - slot);
            self.nics[node.index()].stat_managed_fetches += 1;
            self.wqs[wq_id.index()].fetch_inflight = true;
            self.events.schedule(
                done,
                EventKind::FetchDone {
                    wq: wq_id,
                    idx,
                    managed: true,
                    batch: 1,
                },
            );
        } else {
            // Prefetch a batch; keep at most two batches cached.
            let cfg = &self.nics[node.index()].config;
            if wq.fetch_cache.len() >= cfg.prefetch_batch * 2 {
                return Ok(());
            }
            let idx = wq.fetched;
            let batch = (wq.fetch_limit() - idx).min(cfg.prefetch_batch as u64);
            if batch == 0 {
                return Ok(());
            }
            let lat = cfg.t_fetch_batch;
            let bytes = batch * WQE_SIZE;
            let bus_done = self.nics[node.index()].pcie_occupy(self.now, bytes);
            let done = (self.now + lat).max(bus_done);
            self.wqs[wq_id.index()].fetch_inflight = true;
            self.events.schedule(
                done,
                EventKind::FetchDone {
                    wq: wq_id,
                    idx,
                    managed: false,
                    batch,
                },
            );
        }
        Ok(())
    }

    fn on_fetch_done(&mut self, wq_id: WqId, idx: u64, managed: bool, batch: u64) -> Result<()> {
        // Snapshot the bytes *now* — this is the moment the paper's
        // consistency rules revolve around.
        let (node, dead) = {
            let wq = &self.wqs[wq_id.index()];
            (wq.node, wq.block == WqBlock::Dead)
        };
        self.wqs[wq_id.index()].fetch_inflight = false;
        if dead {
            return Ok(());
        }
        for i in idx..idx + batch {
            let addr = self.wqs[wq_id.index()].slot_addr(i);
            let bytes = match self.mems[node.index()].read(addr, WQE_SIZE) {
                Ok(b) => {
                    let mut arr = [0u8; WQE_SIZE as usize];
                    arr.copy_from_slice(b);
                    arr
                }
                Err(_) => {
                    // Ring memory gone (crashed owner): the queue dies.
                    self.wqs[wq_id.index()].block = WqBlock::Dead;
                    self.trace.record(
                        self.now,
                        TraceEvent::Fault {
                            wq: wq_id,
                            idx: i,
                            reason: "WQ ring unreadable".to_string(),
                        },
                    );
                    return Ok(());
                }
            };
            if self.trace.enabled() {
                let opcode = Wqe::decode(&bytes)
                    .map(|w| w.opcode)
                    .unwrap_or(Opcode::Noop);
                self.trace.record(
                    self.now,
                    TraceEvent::Fetch {
                        wq: wq_id,
                        idx: i,
                        opcode,
                        managed,
                    },
                );
            }
            self.wqs[wq_id.index()].cache_snapshot(i, bytes);
        }
        self.wqs[wq_id.index()].fetched = idx + batch;
        self.advance_wq(wq_id)
    }

    fn try_issue(&mut self, wq_id: WqId) -> Result<()> {
        let wq = &self.wqs[wq_id.index()];
        if wq.kind != WqKind::Send || wq.executing.is_some() {
            return Ok(());
        }
        match wq.block {
            WqBlock::Dead | WqBlock::WaitCq { .. } | WqBlock::WaitPrev => return Ok(()),
            WqBlock::None => {}
        }
        let idx = wq.executed;
        if !wq.has_snapshot(idx) {
            return Ok(());
        }
        let node = wq.node;
        let qp_id = wq.qp;
        let bytes = {
            let wq = &self.wqs[wq_id.index()];
            wq.fetch_cache
                .iter()
                .find(|(i, _)| *i == idx)
                .map(|(_, b)| *b)
                .expect("checked")
        };
        let wqe = match Wqe::decode(&bytes) {
            Ok(w) => w,
            Err(_) => {
                // Corrupted WQE: fault the WQE, keep the queue moving.
                self.wqs[wq_id.index()].take_snapshot(idx);
                self.wqs[wq_id.index()].executed = idx + 1;
                self.trace.record(
                    self.now,
                    TraceEvent::Fault {
                        wq: wq_id,
                        idx,
                        reason: "undecodable WQE".to_string(),
                    },
                );
                let t_cqe = self.nics[node.index()].config.t_cqe;
                let msg =
                    self.stash_local(wq_id, idx, qp_id, Opcode::Noop, true, CqeStatus::BadWqe);
                self.events.schedule(
                    self.now + t_cqe,
                    EventKind::Complete {
                        wq: wq_id,
                        idx,
                        msg,
                    },
                );
                return self.try_issue(wq_id);
            }
        };
        // Completion-ordering fence within the queue.
        if wqe.wait_prev() && self.wqs[wq_id.index()].completed < idx {
            self.wqs[wq_id.index()].block = WqBlock::WaitPrev;
            return Ok(());
        }
        let cfg = self.nics[node.index()].config.clone();
        // Cross-channel support gate (Intel RNICs lack WAIT — §6).
        if wqe.opcode.is_ctrl() && !cfg.supports_wait_enable {
            return self.fault_wqe(wq_id, idx, "WAIT/ENABLE unsupported");
        }
        if wqe.opcode.is_calc() && !cfg.supports_calc {
            return self.fault_wqe(wq_id, idx, "calc verbs unsupported");
        }
        // WAIT: park if the target CQ has not reached the count.
        if wqe.opcode == Opcode::Wait {
            let cq = CqId(wqe.imm_or_target);
            if self.cqs.get(cq.index()).is_none() {
                return self.fault_wqe(wq_id, idx, "WAIT on unknown CQ");
            }
            let count = wqe.operand;
            if self.cqs[cq.index()].total < count {
                self.wqs[wq_id.index()].block = WqBlock::WaitCq { cq, count };
                self.cqs[cq.index()].park(wq_id, count);
                self.trace.record(
                    self.now,
                    TraceEvent::Park {
                        wq: wq_id,
                        cq,
                        count,
                    },
                );
                return Ok(());
            }
        }
        // Issue on the queue's PU.
        let t_issue = if wqe.opcode.is_ctrl() {
            cfg.t_issue_ctrl
        } else {
            cfg.t_issue(wqe.opcode.is_read_class())
        };
        let mut earliest = self.now.max(self.wqs[wq_id.index()].next_issue_at);
        if let Some(rl) = self.wqs[wq_id.index()].rate_limiter.as_mut() {
            earliest = rl.admit(earliest);
        }
        let (port, pu) = {
            let wq = &self.wqs[wq_id.index()];
            (wq.port, wq.pu)
        };
        let (start, finish) = self.nics[node.index()].pus[port].acquire_at(pu, earliest, t_issue);
        {
            let wq = &mut self.wqs[wq_id.index()];
            wq.take_snapshot(idx);
            wq.executing = Some((idx, wqe, start));
            wq.executed = idx + 1;
            wq.next_issue_at = start + cfg.t_chain_gap;
            wq.stat_executed += 1;
        }
        self.nics[node.index()].stat_verbs += 1;
        self.trace.record(
            self.now,
            TraceEvent::Issue {
                wq: wq_id,
                idx,
                opcode: wqe.opcode,
            },
        );
        self.events
            .schedule(finish, EventKind::IssueDone { wq: wq_id, idx });
        Ok(())
    }

    fn fault_wqe(&mut self, wq_id: WqId, idx: u64, reason: &'static str) -> Result<()> {
        let node = self.wqs[wq_id.index()].node;
        let qp = self.wqs[wq_id.index()].qp;
        self.wqs[wq_id.index()].take_snapshot(idx);
        self.wqs[wq_id.index()].executed = idx + 1;
        self.trace.record(
            self.now,
            TraceEvent::Fault {
                wq: wq_id,
                idx,
                reason: reason.to_string(),
            },
        );
        let t_cqe = self.nics[node.index()].config.t_cqe;
        let msg = self.stash_local(
            wq_id,
            idx,
            qp,
            Opcode::Noop,
            true,
            CqeStatus::ProtectionError,
        );
        self.events.schedule(
            self.now + t_cqe,
            EventKind::Complete {
                wq: wq_id,
                idx,
                msg,
            },
        );
        Ok(())
    }

    /// Create an in-flight record for a locally-completing WQE.
    fn stash_local(
        &mut self,
        wq: WqId,
        idx: u64,
        qp: QpId,
        opcode: Opcode,
        signaled: bool,
        status: CqeStatus,
    ) -> u64 {
        self.inflight.insert(InFlight {
            src_wq: wq,
            src_idx: idx,
            src_qp: qp,
            dst_qp: qp,
            opcode,
            signaled,
            payload: Payload::Send { bytes: Vec::new() },
            status,
            result: Vec::new(),
            result_sink: (0, 0),
            result_sgl: false,
            byte_len: 0,
        })
    }

    #[allow(clippy::too_many_lines)]
    fn on_issue_done(&mut self, wq_id: WqId, idx: u64) -> Result<()> {
        let (node, qp_id, port) = {
            let wq = &self.wqs[wq_id.index()];
            (wq.node, wq.qp, wq.port)
        };
        let (exec_idx, wqe, start) = self.wqs[wq_id.index()]
            .executing
            .take()
            .expect("IssueDone without executing WQE");
        debug_assert_eq!(exec_idx, idx);
        let cfg = self.nics[node.index()].config.clone();
        let retire = start + cfg.t_chain_gap;
        let signaled = wqe.signaled();

        match wqe.opcode {
            Opcode::Noop => {
                let msg =
                    self.stash_local(wq_id, idx, qp_id, wqe.opcode, signaled, CqeStatus::Success);
                self.events.schedule(
                    retire + cfg.t_cqe,
                    EventKind::Complete {
                        wq: wq_id,
                        idx,
                        msg,
                    },
                );
            }
            Opcode::Wait => {
                // Threshold was satisfied at issue time.
                let msg =
                    self.stash_local(wq_id, idx, qp_id, wqe.opcode, signaled, CqeStatus::Success);
                self.events.schedule(
                    retire + cfg.t_cqe,
                    EventKind::Complete {
                        wq: wq_id,
                        idx,
                        msg,
                    },
                );
            }
            Opcode::Enable => {
                let target = WqId(wqe.imm_or_target);
                if self.wqs.get(target.index()).is_some() {
                    let until = wqe.operand;
                    {
                        let t = &mut self.wqs[target.index()];
                        t.enabled_until = t.enabled_until.max(until);
                    }
                    self.trace
                        .record(self.now, TraceEvent::Enable { wq: target, until });
                    self.advance_wq(target)?;
                    let msg = self.stash_local(
                        wq_id,
                        idx,
                        qp_id,
                        wqe.opcode,
                        signaled,
                        CqeStatus::Success,
                    );
                    self.events.schedule(
                        retire + cfg.t_cqe,
                        EventKind::Complete {
                            wq: wq_id,
                            idx,
                            msg,
                        },
                    );
                } else {
                    let msg = self.stash_local(
                        wq_id,
                        idx,
                        qp_id,
                        wqe.opcode,
                        true,
                        CqeStatus::ProtectionError,
                    );
                    self.events.schedule(
                        retire + cfg.t_cqe,
                        EventKind::Complete {
                            wq: wq_id,
                            idx,
                            msg,
                        },
                    );
                }
            }
            Opcode::Recv => {
                // A RECV in a send queue decoded fine but is meaningless.
                let msg = self.stash_local(wq_id, idx, qp_id, wqe.opcode, true, CqeStatus::BadWqe);
                self.events.schedule(
                    retire + cfg.t_cqe,
                    EventKind::Complete {
                        wq: wq_id,
                        idx,
                        msg,
                    },
                );
            }
            Opcode::Send | Opcode::Write | Opcode::WriteImm => {
                let Some(peer) = self.qps[qp_id.index()].peer else {
                    return self.complete_error(wq_id, idx, qp_id, wqe, retire + cfg.t_cqe);
                };
                // Gather payload at the initiator, into a recycled buffer.
                let mut bytes = self.buf_pool.take();
                if wqe.length != 0 {
                    if let Err(_e) = self.mems[node.index()].nic_read_into(
                        wqe.lkey,
                        wqe.local_addr,
                        wqe.length as u64,
                        false,
                        &mut bytes,
                    ) {
                        self.buf_pool.put(bytes);
                        return self.complete_error(wq_id, idx, qp_id, wqe, retire + cfg.t_cqe);
                    }
                }
                let nbytes = bytes.len() as u64;
                let payload = match wqe.opcode {
                    Opcode::Send => Payload::Send { bytes },
                    Opcode::Write => Payload::Write {
                        raddr: wqe.remote_addr,
                        rkey: wqe.rkey,
                        bytes,
                        imm: None,
                    },
                    _ => Payload::Write {
                        raddr: wqe.remote_addr,
                        rkey: wqe.rkey,
                        bytes,
                        imm: Some(wqe.imm_or_target),
                    },
                };
                let msg = self.inflight.insert(InFlight {
                    src_wq: wq_id,
                    src_idx: idx,
                    src_qp: qp_id,
                    dst_qp: peer,
                    opcode: wqe.opcode,
                    signaled,
                    payload,
                    status: CqeStatus::Success,
                    result: Vec::new(),
                    result_sink: (0, 0),
                    result_sgl: false,
                    byte_len: nbytes as u32,
                });
                // Initiator PCIe: occupancy + store-and-forward stage.
                let bus_done = self.nics[node.index()].pcie_occupy(retire, nbytes);
                let src_stage = self.nics[node.index()].pcie_stage(nbytes);
                let depart_ready = (retire + cfg.t_posted_extra + src_stage).max(bus_done);
                let peer_node = self.qps[peer.index()].node;
                let arrive = if peer_node == node {
                    depart_ready
                } else {
                    let link_done = self.nics[node.index()].link_occupy(port, depart_ready, nbytes);
                    let wire = self.nics[node.index()].wire_stage(nbytes);
                    let one_way = self.one_way(node, peer_node).expect("connected");
                    (depart_ready + wire).max(link_done) + one_way
                };
                self.events
                    .schedule(arrive, EventKind::Arrive { qp: peer, msg });
            }
            Opcode::Read => {
                let Some(peer) = self.qps[qp_id.index()].peer else {
                    return self.complete_error(wq_id, idx, qp_id, wqe, retire + cfg.t_cqe);
                };
                // A READ may scatter its response across a local SGE table
                // (FLAG_SGL): length then holds the entry count and the
                // request size is the sum of the entries' lengths.
                let read_len = if wqe.is_sgl() {
                    let count = (wqe.length as usize).min(cfg.max_recv_sge);
                    let mut total = 0u32;
                    for i in 0..count {
                        let entry_addr = wqe.local_addr + i as u64 * crate::wqe::SGE_SIZE;
                        match self.mems[node.index()]
                            .read(entry_addr, crate::wqe::SGE_SIZE)
                            .ok()
                            .and_then(|b| crate::wqe::Sge::decode(b).ok())
                        {
                            Some(sge) => total += sge.len,
                            None => break,
                        }
                    }
                    total
                } else {
                    wqe.length
                };
                let msg = self.inflight.insert(InFlight {
                    src_wq: wq_id,
                    src_idx: idx,
                    src_qp: qp_id,
                    dst_qp: peer,
                    opcode: wqe.opcode,
                    signaled,
                    payload: Payload::Read {
                        raddr: wqe.remote_addr,
                        rkey: wqe.rkey,
                        len: read_len,
                    },
                    status: CqeStatus::Success,
                    result: Vec::new(),
                    result_sink: if wqe.is_sgl() {
                        (wqe.local_addr, wqe.length)
                    } else {
                        (wqe.local_addr, wqe.lkey)
                    },
                    result_sgl: wqe.is_sgl(),
                    byte_len: read_len,
                });
                let peer_node = self.qps[peer.index()].node;
                let arrive = if peer_node == node {
                    retire
                } else {
                    retire + self.one_way(node, peer_node).expect("connected")
                };
                self.events
                    .schedule(arrive, EventKind::Arrive { qp: peer, msg });
            }
            Opcode::Cas | Opcode::FetchAdd | Opcode::Max | Opcode::Min => {
                let Some(peer) = self.qps[qp_id.index()].peer else {
                    return self.complete_error(wq_id, idx, qp_id, wqe, retire + cfg.t_cqe);
                };
                let msg = self.inflight.insert(InFlight {
                    src_wq: wq_id,
                    src_idx: idx,
                    src_qp: qp_id,
                    dst_qp: peer,
                    opcode: wqe.opcode,
                    signaled,
                    payload: Payload::Atomic {
                        op: wqe.opcode,
                        raddr: wqe.remote_addr,
                        rkey: wqe.rkey,
                        operand: wqe.operand,
                        swap: wqe.swap,
                    },
                    status: CqeStatus::Success,
                    result: Vec::new(),
                    result_sink: (wqe.local_addr, wqe.lkey),
                    result_sgl: false,
                    byte_len: 8,
                });
                let peer_node = self.qps[peer.index()].node;
                let arrive = if peer_node == node {
                    retire
                } else {
                    retire + self.one_way(node, peer_node).expect("connected")
                };
                self.events
                    .schedule(arrive, EventKind::Arrive { qp: peer, msg });
            }
        }
        // The pipeline may proceed to the next WQE.
        self.advance_wq(wq_id)
    }

    fn complete_error(&mut self, wq: WqId, idx: u64, qp: QpId, wqe: Wqe, at: Time) -> Result<()> {
        self.trace.record(
            self.now,
            TraceEvent::Fault {
                wq,
                idx,
                reason: format!("{:?} failed locally", wqe.opcode),
            },
        );
        let msg = self.stash_local(wq, idx, qp, wqe.opcode, true, CqeStatus::ProtectionError);
        self.events
            .schedule(at, EventKind::Complete { wq, idx, msg });
        self.advance_wq(wq)
    }

    /// Responder-side processing of an arrived request.
    fn on_arrive(&mut self, qp_id: QpId, msg: u64) -> Result<()> {
        let node = self.qps[qp_id.index()].node;
        let src_node = {
            let inf = self.inflight.get(msg).expect("inflight");
            self.qps[inf.src_qp.index()].node
        };
        let one_way = self.one_way(src_node, node).unwrap_or(Time::ZERO);
        let cfg = self.nics[node.index()].config.clone();

        if self.qps[qp_id.index()].dead {
            // Resources are gone: the initiator eventually errors out.
            let inf = self.inflight.get_mut(msg).expect("inflight");
            inf.status = CqeStatus::RnrError;
            let (wq, idx) = (inf.src_wq, inf.src_idx);
            self.events.schedule(
                self.now + DEAD_QP_TIMEOUT,
                EventKind::Complete { wq, idx, msg },
            );
            return Ok(());
        }

        // Move the payload out of the in-flight record instead of cloning
        // it per delivery. A receiver-not-ready park puts it back verbatim,
        // so the RNR retry re-executes exactly as the first attempt did.
        let payload = {
            let inf = self.inflight.get_mut(msg).expect("inflight");
            std::mem::replace(&mut inf.payload, Payload::Send { bytes: Vec::new() })
        };
        match payload {
            Payload::Send { bytes } => {
                if !self.recv_available(qp_id) {
                    self.inflight.get_mut(msg).expect("inflight").payload = Payload::Send { bytes };
                    self.qps[qp_id.index()].rnr_queue.push_back(msg);
                    return Ok(());
                }
                self.consume_recv(qp_id, msg, &bytes, None, one_way, &cfg)?;
                self.buf_pool.put(bytes);
            }
            Payload::Write {
                raddr,
                rkey,
                bytes,
                imm,
            } => {
                // Responder PCIe for the payload.
                let nbytes = bytes.len() as u64;
                self.nics[node.index()].pcie_occupy(self.now, nbytes);
                let status = match self.mems[node.index()].nic_write(rkey, raddr, &bytes, true) {
                    Ok(()) => {
                        self.trace.record(
                            self.now,
                            TraceEvent::MemWrite {
                                addr: raddr,
                                len: nbytes,
                            },
                        );
                        CqeStatus::Success
                    }
                    Err(_) => CqeStatus::ProtectionError,
                };
                self.inflight.get_mut(msg).expect("inflight").status = status;
                if let Some(imm) = imm {
                    if status == CqeStatus::Success {
                        // WRITE_IMM consumes a RECV (no scatter).
                        if !self.recv_available(qp_id) {
                            // The retry rewrites memory with the same
                            // bytes, so the whole payload is restored, not
                            // just the immediate.
                            self.inflight.get_mut(msg).expect("inflight").payload =
                                Payload::Write {
                                    raddr,
                                    rkey,
                                    bytes,
                                    imm: Some(imm),
                                };
                            self.qps[qp_id.index()].rnr_queue.push_back(msg);
                            return Ok(());
                        }
                        self.consume_recv(qp_id, msg, &[], Some(imm), one_way, &cfg)?;
                        self.buf_pool.put(bytes);
                        return Ok(());
                    }
                }
                self.buf_pool.put(bytes);
                let inf = self.inflight.get(msg).expect("inflight");
                let (wq, idx) = (inf.src_wq, inf.src_idx);
                self.events.schedule(
                    self.now + one_way + cfg.t_cqe,
                    EventKind::Complete { wq, idx, msg },
                );
            }
            Payload::Read { raddr, rkey, len } => {
                let mut result = self.buf_pool.take();
                let status = match self.mems[node.index()].nic_read_into(
                    rkey,
                    raddr,
                    len as u64,
                    true,
                    &mut result,
                ) {
                    Ok(()) => CqeStatus::Success,
                    Err(_) => CqeStatus::ProtectionError,
                };
                let nbytes = result.len() as u64;
                {
                    let inf = self.inflight.get_mut(msg).expect("inflight");
                    inf.status = status;
                    inf.result = result;
                }
                // Responder PCIe read (store-and-forward stage, gated by
                // bus occupancy under load) + wire back + the initiator's
                // PCIe write stage.
                let bus_done = self.nics[node.index()].pcie_occupy(self.now, nbytes);
                let data_ready =
                    (self.now + cfg.t_nonposted_extra + self.nics[node.index()].pcie_stage(nbytes))
                        .max(bus_done);
                let port = self.qps[qp_id.index()].port;
                let initiator_stage = self.nics[node.index()].pcie_stage(nbytes);
                let complete_at = if one_way == Time::ZERO {
                    data_ready + initiator_stage + cfg.t_cqe
                } else {
                    let link_done = self.nics[node.index()].link_occupy(port, data_ready, nbytes);
                    let wire = self.nics[node.index()].wire_stage(nbytes);
                    (data_ready + wire).max(link_done) + one_way + initiator_stage + cfg.t_cqe
                };
                let inf = self.inflight.get(msg).expect("inflight");
                let (wq, idx) = (inf.src_wq, inf.src_idx);
                self.events
                    .schedule(complete_at, EventKind::Complete { wq, idx, msg });
            }
            Payload::Atomic {
                op,
                raddr,
                rkey,
                operand,
                swap,
            } => {
                // CAS/ADD serialize through the per-port atomic engine
                // (PCIe atomic transactions — Table 3's 8.4 M/s ceiling);
                // the vendor calc verbs MAX/MIN run on the regular path.
                let port = self.qps[qp_id.index()].port;
                let apply_at = if matches!(op, Opcode::Cas | Opcode::FetchAdd) {
                    self.nics[node.index()].atomic_engine[port]
                        .acquire(self.now, cfg.t_atomic_engine)
                } else {
                    self.now + cfg.t_atomic_engine
                };
                let (status, old) = {
                    // The memory operation conceptually happens at
                    // `apply_at`; between now and then no other event can
                    // observe a half-applied state because the engine is
                    // FIFO and events at intervening times see the old
                    // value only if they fire before this Arrive. We apply
                    // here and timestamp completions at `apply_at` — the
                    // window is the engine occupancy (119 ns) and nothing
                    // else can write this word through the same engine in
                    // between.
                    match self.mems[node.index()].nic_atomic(rkey, raddr, |old| match op {
                        Opcode::Cas => {
                            if old == operand {
                                swap
                            } else {
                                old
                            }
                        }
                        Opcode::FetchAdd => old.wrapping_add(operand),
                        Opcode::Max => old.max(operand),
                        Opcode::Min => old.min(operand),
                        _ => old,
                    }) {
                        Ok(old) => (CqeStatus::Success, old),
                        Err(_) => (CqeStatus::ProtectionError, 0),
                    }
                };
                if status == CqeStatus::Success {
                    self.trace.record(
                        self.now,
                        TraceEvent::MemWrite {
                            addr: raddr,
                            len: 8,
                        },
                    );
                }
                {
                    let mut result = self.buf_pool.take();
                    result.extend_from_slice(&old.to_le_bytes());
                    let inf = self.inflight.get_mut(msg).expect("inflight");
                    inf.status = status;
                    inf.result = result;
                }
                let rest = cfg.t_nonposted_extra.saturating_sub(cfg.t_atomic_engine);
                let inf = self.inflight.get(msg).expect("inflight");
                let (wq, idx) = (inf.src_wq, inf.src_idx);
                self.events.schedule(
                    apply_at + rest + one_way + cfg.t_cqe,
                    EventKind::Complete { wq, idx, msg },
                );
            }
        }
        Ok(())
    }

    /// Scatter `bytes` across an SGE table at `table_addr` with up to
    /// `max_entries` entries (bounded by the NIC's SGE limit). Returns
    /// `(bytes scattered, status)` — shared by RECV consumption and the
    /// SGL READ writeback path.
    fn scatter_local(
        &mut self,
        node: NodeId,
        table_addr: u64,
        max_entries: usize,
        bytes: &[u8],
    ) -> (u32, CqeStatus) {
        let limit = self.nics[node.index()].config.max_recv_sge;
        let count = max_entries.min(limit);
        let mut off = 0usize;
        let mut status = CqeStatus::Success;
        for i in 0..count {
            if off >= bytes.len() {
                break;
            }
            let entry_addr = table_addr + i as u64 * SGE_SIZE;
            let Ok(entry) = self.mems[node.index()].read(entry_addr, SGE_SIZE) else {
                status = CqeStatus::ProtectionError;
                break;
            };
            let Ok(sge) = Sge::decode(entry) else {
                status = CqeStatus::ProtectionError;
                break;
            };
            let take = (sge.len as usize).min(bytes.len() - off);
            if take == 0 {
                continue;
            }
            match self.mems[node.index()].nic_write(
                sge.lkey,
                sge.addr,
                &bytes[off..off + take],
                false,
            ) {
                Ok(()) => {
                    self.trace.record(
                        self.now,
                        TraceEvent::MemWrite {
                            addr: sge.addr,
                            len: take as u64,
                        },
                    );
                    off += take;
                }
                Err(_) => {
                    status = CqeStatus::ProtectionError;
                    break;
                }
            }
        }
        if status == CqeStatus::Success && off < bytes.len() {
            // Message longer than the scatter list.
            status = CqeStatus::ProtectionError;
        }
        (off as u32, status)
    }

    /// Whether the responder QP has a RECV ready to consume right now.
    /// Cyclic rings re-arm consumed slots as they wrap (§3.4's recycling
    /// applied to the RQ): a fully posted cyclic ring never runs dry.
    fn recv_available(&self, qp_id: QpId) -> bool {
        let rq = &self.wqs[self.qps[qp_id.index()].rq.index()];
        rq.cyclic || rq.posted > self.qps[qp_id.index()].recv_consumed
    }

    /// Consume one RECV for an arriving SEND/WRITE_IMM: scatter the
    /// payload (reading the RECV WQE bytes *now* — they may have been
    /// patched by earlier verbs) and generate the receive completion.
    /// Callers check [`Simulator::recv_available`] first and park on the
    /// RNR queue themselves when it fails.
    fn consume_recv(
        &mut self,
        qp_id: QpId,
        msg: u64,
        bytes: &[u8],
        imm: Option<u32>,
        one_way: Time,
        cfg: &NicConfig,
    ) -> Result<()> {
        debug_assert!(self.recv_available(qp_id));
        let node = self.qps[qp_id.index()].node;
        let rq_id = self.qps[qp_id.index()].rq;
        let recv_idx = self.qps[qp_id.index()].recv_consumed;
        self.qps[qp_id.index()].recv_consumed = recv_idx + 1;
        self.wqs[rq_id.index()].executed = recv_idx + 1;
        self.wqs[rq_id.index()].stat_executed += 1;

        // Decode the RECV WQE from host memory at consume time.
        let slot = self.wqs[rq_id.index()].slot_addr(recv_idx);
        let nbytes = bytes.len() as u64;
        self.nics[node.index()].pcie_occupy(self.now, nbytes);
        let mut raw = [0u8; WQE_SIZE as usize];
        raw.copy_from_slice(self.mems[node.index()].read(slot, WQE_SIZE)?);
        let mut status = CqeStatus::Success;
        let mut scattered = 0u32;
        match Wqe::decode(&raw) {
            Ok(recv_wqe) if recv_wqe.opcode == Opcode::Recv => {
                if recv_wqe.is_sgl() {
                    // Scatter across the SGE table.
                    let (n, st) = self.scatter_local(
                        node,
                        recv_wqe.local_addr,
                        recv_wqe.length as usize,
                        bytes,
                    );
                    scattered = n;
                    status = st;
                } else if nbytes > 0 {
                    if nbytes > recv_wqe.length as u64 {
                        status = CqeStatus::ProtectionError;
                    } else {
                        match self.mems[node.index()].nic_write(
                            recv_wqe.lkey,
                            recv_wqe.local_addr,
                            bytes,
                            false,
                        ) {
                            Ok(()) => {
                                self.trace.record(
                                    self.now,
                                    TraceEvent::MemWrite {
                                        addr: recv_wqe.local_addr,
                                        len: nbytes,
                                    },
                                );
                                scattered = nbytes as u32;
                            }
                            Err(_) => status = CqeStatus::ProtectionError,
                        }
                    }
                }
            }
            _ => status = CqeStatus::BadWqe,
        }

        // Receive completion (this is what WAIT-triggered chains key on).
        let cqe = Cqe {
            wq: rq_id,
            qp: qp_id,
            wqe_index: recv_idx,
            opcode: Opcode::Recv,
            status,
            byte_len: if imm.is_some() {
                self.inflight.get(msg).expect("inflight").byte_len
            } else {
                scattered
            },
            imm,
            time: self.now + cfg.t_cqe,
        };
        let recv_cq = self.qps[qp_id.index()].recv_cq;
        let t_cqe = cfg.t_cqe;
        self.after_cqe(recv_cq, cqe, t_cqe);

        // Ack back to the initiator.
        {
            let inf = self.inflight.get_mut(msg).expect("inflight");
            if status != CqeStatus::Success {
                inf.status = status;
            }
        }
        let inf = self.inflight.get(msg).expect("inflight");
        let (wq, idx) = (inf.src_wq, inf.src_idx);
        self.events.schedule(
            self.now + one_way + t_cqe,
            EventKind::Complete { wq, idx, msg },
        );
        Ok(())
    }

    /// Schedule a CQE push `delay` after now (keeps WAIT wake-ups at the
    /// correct simulated time). `Cqe` is `Copy`, so this rides a plain
    /// event instead of a boxed one-shot closure.
    fn after_cqe(&mut self, cq: CqId, cqe: Cqe, delay: Time) {
        self.events
            .schedule(self.now + delay, EventKind::PushCqe { cq, cqe });
    }

    /// Push a CQE: wake WAIT-parked queues and notify host listeners.
    fn push_cqe(&mut self, cq: CqId, mut cqe: Cqe) {
        cqe.time = self.now;
        let mut woken = std::mem::take(&mut self.woken_buf);
        woken.clear();
        self.cqs[cq.index()].push_into(cqe, &mut woken);
        self.trace.record(
            self.now,
            TraceEvent::Cqe {
                cq,
                wq: cqe.wq,
                idx: cqe.wqe_index,
            },
        );
        for &wq in &woken {
            if self.wqs[wq.index()].block != WqBlock::Dead {
                self.wqs[wq.index()].block = WqBlock::None;
                let _ = self.advance_wq(wq);
            }
        }
        self.woken_buf = woken;
        // Host listener notification.
        if let Some(key) = self.cqs[cq.index()].listener {
            let (node, mode, scheduled) = {
                let l = self.listeners.get(key).expect("listener");
                (l.node, l.mode, l.scheduled)
            };
            if !scheduled && self.hosts[node.index()].os_alive {
                let delay = match mode {
                    ListenMode::Polling => self.hosts[node.index()].config.t_poll_pickup,
                    ListenMode::Event => self.hosts[node.index()].config.t_event_wake,
                };
                self.listeners.get_mut(key).expect("listener").scheduled = true;
                self.events
                    .schedule(self.now + delay, EventKind::Notify { key });
            }
        }
    }

    fn on_notify(&mut self, key: u64) -> Result<()> {
        let Some(l) = self.listeners.get_mut(key) else {
            return Ok(());
        };
        l.scheduled = false;
        let (cq, node) = (l.cq, l.node);
        if !self.hosts[node.index()].os_alive {
            return Ok(());
        }
        let mut cb = match self.listeners.get_mut(key).and_then(|l| l.cb.take()) {
            Some(cb) => cb,
            None => return Ok(()),
        };
        let mut batch = std::mem::take(&mut self.notify_buf);
        loop {
            batch.clear();
            if self.cqs[cq.index()].poll_into(64, &mut batch) == 0 {
                break;
            }
            for &cqe in &batch {
                cb(self, cqe);
            }
        }
        batch.clear();
        self.notify_buf = batch;
        // The listener may have been removed by its own callback.
        if let Some(l) = self.listeners.get_mut(key) {
            l.cb = Some(cb);
        }
        Ok(())
    }

    /// Initiator-side completion bookkeeping.
    fn on_complete(&mut self, wq_id: WqId, idx: u64, msg: u64) -> Result<()> {
        let inf = self.inflight.remove(msg).expect("inflight");
        let node = self.wqs[wq_id.index()].node;
        // Writebacks: READ data / atomic old value.
        let mut status = inf.status;
        if status == CqeStatus::Success && !inf.result.is_empty() && inf.result_sink.0 != 0 {
            if inf.result_sgl {
                // Scatter the READ response across the local SGE table.
                let (table, count) = inf.result_sink;
                let (_, st) = self.scatter_local(node, table, count as usize, &inf.result);
                status = st;
            } else {
                let (addr, lkey) = inf.result_sink;
                match self.mems[node.index()].nic_write(lkey, addr, &inf.result, false) {
                    Ok(()) => {
                        self.trace.record(
                            self.now,
                            TraceEvent::MemWrite {
                                addr,
                                len: inf.result.len() as u64,
                            },
                        );
                    }
                    Err(_) => status = CqeStatus::ProtectionError,
                }
            }
        }
        {
            let wq = &mut self.wqs[wq_id.index()];
            wq.completed += 1;
            if wq.block == WqBlock::WaitPrev {
                wq.block = WqBlock::None;
            }
        }
        if inf.signaled || status != CqeStatus::Success {
            let cqe = Cqe {
                wq: wq_id,
                qp: inf.src_qp,
                wqe_index: idx,
                opcode: inf.opcode,
                status,
                byte_len: inf.byte_len,
                imm: None,
                time: self.now,
            };
            let cq = self.qps[inf.src_qp.index()].send_cq;
            self.push_cqe(cq, cqe);
        }
        // Recycle the message's byte buffers for the next in-flight op.
        match inf.payload {
            Payload::Send { bytes } | Payload::Write { bytes, .. } => self.buf_pool.put(bytes),
            Payload::Read { .. } | Payload::Atomic { .. } => {}
        }
        self.buf_pool.put(inf.result);
        self.advance_wq(wq_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HostConfig, LinkConfig, NicConfig, SimConfig};

    /// Two connected nodes with default CX5 NICs.
    fn two_nodes() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let a = sim.add_node("a", HostConfig::default(), NicConfig::connectx5());
        let b = sim.add_node("b", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(a, b, LinkConfig::back_to_back());
        (sim, a, b)
    }

    /// A connected QP pair a→b with per-node CQs. Returns (qp_a, qp_b).
    fn qp_pair(sim: &mut Simulator, a: NodeId, b: NodeId) -> (QpId, QpId, CqId, CqId) {
        let cq_a = sim.create_cq(a, 64).unwrap();
        let cq_b = sim.create_cq(b, 64).unwrap();
        let qp_a = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
        let qp_b = sim.create_qp(b, QpConfig::new(cq_b)).unwrap();
        sim.connect_qps(qp_a, qp_b).unwrap();
        (qp_a, qp_b, cq_a, cq_b)
    }

    #[test]
    fn remote_write_moves_bytes_and_completes() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 64, 8).unwrap();
        let smr = sim.register_mr(a, src, 64, Access::all()).unwrap();
        let dst = sim.alloc(b, 64, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 64, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 0x1122_3344_5566_7788).unwrap();

        sim.post_send(
            qp_a,
            WorkRequest::write(src, smr.lkey, 8, dst, dmr.rkey).signaled(),
        )
        .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 0x1122_3344_5566_7788);
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::Success);
        assert_eq!(cqes[0].opcode, Opcode::Write);
        // Fig 7 calibration: remote 64 B WRITE ≈ 1.6 us.
        let t = cqes[0].time.as_us_f64();
        assert!((t - 1.6).abs() < 0.05, "WRITE latency {t}");
    }

    #[test]
    fn remote_read_fetches_bytes() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let dst = sim.alloc(a, 64, 8).unwrap();
        let dmr = sim.register_mr(a, dst, 64, Access::all()).unwrap();
        let src = sim.alloc(b, 64, 8).unwrap();
        let smr = sim.register_mr(b, src, 64, Access::all()).unwrap();
        sim.mem_write_u64(b, src, 0xABCD).unwrap();

        sim.post_send(
            qp_a,
            WorkRequest::read(dst, dmr.lkey, 8, src, smr.rkey).signaled(),
        )
        .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(a, dst).unwrap(), 0xABCD);
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 1);
        // Fig 7: remote 64 B READ ≈ 1.8 us.
        let t = cqes[0].time.as_us_f64();
        assert!((t - 1.8).abs() < 0.05, "READ latency {t}");
    }

    #[test]
    fn cq_overrun_is_observable_and_wait_counting_survives_it() {
        // A pipelined fleet drives far more completions than a host may
        // poll; when a CQ fills, pollable entries drop (observably — the
        // overrun flag) but the monotonic count that WAIT thresholds use
        // keeps advancing, so chains parked past the overrun still fire.
        let (mut sim, a, b) = two_nodes();
        let small = sim.create_cq(a, 2).unwrap();
        let qp1 = sim.create_qp(a, QpConfig::new(small)).unwrap();
        let qp2 = sim.create_qp(a, QpConfig::new(small)).unwrap();
        let peer1 = {
            let cq_b = sim.create_cq(b, 64).unwrap();
            sim.create_qp(b, QpConfig::new(cq_b)).unwrap()
        };
        let peer2 = {
            let cq_b = sim.create_cq(b, 64).unwrap();
            sim.create_qp(b, QpConfig::new(cq_b)).unwrap()
        };
        sim.connect_qps(qp1, peer1).unwrap();
        sim.connect_qps(qp2, peer2).unwrap();
        let src = sim.alloc(a, 64, 8).unwrap();
        let smr = sim.register_mr(a, src, 64, Access::all()).unwrap();
        let dst = sim.alloc(b, 64, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 64, Access::all()).unwrap();

        // Six signaled writes through a depth-2 CQ: four entries drop.
        for _ in 0..6 {
            sim.post_send(
                qp1,
                WorkRequest::write(src, smr.lkey, 8, dst, dmr.rkey).signaled(),
            )
            .unwrap();
        }
        sim.run().unwrap();
        assert!(sim.cq_overrun(small), "overrun must be observable");
        assert_eq!(sim.cq_total(small), 6, "monotonic count keeps advancing");
        assert_eq!(sim.poll_cq(small, 16).len(), 2, "only depth entries poll");

        // A WAIT parked beyond the overrun still releases: threshold 8
        // needs two more completions, which arrive via the second QP.
        sim.mem_write_u64(b, dst + 8, 0).unwrap();
        sim.post_send(qp1, WorkRequest::wait(small, 8)).unwrap();
        sim.post_send(qp1, WorkRequest::write(src, smr.lkey, 8, dst + 8, dmr.rkey))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(
            sim.mem_read_u64(b, dst + 8).unwrap(),
            0,
            "flag write must stay parked behind the WAIT"
        );
        for _ in 0..2 {
            sim.post_send(
                qp2,
                WorkRequest::write(src, smr.lkey, 8, dst, dmr.rkey).signaled(),
            )
            .unwrap();
        }
        sim.mem_write_u64(a, src, 0x5EED).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.cq_total(small), 8);
        assert_eq!(
            sim.mem_read_u64(b, dst + 8).unwrap(),
            0x5EED,
            "WAIT threshold crossed the overrun and released the chain"
        );
    }

    #[test]
    fn recycled_ring_wait_counting_survives_cq_overrun() {
        // The recycled-path extension of the overrun test above: a §3.4
        // self-recycling ring whose WAIT thresholds are FETCH_ADD-bumped
        // every round keeps cycling even after its (tiny, never-polled)
        // CQ overruns — absolute thresholds ride the monotonic count, so
        // dropped pollable entries cost nothing.
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 2).unwrap();
        let mqp = sim
            .create_qp(n, QpConfig::new(cq).managed().sq_depth(4))
            .unwrap();
        let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp, peer).unwrap();
        let ring = sim.register_sq_ring(mqp, crate::ids::ProcessId(0)).unwrap();
        let ctr = sim.alloc(n, 8, 8).unwrap();
        let cmr = sim.register_mr(n, ctr, 8, Access::all()).unwrap();
        let msq = sim.sq_of(mqp);

        // Ring: two head FADDs bump the tail WAIT (+2 signaled per
        // round) and the self-ENABLE (+4 slots per round), both
        // initialized one delta low.
        let wait_op = sim.sq_wqe_addr(mqp, 2) + 48; // operand offset
        let enable_op = sim.sq_wqe_addr(mqp, 3) + 48;
        sim.post_send_quiet(
            mqp,
            WorkRequest::fetch_add(ctr, cmr.rkey, 1, 0, 0).signaled(),
        )
        .unwrap();
        sim.post_send_quiet(
            mqp,
            WorkRequest::fetch_add(wait_op, ring.rkey, 2, 0, 0).signaled(),
        )
        .unwrap();
        sim.post_send_quiet(mqp, WorkRequest::wait(cq, 0)).unwrap();
        sim.post_send_quiet(mqp, WorkRequest::enable(msq, 4))
            .unwrap();
        // Head FADD for the enable threshold rides the counter FADD's
        // slot? No — patch it via a second bump from the host once; the
        // ring's own FADD (slot 1) covers the WAIT. Rewrite slot 0 to
        // bump the ENABLE as well would lose the counter, so bump the
        // enable from slot 0's completion path instead: replace slot 0
        // with a FADD on the enable operand and count rounds via the
        // WAIT-bump word.
        sim.rewrite_sq_wqe(
            mqp,
            0,
            WorkRequest::fetch_add(enable_op, ring.rkey, 4, 0, 0).signaled(),
        )
        .unwrap();
        sim.host_enable(mqp, 4).unwrap();
        sim.run_until(Time::from_us(120)).unwrap();

        assert!(sim.cq_overrun(cq), "the 2-deep CQ must overrun");
        let rounds = sim.wq_executed(msq) / 4;
        assert!(rounds >= 5, "ring kept cycling past the overrun: {rounds}");
        // The WAIT threshold advanced monotonically (+2 per round) and
        // never exceeded the monotonic completion count by more than one
        // round's delta.
        let wait_thresh = sim.mem_read_u64(n, wait_op).unwrap();
        assert!(
            wait_thresh == 2 * rounds || wait_thresh == 2 * (rounds + 1),
            "threshold {wait_thresh} advances by exactly 2 per round ({rounds} rounds)"
        );
        assert!(sim.cq_total(cq) >= wait_thresh.saturating_sub(2));
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let tgt = sim.alloc(b, 8, 8).unwrap();
        let tmr = sim.register_mr(b, tgt, 8, Access::all()).unwrap();
        sim.mem_write_u64(b, tgt, 5).unwrap();

        // Mismatch: no change.
        sim.post_send(
            qp_a,
            WorkRequest::cas(tgt, tmr.rkey, 4, 99, 0, 0).signaled(),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 5);

        // Match: swapped.
        sim.post_send(
            qp_a,
            WorkRequest::cas(tgt, tmr.rkey, 5, 99, 0, 0).signaled(),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 99);
        assert_eq!(sim.poll_cq(cq_a, 8).len(), 2);
    }

    #[test]
    fn fetch_add_and_calc_verbs() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, _cq_a, _) = qp_pair(&mut sim, a, b);
        let tgt = sim.alloc(b, 8, 8).unwrap();
        let tmr = sim.register_mr(b, tgt, 8, Access::all()).unwrap();
        sim.mem_write_u64(b, tgt, 10).unwrap();

        sim.post_send(qp_a, WorkRequest::fetch_add(tgt, tmr.rkey, 7, 0, 0))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 17);

        sim.post_send(qp_a, WorkRequest::max(tgt, tmr.rkey, 100))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 100);

        sim.post_send(qp_a, WorkRequest::min(tgt, tmr.rkey, 3))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, tgt).unwrap(), 3);
    }

    #[test]
    fn send_recv_delivers_payload_and_completions() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 64, 8).unwrap();
        let smr = sim.register_mr(a, src, 64, Access::all()).unwrap();
        let dst = sim.alloc(b, 64, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 64, Access::all()).unwrap();
        sim.mem_write(a, src, b"hello rdma!").unwrap();

        sim.post_recv(qp_b, WorkRequest::recv(dst, dmr.lkey, 64))
            .unwrap();
        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 11).signaled())
            .unwrap();
        sim.run().unwrap();

        assert_eq!(&sim.mem_read(b, dst, 11).unwrap(), b"hello rdma!");
        let rx = sim.poll_cq(cq_b, 8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].opcode, Opcode::Recv);
        assert_eq!(rx[0].byte_len, 11);
        assert_eq!(sim.poll_cq(cq_a, 8).len(), 1);
    }

    #[test]
    fn send_without_recv_parks_until_recv_posted() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        let dst = sim.alloc(b, 8, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 8, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 42).unwrap();

        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 8))
            .unwrap();
        sim.run().unwrap();
        // Nothing delivered yet.
        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 0);

        sim.post_recv(qp_b, WorkRequest::recv(dst, dmr.lkey, 8))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 42);
        assert_eq!(sim.poll_cq(cq_b, 8).len(), 1);
    }

    #[test]
    fn write_imm_consumes_recv_and_delivers_imm() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        let dst = sim.alloc(b, 8, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 8, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 7).unwrap();

        sim.post_recv(qp_b, WorkRequest::recv(0, 0, 0)).unwrap();
        sim.post_send(
            qp_a,
            WorkRequest::write_imm(src, smr.lkey, 8, dst, dmr.rkey, 0xFEED),
        )
        .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 7);
        let rx = sim.poll_cq(cq_b, 8);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].imm, Some(0xFEED));
    }

    #[test]
    fn key_violation_produces_error_cqe() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        let dst = sim.alloc(b, 8, 8).unwrap();
        // Deliberately wrong rkey.
        sim.post_send(qp_a, WorkRequest::write(src, smr.lkey, 8, dst, 0xBAD))
            .unwrap();
        sim.run().unwrap();
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::ProtectionError);
        assert_eq!(sim.mem_read_u64(b, dst).unwrap(), 0);
    }

    #[test]
    fn loopback_qps_work_on_one_node() {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 16).unwrap();
        let qp1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let qp2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(qp1, qp2).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0x77).unwrap();

        sim.post_send(
            qp1,
            WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey).signaled(),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0x77);
        // Loopback is faster than remote (no wire RTT).
        let cqes = sim.poll_cq(cq, 4);
        assert!(cqes[0].time.as_us_f64() < 1.6);
    }

    #[test]
    fn wait_enable_cross_channel_trigger() {
        // A chain parked on WAIT(recv_cq, 1) runs only after a SEND lands:
        // the paper's Fig 3 trigger pattern.
        let (mut sim, a, b) = two_nodes();
        let client_cq = sim.create_cq(a, 16).unwrap();
        let qp_client = sim.create_qp(a, QpConfig::new(client_cq)).unwrap();
        let recv_cq = sim.create_cq(b, 16).unwrap();
        let chain_cq = sim.create_cq(b, 16).unwrap();
        let qp_server = sim
            .create_qp(b, QpConfig::new(chain_cq).recv_cq(recv_cq))
            .unwrap();
        sim.connect_qps(qp_client, qp_server).unwrap();

        // Loopback pair on the server for the chain's WRITE.
        let lb_cq = sim.create_cq(b, 16).unwrap();
        let lb1 = sim.create_qp(b, QpConfig::new(lb_cq)).unwrap();
        let lb2 = sim.create_qp(b, QpConfig::new(lb_cq)).unwrap();
        sim.connect_qps(lb1, lb2).unwrap();

        let flag = sim.alloc(b, 8, 8).unwrap();
        let fmr = sim.register_mr(b, flag, 8, Access::all()).unwrap();
        let one = sim.alloc(b, 8, 8).unwrap();
        let omr = sim.register_mr(b, one, 8, Access::all()).unwrap();
        sim.mem_write_u64(b, one, 1).unwrap();

        // Server chain: WAIT for one receive completion, then WRITE 1 to
        // flag (loopback).
        sim.post_recv(qp_server, WorkRequest::recv(0, 0, 0))
            .unwrap();
        sim.post_send_batch(
            lb1,
            &[
                WorkRequest::wait(recv_cq, 1),
                WorkRequest::write(one, omr.lkey, 8, flag, fmr.rkey),
            ],
        )
        .unwrap();
        sim.run().unwrap();
        // Chain is parked; flag untouched.
        assert_eq!(sim.mem_read_u64(b, flag).unwrap(), 0);

        // Client trigger.
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
        sim.post_send(qp_client, WorkRequest::send(src, smr.lkey, 8))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(b, flag).unwrap(), 1);
    }

    #[test]
    fn managed_queue_is_gated_by_enable() {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 16).unwrap();
        let mqp1 = sim.create_qp(n, QpConfig::new(cq).managed()).unwrap();
        let mqp2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp1, mqp2).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0xAA).unwrap();

        // Post to the managed queue: nothing runs (no doorbell, no enable).
        sim.post_send_quiet(mqp1, WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0);

        // ENABLE from another queue releases it.
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp1);
        sim.post_send(ctrl1, WorkRequest::enable(msq, 1)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0xAA);
    }

    #[test]
    fn self_modification_changes_what_executes() {
        // Post a NOOP into a managed queue, patch its header in host
        // memory into a WRITE before enabling it — the NIC must execute
        // the WRITE (Fig 4's transmutation, done by the host for
        // simplicity here; redn-core does it with CAS verbs).
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 16).unwrap();
        let mqp = sim.create_qp(n, QpConfig::new(cq).managed()).unwrap();
        let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp, peer).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0xBEEF).unwrap();

        // The NOOP carries the WRITE's operands already (paper's trick).
        let mut wr = WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey);
        wr.wqe.opcode = Opcode::Noop;
        sim.post_send_quiet(mqp, wr).unwrap();

        // Patch opcode NOOP -> WRITE directly in the ring.
        let slot = sim.sq_wqe_addr(mqp, 0);
        let word = sim.mem_read_u64(n, slot).unwrap();
        let (_, id) = crate::wqe::split_header(word);
        sim.mem_write_u64(n, slot, crate::wqe::header_word(Opcode::Write, id))
            .unwrap();

        // Enable and run: the patched WRITE executes.
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp);
        sim.post_send(ctrl1, WorkRequest::enable(msq, 1)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0xBEEF);
    }

    #[test]
    fn prefetch_hazard_unmanaged_queue_executes_stale_wqe() {
        // The §3.1 consistency hazard: on an UNMANAGED queue the NIC may
        // prefetch WQEs; a later in-memory patch is lost.
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 16).unwrap();
        let qp1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let qp2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(qp1, qp2).unwrap();
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0x1).unwrap();

        let mut wr = WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey);
        wr.wqe.opcode = Opcode::Noop;
        // Post both WQEs with one doorbell: they are prefetched together.
        sim.post_send_batch(qp1, &[WorkRequest::noop(), wr])
            .unwrap();
        // Let the doorbell + prefetch happen.
        sim.run_until(Time::from_us_f64(1.1)).unwrap();
        // Patch WQE 1 after the prefetch: NOOP -> WRITE.
        let slot = sim.sq_wqe_addr(qp1, 1);
        let word = sim.mem_read_u64(n, slot).unwrap();
        let (_, id) = crate::wqe::split_header(word);
        sim.mem_write_u64(n, slot, crate::wqe::header_word(Opcode::Write, id))
            .unwrap();
        sim.run().unwrap();
        // The stale NOOP executed: memory unchanged.
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0);
    }

    #[test]
    fn recv_sgl_scatters_into_multiple_targets() {
        use crate::wqe::Sge;
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let src = sim.alloc(a, 16, 8).unwrap();
        let smr = sim.register_mr(a, src, 16, Access::all()).unwrap();
        sim.mem_write_u64(a, src, 0x1111).unwrap();
        sim.mem_write_u64(a, src + 8, 0x2222).unwrap();

        // Two scatter targets on b, plus the SGE table itself.
        let t1 = sim.alloc(b, 8, 8).unwrap();
        let t2 = sim.alloc(b, 8, 8).unwrap();
        let mrb = sim.register_mr(b, t1, 16, Access::all()).unwrap();
        let table = sim.alloc(b, 32, 8).unwrap();
        let e0 = Sge {
            addr: t1,
            lkey: mrb.lkey,
            len: 8,
        };
        let e1 = Sge {
            addr: t2,
            lkey: mrb.lkey,
            len: 8,
        };
        sim.mem_write(b, table, &e0.encode()).unwrap();
        sim.mem_write(b, table + 16, &e1.encode()).unwrap();

        sim.post_recv(qp_b, WorkRequest::recv_sgl(table, 2))
            .unwrap();
        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 16))
            .unwrap();
        sim.run().unwrap();

        assert_eq!(sim.mem_read_u64(b, t1).unwrap(), 0x1111);
        assert_eq!(sim.mem_read_u64(b, t2).unwrap(), 0x2222);
        assert_eq!(sim.poll_cq(cq_b, 4)[0].byte_len, 16);
    }

    #[test]
    fn wq_recycling_re_executes_the_ring() {
        // ENABLE past the posted tail wraps the ring: the same WQE
        // re-executes (§3.4). Three enables -> three executions of the
        // single posted WRITE, incrementing via FETCH_ADD would be
        // clearer but WRITE shows the re-execution too.
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 64).unwrap();
        let mqp = sim
            .create_qp(n, QpConfig::new(cq).managed().sq_depth(1))
            .unwrap();
        let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp, peer).unwrap();
        let ctr = sim.alloc(n, 8, 8).unwrap();
        let cmr = sim.register_mr(n, ctr, 8, Access::all()).unwrap();

        sim.post_send_quiet(mqp, WorkRequest::fetch_add(ctr, cmr.rkey, 1, 0, 0))
            .unwrap();
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp);
        // Enable three executions of a 1-deep ring.
        sim.post_send(ctrl1, WorkRequest::enable(msq, 3)).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, ctr).unwrap(), 3);
        assert_eq!(sim.wq_executed(msq), 3);
    }

    #[test]
    fn dead_qp_freezes_and_errors() {
        let (mut sim, a, b) = two_nodes();
        let cq_a = sim.create_cq(a, 16).unwrap();
        let cq_b = sim.create_cq(b, 16).unwrap();
        let qp_a = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
        let pid = sim.spawn_process(b, "victim", None);
        let qp_b = sim.create_qp_owned(b, QpConfig::new(cq_b), pid).unwrap();
        sim.connect_qps(qp_a, qp_b).unwrap();
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();

        sim.kill_process(b, pid);
        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 8).signaled())
            .unwrap();
        sim.run().unwrap();
        let cqes = sim.poll_cq(cq_a, 4);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::RnrError);
        // Posting on the dead QP fails outright.
        assert!(sim.post_send(qp_b, WorkRequest::noop()).is_err());
    }

    #[test]
    fn cq_listener_polling_sees_completions() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (mut sim, a, b) = two_nodes();
        let (qp_a, qp_b, _cq_a, cq_b) = qp_pair(&mut sim, a, b);
        let dst = sim.alloc(b, 8, 8).unwrap();
        let dmr = sim.register_mr(b, dst, 8, Access::all()).unwrap();
        let src = sim.alloc(a, 8, 8).unwrap();
        let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();

        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        sim.set_cq_listener(
            cq_b,
            ListenMode::Polling,
            Box::new(move |_sim, cqe| {
                seen2.borrow_mut().push(cqe.wqe_index);
            }),
        );
        sim.post_recv(qp_b, WorkRequest::recv(dst, dmr.lkey, 8))
            .unwrap();
        sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 8))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(seen.borrow().as_slice(), &[0]);
    }

    #[test]
    fn timers_fire_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sim = Simulator::new(SimConfig::default());
        let order = Rc::new(RefCell::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        sim.at(
            Time::from_us(10),
            Box::new(move |_| o1.borrow_mut().push(10)),
        );
        sim.at(Time::from_us(5), Box::new(move |_| o2.borrow_mut().push(5)));
        sim.run().unwrap();
        assert_eq!(order.borrow().as_slice(), &[5, 10]);
        assert_eq!(sim.now(), Time::from_us(10));
    }

    #[test]
    fn rate_limiter_paces_a_queue() {
        let (mut sim, a, b) = two_nodes();
        let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
        // 100K ops/s = 10 us interval.
        sim.set_rate_limit(qp_a, 1e5, 1);
        for _ in 0..4 {
            sim.post_send(qp_a, WorkRequest::noop().signaled()).unwrap();
        }
        sim.run().unwrap();
        let cqes = sim.poll_cq(cq_a, 8);
        assert_eq!(cqes.len(), 4);
        let dt = cqes[3].time - cqes[2].time;
        assert!((dt.as_us_f64() - 10.0).abs() < 0.5, "paced gap {dt:?}");
    }

    #[test]
    fn wq_order_vs_completion_order_marginals() {
        // Fig 8 shape check at the engine level.
        let run_chain = |wait_prev: bool| -> f64 {
            let (mut sim, a, b) = two_nodes();
            let (qp_a, _qp_b, cq_a, _) = qp_pair(&mut sim, a, b);
            let n = 20;
            let mut wrs = Vec::new();
            for i in 0..n {
                let mut wr = WorkRequest::noop().signaled();
                if wait_prev && i > 0 {
                    wr = wr.wait_prev();
                }
                wrs.push(wr);
            }
            sim.post_send_batch(qp_a, &wrs).unwrap();
            sim.run().unwrap();
            let cqes = sim.poll_cq(cq_a, 64);
            assert_eq!(cqes.len(), n);
            (cqes[n - 1].time - cqes[0].time).as_us_f64() / (n as f64 - 1.0)
        };
        let wq_marginal = run_chain(false);
        let comp_marginal = run_chain(true);
        assert!((wq_marginal - 0.17).abs() < 0.02, "wq {wq_marginal}");
        assert!((comp_marginal - 0.19).abs() < 0.02, "comp {comp_marginal}");
    }

    #[test]
    fn event_budget_stops_runaway_programs() {
        let cfg = SimConfig {
            max_events: 500,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg);
        let n = sim.add_node("solo", HostConfig::default(), NicConfig::connectx5());
        let cq = sim.create_cq(n, 64).unwrap();
        let mqp = sim
            .create_qp(n, QpConfig::new(cq).managed().sq_depth(1))
            .unwrap();
        let peer = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(mqp, peer).unwrap();
        let ctr = sim.alloc(n, 8, 8).unwrap();
        let cmr = sim.register_mr(n, ctr, 8, Access::all()).unwrap();
        sim.post_send_quiet(mqp, WorkRequest::fetch_add(ctr, cmr.rkey, 1, 0, 0))
            .unwrap();
        let ctrl1 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        let ctrl2 = sim.create_qp(n, QpConfig::new(cq)).unwrap();
        sim.connect_qps(ctrl1, ctrl2).unwrap();
        let msq = sim.sq_of(mqp);
        // "Infinite" loop: enable far more iterations than the budget
        // allows.
        sim.post_send(ctrl1, WorkRequest::enable(msq, u64::MAX / 2))
            .unwrap();
        let err = sim.run().unwrap_err();
        assert!(matches!(err, Error::EventBudgetExhausted(_)));
    }
}
