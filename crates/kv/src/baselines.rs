//! The paper's baseline key-value access paths (§5.2, §5.4).
//!
//! * **One-sided** (FaRM / Pilaf style): the client issues a READ of the
//!   6-bucket neighborhood, parses it locally, then a second READ for the
//!   value — two network round trips, zero server CPU.
//! * **Two-sided** (RPC over RDMA): the client SENDs a request; a server
//!   thread picks the completion up (busy-polling or event-driven), walks
//!   the table on the CPU, and WRITEs the value back. One round trip plus
//!   server CPU time.
//! * **VMA** (§5.4): the two-sided path through a kernel-bypass socket
//!   stack — per-packet stack overhead plus two memcpys of the payload
//!   ("to adhere to the sockets API, VMA has to memcpy data from send and
//!   receive buffers").

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rnic_sim::cq::Cqe;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId, ProcessId, QpId};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::{ListenMode, Simulator};
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

use crate::cuckoo::CuckooTable;
use crate::hopscotch::{HopscotchTable, NEIGHBORHOOD};
use redn_core::offloads::hash_lookup::BUCKET_SIZE;
use redn_core::offloads::OffloadService;

/// One request's claimed offload instance, as a burst stages it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Claim {
    /// The claimed instance (its response carries the window's tag).
    pub instance: u64,
    /// The instance's client request/response slot.
    pub slot: u64,
    /// When the request is handed to the NIC.
    pub at: Time,
}

/// Run the simulator until `cq` produces a completion (or events run dry).
pub fn run_until_cqe(sim: &mut Simulator, cq: CqId) -> Result<Option<Cqe>> {
    loop {
        if let Some(c) = sim.poll_cq(cq, 1).pop() {
            return Ok(Some(c));
        }
        if !sim.step()? {
            return Ok(None);
        }
    }
}

/// A client endpoint: QP pair plus registered request/response buffers.
///
/// An endpoint created with [`ClientEndpoint::create_pipelined`] carves
/// its request and response buffers into `slots` independent slots so
/// that many requests can be in flight at once (one slot per in-flight
/// instance — the client-side mirror of the offload's `pipeline_depth`).
/// The response-slot stride matches the offloads' response slots:
/// `max_value.max(8)` bytes.
pub struct ClientEndpoint {
    /// Client node.
    pub node: NodeId,
    /// Client QP (connect to the server's).
    pub qp: QpId,
    /// Send-side CQ.
    pub cq: CqId,
    /// Receive CQ (response completions).
    pub recv_cq: CqId,
    /// Request staging buffer (base of the slot array).
    pub req_buf: u64,
    /// lkey for the request buffer.
    pub req_lkey: u32,
    /// Response buffer (base of the slot array; what [`dest`] advertises).
    ///
    /// [`dest`]: ClientEndpoint::dest
    pub resp_buf: u64,
    /// rkey for the response buffer (given to the server).
    pub resp_rkey: u32,
    /// lkey for the response buffer (for local reads).
    pub resp_lkey: u32,
    /// Pipelined request/response slots (1 for synchronous endpoints).
    pub slots: u32,
    req_slot_len: u64,
    /// RedN-path RECV/response bookkeeping (see `reserve_response_recv`):
    /// RECVs posted, responses reaped, requests posted, requests
    /// abandoned (timed-out misses whose RECV is recycled).
    recvs_posted: Cell<u64>,
    responses_reaped: Cell<u64>,
    requests_posted: Cell<u64>,
    requests_abandoned: Cell<u64>,
}

impl ClientEndpoint {
    /// The response-buffer capability this client advertises to servers
    /// (what a real client would ship in its connection handshake).
    pub fn dest(&self) -> redn_core::ctx::ClientDest {
        redn_core::ctx::ClientDest::new(self.resp_buf, self.resp_rkey)
    }

    /// Create an endpoint with buffers big enough for `max_value` bytes
    /// and a single request/response slot (the synchronous case).
    pub fn create(sim: &mut Simulator, node: NodeId, max_value: u32) -> Result<ClientEndpoint> {
        ClientEndpoint::create_pipelined(sim, node, max_value, 1)
    }

    /// Create an endpoint with `slots` independent request/response slots
    /// for pipelined use (pair with a hash-get offload deployed with the
    /// same `pipeline_depth` and `value_len == max_value`).
    pub fn create_pipelined(
        sim: &mut Simulator,
        node: NodeId,
        max_value: u32,
        slots: u32,
    ) -> Result<ClientEndpoint> {
        assert!(slots >= 1, "an endpoint needs at least one slot");
        let cq = sim.create_cq(node, 1024)?;
        let recv_cq = sim.create_cq(node, 1024)?;
        let qp = sim.create_qp(
            node,
            QpConfig::new(cq)
                .recv_cq(recv_cq)
                .sq_depth(1024)
                .rq_depth(1024),
        )?;
        let req_slot_len = 64u64 + max_value as u64;
        let req_len = req_slot_len * slots as u64;
        let req_buf = sim.alloc(node, req_len, 8)?;
        let req_mr = sim.register_mr(node, req_buf, req_len, Access::all())?;
        let resp_len = max_value.max(8) as u64 * slots as u64;
        let resp_buf = sim.alloc(node, resp_len, 8)?;
        let resp_mr = sim.register_mr(node, resp_buf, resp_len, Access::all())?;
        Ok(ClientEndpoint {
            node,
            qp,
            cq,
            recv_cq,
            req_buf,
            req_lkey: req_mr.lkey,
            resp_buf,
            resp_rkey: resp_mr.rkey,
            resp_lkey: resp_mr.lkey,
            slots,
            req_slot_len,
            recvs_posted: Cell::new(0),
            responses_reaped: Cell::new(0),
            requests_posted: Cell::new(0),
            requests_abandoned: Cell::new(0),
        })
    }

    /// Request staging address of `slot` (wraps modulo the slot count).
    pub fn req_slot(&self, slot: u64) -> u64 {
        self.req_buf + (slot % self.slots as u64) * self.req_slot_len
    }

    /// Capacity of one request slot in bytes — the most a staged
    /// trigger payload may occupy.
    pub fn req_slot_len(&self) -> u64 {
        self.req_slot_len
    }

    // -- Trigger-burst engine (Session::get_burst / walk_burst) -------

    /// Claim `off`'s next instance and stage one trigger request into
    /// the instance's slot: build its payload and handle with `request`,
    /// reserve its response RECV, write the payload, and queue the
    /// trigger SEND (no doorbell — bursts ring once).
    fn stage_trigger<S: OffloadService, P>(
        &self,
        sim: &mut Simulator,
        off: &mut S,
        request: impl FnOnce(&S, Claim) -> (Vec<u8>, P),
    ) -> Result<P> {
        let instance = off.window_mut().take()?;
        let claim = Claim {
            instance,
            slot: off.window().slot(instance),
            at: sim.now(),
        };
        let (payload, pending) = request(off, claim);
        self.reserve_response_recv(sim)?;
        let req = self.req_slot(claim.slot);
        sim.mem_write(self.node, req, &payload)?;
        sim.post_send_quiet(
            self.qp,
            redn_core::offloads::rpc::trigger_send(req, self.req_lkey, payload.len() as u32),
        )?;
        Ok(pending)
    }

    /// Post `count` trigger requests to `off` as one burst under a single
    /// doorbell; `request(off, i, claim)` builds request `i`'s payload
    /// and handle once its instance is claimed. The window is validated
    /// up front (the offload's pipeline depth vs this endpoint's slots,
    /// available instances vs `count`), so an over-sized burst errors
    /// cleanly with nothing posted. A mid-burst error still rings the
    /// doorbell for the already-staged requests — they are on the wire —
    /// but their handles are lost with the error; that path indicates a
    /// programming bug, not a capacity condition.
    pub(crate) fn post_trigger_burst<S: OffloadService, P>(
        &self,
        sim: &mut Simulator,
        off: &mut S,
        count: usize,
        mut request: impl FnMut(&S, usize, Claim) -> (Vec<u8>, P),
    ) -> Result<Vec<P>> {
        if self.slots < off.pipeline_depth() {
            return Err(Error::InvalidWr(
                "client endpoint has fewer slots than the offload's pipeline depth",
            ));
        }
        if off.window().available() < count as u64 {
            return Err(Error::InvalidWr(
                "burst exceeds the offload's available instances (re-arm or complete first)",
            ));
        }
        let mut out = Vec::with_capacity(count);
        let mut result = Ok(());
        for i in 0..count {
            match self.stage_trigger(sim, off, |off, claim| request(off, i, claim)) {
                Ok(p) => out.push(p),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if !out.is_empty() {
            sim.ring_doorbell(self.qp)?;
        }
        result.map(|()| out)
    }

    // -- RedN-path RECV accounting ------------------------------------
    //
    // Every RedN response (a WRITE_IMM) consumes one posted RECV, but a
    // *missed* key produces no response at all, so one RECV per request
    // would leak a RECV per miss and eventually exhaust the RQ into RNR.
    // Instead the endpoint reserves a RECV per *live* request and
    // recycles the RECVs stranded by abandoned (timed-out) requests.

    /// Account one request about to be posted, topping up posted RECVs
    /// so every live (posted, not reaped, not abandoned) request has
    /// one. Reuses RECVs stranded by earlier abandoned requests instead
    /// of posting unconditionally.
    pub fn reserve_response_recv(&self, sim: &mut Simulator) -> Result<()> {
        let live_after = self.requests_posted.get() + 1
            - self.responses_reaped.get()
            - self.requests_abandoned.get();
        if self.outstanding_recvs() < live_after {
            sim.post_recv(self.qp, WorkRequest::recv(0, 0, 0))?;
            self.recvs_posted.set(self.recvs_posted.get() + 1);
        }
        self.requests_posted.set(self.requests_posted.get() + 1);
        Ok(())
    }

    /// Account one reaped response completion (consumed one RECV).
    pub fn note_response_reaped(&self) {
        self.responses_reaped.set(self.responses_reaped.get() + 1);
    }

    /// Account one request given up on (a missed key never responds);
    /// its RECV stays posted and is reused by the next request.
    pub fn note_request_abandoned(&self) {
        self.requests_abandoned
            .set(self.requests_abandoned.get() + 1);
    }

    /// RECVs posted but not yet consumed by a response.
    pub fn outstanding_recvs(&self) -> u64 {
        self.recvs_posted.get() - self.responses_reaped.get()
    }

    /// Requests posted and neither reaped nor abandoned.
    pub fn live_requests(&self) -> u64 {
        self.requests_posted.get() - self.responses_reaped.get() - self.requests_abandoned.get()
    }
}

// ---------------------------------------------------------------------
// One-sided baseline
// ---------------------------------------------------------------------

/// FaRM-style one-sided lookup client.
pub struct OneSidedClient {
    /// The endpoint (its QP must be connected to a server loopback-serving
    /// QP — i.e. a QP on the server owned by a process that never touches
    /// it; one-sided needs no server logic at all).
    pub ep: ClientEndpoint,
    /// Scratch buffer holding the neighborhood read.
    pub meta_buf: u64,
    meta_lkey: u32,
    /// Table geometry (mirrored client-side, as FaRM clients cache it).
    pub table_base: u64,
    table_rkey: u32,
    nbuckets: u64,
    value_rkey: u32,
    value_len: u32,
}

impl OneSidedClient {
    /// Build a one-sided client for `table` on the server.
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        table: &HopscotchTable,
    ) -> Result<OneSidedClient> {
        let ep = ClientEndpoint::create(sim, node, table.heap.slot_len)?;
        let meta_len = NEIGHBORHOOD * BUCKET_SIZE;
        let meta_buf = sim.alloc(node, meta_len, 8)?;
        let meta_mr = sim.register_mr(node, meta_buf, meta_len, Access::all())?;
        Ok(OneSidedClient {
            ep,
            meta_buf,
            meta_lkey: meta_mr.lkey,
            table_base: table.base,
            table_rkey: table.mr().rkey,
            nbuckets: table.nbuckets,
            value_rkey: table.heap.mr().rkey,
            value_len: table.heap.slot_len,
        })
    }

    fn bucket_addr(&self, idx: u64) -> u64 {
        self.table_base + (idx % self.nbuckets) * BUCKET_SIZE
    }

    /// Parse the neighborhood copy for `key`; returns the value pointer.
    fn parse_neighborhood(&self, sim: &Simulator, key: u64) -> Result<Option<u64>> {
        for i in 0..NEIGHBORHOOD {
            let b = sim.mem_read(self.ep.node, self.meta_buf + i * BUCKET_SIZE, BUCKET_SIZE)?;
            let ptr = u64::from_le_bytes(b[0..8].try_into().unwrap());
            let mut kb = [0u8; 8];
            kb[..6].copy_from_slice(&b[8..14]);
            if u64::from_le_bytes(kb) == key & 0xFFFF_FFFF_FFFF {
                return Ok(Some(ptr));
            }
        }
        Ok(None)
    }

    /// Synchronous get: returns `(latency, value_found)`. Two READs per
    /// probed candidate: neighborhood then value, with the client-side
    /// poll-parse-post cost paid between dependent steps (that software
    /// gap is why two RTTs cost more than twice one RTT — §5.2).
    pub fn get(
        &self,
        sim: &mut Simulator,
        key: u64,
        candidates: &[u64; 2],
    ) -> Result<(Time, bool)> {
        let start = sim.now();
        let t_client = sim.host_config(self.ep.node).t_client_op;
        for &cand in candidates {
            // READ #1: the neighborhood (6 buckets).
            sim.post_send(
                self.ep.qp,
                WorkRequest::read(
                    self.meta_buf,
                    self.meta_lkey,
                    (NEIGHBORHOOD * BUCKET_SIZE) as u32,
                    self.bucket_addr(cand),
                    self.table_rkey,
                )
                .signaled(),
            )?;
            run_until_cqe(sim, self.ep.cq)?.ok_or(Error::InvalidWr("no completion"))?;
            sim.run_for(t_client)?; // parse the neighborhood, post the next verb
            if let Some(ptr) = self.parse_neighborhood(sim, key)? {
                // READ #2: the value.
                sim.post_send(
                    self.ep.qp,
                    WorkRequest::read(
                        self.ep.resp_buf,
                        self.ep.resp_lkey,
                        self.value_len,
                        ptr,
                        self.value_rkey,
                    )
                    .signaled(),
                )?;
                run_until_cqe(sim, self.ep.cq)?.ok_or(Error::InvalidWr("no completion"))?;
                return Ok((sim.now() - start, true));
            }
        }
        Ok((sim.now() - start, false))
    }

    /// Cuckoo-table variant: probe the two candidate *buckets* one by one
    /// (16 B READs), then fetch the value — the §5.4 one-sided baseline.
    pub fn get_cuckoo(
        &self,
        sim: &mut Simulator,
        key: u64,
        candidates: &[u64; 2],
    ) -> Result<(Time, bool)> {
        let start = sim.now();
        let t_client = sim.host_config(self.ep.node).t_client_op;
        for &cand in candidates {
            sim.post_send(
                self.ep.qp,
                WorkRequest::read(
                    self.meta_buf,
                    self.meta_lkey,
                    BUCKET_SIZE as u32,
                    self.bucket_addr(cand),
                    self.table_rkey,
                )
                .signaled(),
            )?;
            run_until_cqe(sim, self.ep.cq)?.ok_or(Error::InvalidWr("no completion"))?;
            sim.run_for(t_client)?;
            let b = sim.mem_read(self.ep.node, self.meta_buf, BUCKET_SIZE)?;
            let ptr = u64::from_le_bytes(b[0..8].try_into().unwrap());
            let mut kb = [0u8; 8];
            kb[..6].copy_from_slice(&b[8..14]);
            if u64::from_le_bytes(kb) == key & 0xFFFF_FFFF_FFFF {
                sim.post_send(
                    self.ep.qp,
                    WorkRequest::read(
                        self.ep.resp_buf,
                        self.ep.resp_lkey,
                        self.value_len,
                        ptr,
                        self.value_rkey,
                    )
                    .signaled(),
                )?;
                run_until_cqe(sim, self.ep.cq)?.ok_or(Error::InvalidWr("no completion"))?;
                return Ok((sim.now() - start, true));
            }
        }
        Ok((sim.now() - start, false))
    }
}

// ---------------------------------------------------------------------
// Two-sided baseline
// ---------------------------------------------------------------------

/// How the two-sided server observes requests (§5.2's event-based vs
/// polling-based distinction, plus the §5.4 VMA socket stack).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwoSidedMode {
    /// Dedicated busy-polling core: low pickup latency.
    Polling,
    /// Blocking thread woken per completion: pays the interrupt path.
    Event,
    /// Kernel-bypass sockets (VMA in polling mode): fast pickup but
    /// per-packet stack cost + two payload memcpys.
    Vma,
}

/// Wire format of an RPC request.
pub const REQ_OP_GET: u64 = 0;
/// Set request opcode.
pub const REQ_OP_SET: u64 = 1;
/// Request header length (op, key, resp addr, rkey).
pub const REQ_HEADER: u64 = 32;

/// Encode a request.
pub fn encode_request(op: u64, key: u64, resp_addr: u64, resp_rkey: u32, value: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(REQ_HEADER as usize + value.len());
    b.extend_from_slice(&op.to_le_bytes());
    b.extend_from_slice(&key.to_le_bytes());
    b.extend_from_slice(&resp_addr.to_le_bytes());
    b.extend_from_slice(&(resp_rkey as u64).to_le_bytes());
    b.extend_from_slice(value);
    b
}

/// Per-connection receive-ring bookkeeping.
struct ConnRing {
    ring: u64,
    lkey: u32,
    nslots: u64,
}

/// The two-sided RPC server: a listener thread that services get/set
/// requests against a shared table. Each client connects through its own
/// server-side QP ([`TwoSidedServer::add_connection`]); all QPs share one
/// receive CQ and one listener thread, like a Memcached worker.
pub struct TwoSidedServer {
    /// The first connection's server-side QP (convenience for single-
    /// client experiments).
    pub qp: QpId,
    /// Server node.
    pub node: NodeId,
    /// Listener registration key.
    pub listener: u64,
    /// Requests served (shared with the callback).
    pub served: Rc<RefCell<u64>>,
    recv_cq: rnic_sim::ids::CqId,
    conns: Rc<RefCell<std::collections::HashMap<u32, ConnRing>>>,
    slot_len: u64,
    owner: ProcessId,
}

impl TwoSidedServer {
    /// Install the server with one initial connection QP. `table` is
    /// shared with the experiment harness.
    pub fn install(
        sim: &mut Simulator,
        node: NodeId,
        table: Rc<RefCell<CuckooTable>>,
        mode: TwoSidedMode,
        owner: ProcessId,
    ) -> Result<TwoSidedServer> {
        let recv_cq = sim.create_cq(node, 16384)?;
        let value_len = table.borrow().heap.slot_len;
        let slot_len = REQ_HEADER + value_len as u64;
        let conns: Rc<RefCell<std::collections::HashMap<u32, ConnRing>>> =
            Rc::new(RefCell::new(std::collections::HashMap::new()));

        let listen_mode = match mode {
            TwoSidedMode::Event => ListenMode::Event,
            _ => ListenMode::Polling,
        };
        let served = Rc::new(RefCell::new(0u64));
        let served_cb = served.clone();
        let conns_cb = conns.clone();
        let mut seq = 0u64;
        let listener = sim.set_cq_listener(
            recv_cq,
            listen_mode,
            Box::new(move |sim, cqe| {
                let qp = cqe.qp;
                let (ring, ring_lkey, nslots) = {
                    let c = conns_cb.borrow();
                    let r = c.get(&qp.0).expect("connection ring");
                    (r.ring, r.lkey, r.nslots)
                };
                let slot = ring + (cqe.wqe_index % nslots) * slot_len;
                seq += 1;
                // Parse the request.
                let hdr = sim
                    .mem_read(node, slot, REQ_HEADER)
                    .expect("request header");
                let op = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
                let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
                let resp_addr = u64::from_le_bytes(hdr[16..24].try_into().unwrap());
                let resp_rkey = u64::from_le_bytes(hdr[24..32].try_into().unwrap()) as u32;

                // CPU cost of servicing the request.
                let host = sim.host_config(node).clone();
                let mut cost = if op == REQ_OP_SET {
                    host.t_rpc_set
                } else {
                    host.t_rpc_lookup
                };
                if mode == TwoSidedMode::Vma {
                    // Socket stack + two memcpys of the payload (§5.4).
                    let moved = value_len as u64 * 2;
                    cost +=
                        host.t_vma_stack + Time::from_ps(host.t_memcpy_per_byte.as_ps() * moved);
                }
                let finish = sim.host_execute(node, cost, seq);

                // Table work + response, scheduled when the CPU is done.
                let table = table.clone();
                let served = served_cb.clone();
                sim.at(
                    finish,
                    Box::new(move |sim| {
                        let (found_slot, vlen) = {
                            let mut t = table.borrow_mut();
                            if op == REQ_OP_SET {
                                let mut value = vec![0u8; value_len as usize];
                                if let Ok(v) =
                                    sim.mem_read(node, slot + REQ_HEADER, value_len as u64)
                                {
                                    value.copy_from_slice(&v);
                                }
                                let _ = t.insert(sim, key, &value);
                                (None, 0)
                            } else {
                                (t.lookup(key), value_len)
                            }
                        };
                        *served.borrow_mut() += 1;
                        // Respond: value for gets, bare ack for sets/misses.
                        let (laddr, lkey, len) = match found_slot {
                            Some(s) => {
                                let hk = {
                                    let t = table.borrow();
                                    t.heap.mr().lkey
                                };
                                (s, hk, vlen)
                            }
                            None => (0, 0, 0),
                        };
                        let wr = WorkRequest::write_imm(
                            laddr, lkey, len, resp_addr, resp_rkey, seq as u32,
                        );
                        // Repost the consumed RECV slot (the ring wraps)
                        // and send the response.
                        let _ =
                            sim.post_recv(qp, WorkRequest::recv(slot, ring_lkey, slot_len as u32));
                        let _ = sim.post_send(qp, wr);
                    }),
                );
            }),
        );
        let mut server = TwoSidedServer {
            qp: QpId(0), // replaced by the first add_connection below
            node,
            listener,
            served,
            recv_cq,
            conns,
            slot_len,
            owner,
        };
        server.qp = server.add_connection(sim)?;
        Ok(server)
    }

    /// Create a server-side QP for one more client connection, with its
    /// own pre-posted receive ring.
    pub fn add_connection(&mut self, sim: &mut Simulator) -> Result<QpId> {
        let send_cq = sim.create_cq(self.node, 4096)?;
        let qp = sim.create_qp_owned(
            self.node,
            QpConfig::new(send_cq)
                .recv_cq(self.recv_cq)
                .sq_depth(2048)
                .rq_depth(2048),
            self.owner,
        )?;
        let nslots = 1024u64;
        let ring = sim.alloc(self.node, nslots * self.slot_len, 64)?;
        // The request ring is registered under the init process: the crash
        // experiment (§5.6) models the outage through the QP's death and
        // the restart+rebuild delay; re-registration after the rebuild is
        // subsumed by that delay rather than simulated verb by verb.
        let ring_mr = sim.register_mr_owned(
            self.node,
            ring,
            nslots * self.slot_len,
            Access::all(),
            ProcessId(0),
        )?;
        for i in 0..nslots {
            sim.post_recv(
                qp,
                WorkRequest::recv(ring + i * self.slot_len, ring_mr.lkey, self.slot_len as u32),
            )?;
        }
        self.conns.borrow_mut().insert(
            qp.0,
            ConnRing {
                ring,
                lkey: ring_mr.lkey,
                nslots,
            },
        );
        Ok(qp)
    }
}

/// Synchronous two-sided get from `ep`: returns `(latency, found)`.
pub fn two_sided_get(sim: &mut Simulator, ep: &ClientEndpoint, key: u64) -> Result<(Time, bool)> {
    let start = sim.now();
    let req = encode_request(REQ_OP_GET, key, ep.resp_buf, ep.resp_rkey, &[]);
    sim.mem_write(ep.node, ep.req_buf, &req)?;
    sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
    sim.post_send(
        ep.qp,
        WorkRequest::send(ep.req_buf, ep.req_lkey, req.len() as u32),
    )?;
    let cqe = run_until_cqe(sim, ep.recv_cq)?.ok_or(Error::InvalidWr("no response"))?;
    Ok((sim.now() - start, cqe.byte_len > 0))
}

/// Synchronous two-sided set.
pub fn two_sided_set(
    sim: &mut Simulator,
    ep: &ClientEndpoint,
    key: u64,
    value: &[u8],
) -> Result<Time> {
    let start = sim.now();
    let req = encode_request(REQ_OP_SET, key, ep.resp_buf, ep.resp_rkey, value);
    sim.mem_write(ep.node, ep.req_buf, &req)?;
    sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
    sim.post_send(
        ep.qp,
        WorkRequest::send(ep.req_buf, ep.req_lkey, req.len() as u32),
    )?;
    run_until_cqe(sim, ep.recv_cq)?.ok_or(Error::InvalidWr("no response"))?;
    Ok(sim.now() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};

    fn setup() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let s = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(c, s, LinkConfig::back_to_back());
        (sim, c, s)
    }

    #[test]
    fn one_sided_get_two_rtts() {
        let (mut sim, c, s) = setup();
        let mut table = HopscotchTable::create(&mut sim, s, 256, 64, ProcessId(0)).unwrap();
        table
            .insert_at_candidate(&mut sim, 42, &[7u8; 64], 0)
            .unwrap()
            .unwrap();
        let client = OneSidedClient::create(&mut sim, c, &table).unwrap();
        // One-sided needs a passive server QP.
        let scq = sim.create_cq(s, 16).unwrap();
        let sqp = sim.create_qp(s, QpConfig::new(scq)).unwrap();
        sim.connect_qps(client.ep.qp, sqp).unwrap();

        let cands = table.candidates(42);
        let (lat, found) = client.get(&mut sim, 42, &cands).unwrap();
        assert!(found);
        assert_eq!(sim.mem_read(c, client.ep.resp_buf, 1).unwrap()[0], 7);
        // Two RTTs: roughly 2x a single READ (~1.8 us) plus parse time.
        let us = lat.as_us_f64();
        assert!(us > 3.0 && us < 8.0, "one-sided latency {us}");

        // Miss: probes both candidates (up to 4 READs).
        let (lat_miss, found) = client.get(&mut sim, 999, &table.candidates(999)).unwrap();
        assert!(!found);
        assert!(lat_miss > lat);
    }

    #[test]
    fn two_sided_polling_get_and_set() {
        let (mut sim, c, s) = setup();
        let table = Rc::new(RefCell::new(
            CuckooTable::create(&mut sim, s, 256, 64, ProcessId(0)).unwrap(),
        ));
        table.borrow_mut().insert(&mut sim, 5, &[9u8; 64]).unwrap();
        let server = TwoSidedServer::install(
            &mut sim,
            s,
            table.clone(),
            TwoSidedMode::Polling,
            ProcessId(0),
        )
        .unwrap();
        let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
        sim.connect_qps(ep.qp, server.qp).unwrap();
        sim.set_runnable_threads(s, 1);

        let (lat, found) = two_sided_get(&mut sim, &ep, 5).unwrap();
        assert!(found);
        assert_eq!(sim.mem_read(c, ep.resp_buf, 1).unwrap()[0], 9);
        let us = lat.as_us_f64();
        // One RTT + pickup + CPU lookup: a handful of microseconds.
        assert!(us > 2.0 && us < 12.0, "two-sided latency {us}");

        // Set then read back.
        two_sided_set(&mut sim, &ep, 123, &[0xCD; 64]).unwrap();
        let (_, found) = two_sided_get(&mut sim, &ep, 123).unwrap();
        assert!(found);
        assert_eq!(sim.mem_read(c, ep.resp_buf, 1).unwrap()[0], 0xCD);
        assert_eq!(*server.served.borrow(), 3);

        // Miss returns an empty response.
        let (_, found) = two_sided_get(&mut sim, &ep, 777).unwrap();
        assert!(!found);
    }

    #[test]
    fn event_mode_is_slower_than_polling() {
        let run = |mode: TwoSidedMode| -> f64 {
            let (mut sim, c, s) = setup();
            let table = Rc::new(RefCell::new(
                CuckooTable::create(&mut sim, s, 256, 64, ProcessId(0)).unwrap(),
            ));
            table.borrow_mut().insert(&mut sim, 5, &[9u8; 64]).unwrap();
            let server = TwoSidedServer::install(&mut sim, s, table, mode, ProcessId(0)).unwrap();
            let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
            sim.connect_qps(ep.qp, server.qp).unwrap();
            sim.set_runnable_threads(s, 1);
            let (lat, _) = two_sided_get(&mut sim, &ep, 5).unwrap();
            lat.as_us_f64()
        };
        let polling = run(TwoSidedMode::Polling);
        let event = run(TwoSidedMode::Event);
        let vma = run(TwoSidedMode::Vma);
        assert!(
            event > polling + 3.0,
            "event {event} should pay the wake cost over polling {polling}"
        );
        assert!(
            vma > polling,
            "VMA {vma} adds stack+memcpy over raw RDMA {polling}"
        );
    }
}
