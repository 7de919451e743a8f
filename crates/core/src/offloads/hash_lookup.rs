//! Hash-table `get` offload (paper §5.2, Fig 9).
//!
//! The client computes its key's bucket address(es) and SENDs
//! `[bucket_addr(8B)... , key(6B)]`. On the server, per bucket:
//!
//! 1. the trigger RECV scatters the bucket address into a READ's
//!    remote-address field and the key into a CAS's compare field;
//! 2. the READ fetches the bucket, scattering the stored value pointer
//!    into the response WQE's source-address field and the stored key
//!    into the response WQE's `id` bits (one READ, two patch points — a
//!    local scatter list);
//! 3. the CAS compares `header(NOOP, stored_key)` against
//!    `header(NOOP, x)` and, on a match, transmutes the response NOOP
//!    into a WRITE;
//! 4. the (possibly transmuted) response WQE executes: the value flies
//!    back to the client in the same network round trip.
//!
//! Buckets are 16 bytes: `[value_ptr: u64][key: 48 bits][16 bits pad]`.
//!
//! Variants (Fig 11): with two candidate buckets (hopscotch H=2), probes
//! run **sequentially** on one chain queue or in **parallel** on two
//! queues pinned to different processing units.
//!
//! Two deployment modes:
//!
//! * **host-armed** ([`HashGetBuilder::build`]): every instance is
//!   staged by a host [`HashGetOffload::arm`] call — the latency-bench
//!   mode (it keeps the Fig 11 PU-parallel probes);
//! * **self-recycling** ([`HashGetBuilder::build_recycled`]): one round
//!   of `pipeline_depth` instances is staged at deploy and the NIC
//!   re-arms it forever (§3.4 WQ recycling — restore WRITEs from
//!   pristine [`ConstPool`] images, FETCH_ADD threshold fix-ups, a
//!   cyclic trigger-RECV ring), leaving zero host work on the serving
//!   path.
//!
//! [`HashGetBuilder::build`]: crate::ctx::HashGetBuilder::build
//! [`HashGetBuilder::build_recycled`]: crate::ctx::HashGetBuilder::build_recycled

use crate::ctx::{ChainQueueBuilder, HashGetSpec, TriggerPointBuilder};
use crate::encode::{operand48, WqeField};
use crate::ir::analysis::Footprint;
use crate::ir::{DeployOpts, EnableTarget, Kind, Loc, OpBuild, PassReport, SgeSpec, WaitCond};
use crate::offloads::rpc::TriggerPoint;
use crate::offloads::service::OffloadService;
use crate::offloads::window::InstanceWindow;
use crate::program::{ChainQueue, ConstPool};
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::Opcode;

/// Size of one bucket in bytes.
pub const BUCKET_SIZE: u64 = 16;
/// Offset of the value pointer within a bucket.
pub const BUCKET_OFF_PTR: u64 = 0;
/// Offset of the 48-bit key within a bucket.
pub const BUCKET_OFF_KEY: u64 = 8;

/// Host-side bucket encoding helper.
pub fn encode_bucket(value_ptr: u64, key: u64) -> [u8; BUCKET_SIZE as usize] {
    let mut b = [0u8; BUCKET_SIZE as usize];
    b[0..8].copy_from_slice(&value_ptr.to_le_bytes());
    b[8..14].copy_from_slice(&operand48(key).to_le_bytes()[..6]);
    b
}

/// Probe scheduling for multi-bucket lookups (Fig 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashGetVariant {
    /// One candidate bucket (no-collision fast path of Fig 10).
    Single,
    /// Two buckets probed back-to-back on one chain queue.
    Sequential,
    /// Two buckets probed concurrently on chain queues pinned to
    /// different processing units.
    Parallel,
}

impl HashGetVariant {
    /// Number of candidate buckets this variant probes.
    pub fn buckets(self) -> usize {
        match self {
            HashGetVariant::Single => 1,
            _ => 2,
        }
    }
}

/// The server-side get offload. One [`HashGetOffload::arm`] call stages
/// the chain for one future request; requests consume armed instances in
/// order. Arming `pipeline_depth` instances up front keeps that many
/// requests in flight concurrently: each instance lands its response in
/// its own client-side slot (`dest.addr + (instance % depth) * stride`)
/// and carries its instance id in the WRITE_IMM immediate, so a client
/// can post several gets back-to-back and match completions to requests.
pub struct HashGetOffload {
    /// Client-facing trigger endpoint (responses ride its managed SQ).
    pub tp: TriggerPoint,
    spec: HashGetSpec,
    window: InstanceWindow,
    /// recv CQ completion count at creation: instance k's trigger WAIT
    /// uses `trigger_base + k + 1` (absolute, monotonic).
    trigger_base: u64,
    node: NodeId,
    /// IR optimizer report of the deployed round (recycled mode only).
    report: Option<PassReport>,
    /// Non-interference footprint of the deployed round (recycled mode
    /// only — a host-armed offload stages fresh programs per `arm` call
    /// on shared queues, so no single static footprint describes it).
    footprint: Option<Footprint>,
    backend: Backend,
}

/// How armed instances come to exist.
enum Backend {
    /// Every instance is staged by a host `arm` call (the pre-§3.4 mode;
    /// still used by the synchronous path and the latency benches).
    HostArmed {
        /// Bucket-probe chain queues (1 for Single/Sequential, 2 for
        /// Parallel).
        chains: Vec<ChainQueue>,
        /// Unmanaged control queues (one per chain) plus a merge queue.
        ctrls: Vec<ChainQueue>,
        merge: ChainQueue,
        /// Content-addressed cache over the pool: once every ring has
        /// wrapped, an instance's resolved SGE tables are byte-identical
        /// to the ones staged a cycle earlier and intern to the same
        /// cells — long host-armed runs stop consuming pool capacity.
        interner: crate::ir::ConstInterner,
    },
    /// One ring of `pipeline_depth` instances built at deploy time
    /// re-arms itself on the NIC every round (§3.4 WQ recycling): zero
    /// host work and zero pool churn per request. The window holds the
    /// ring.
    Recycled,
}

impl HashGetOffload {
    /// Deploy the offload's queues (called by
    /// [`HashGetBuilder`](crate::ctx::HashGetBuilder)).
    pub(crate) fn deploy(
        sim: &mut Simulator,
        node: NodeId,
        owner: ProcessId,
        spec: HashGetSpec,
    ) -> Result<HashGetOffload> {
        // PU sharding: a fleet deploys one offload per client and spreads
        // them over the NIC's processing units via `pu_base` (§3.5
        // "Parallelism"; §5.5 gives each client its own trigger point).
        let npus = sim.nic_config(node).pus_per_port;
        let pu = |off: usize| (spec.pu_base + off) % npus;
        let tp = TriggerPointBuilder::new(node, owner)
            .on_pu(pu(0))
            .on_port(spec.port)
            .build(sim)?;
        let nchains = match spec.variant {
            HashGetVariant::Parallel => 2,
            _ => 1,
        };
        let mut chains = Vec::new();
        let mut ctrls = Vec::new();
        for i in 0..nchains {
            // Parallel probes ride different PUs (§3.5 "Parallelism").
            let mut chain_b = ChainQueueBuilder::new(node, owner)
                .managed()
                .depth(1024)
                .on_port(spec.port);
            let mut ctrl_b = ChainQueueBuilder::new(node, owner)
                .depth(2048)
                .on_port(spec.port);
            if spec.variant == HashGetVariant::Parallel {
                chain_b = chain_b.on_pu(pu(i + 1));
                ctrl_b = ctrl_b.on_pu(pu(i + 1));
            }
            chains.push(chain_b.build(sim)?);
            ctrls.push(ctrl_b.build(sim)?);
        }
        let merge = ChainQueueBuilder::new(node, owner)
            .depth(2048)
            .on_pu(pu(0))
            .on_port(spec.port)
            .build(sim)?;
        let trigger_base = sim.cq_total(tp.recv_cq);
        Ok(HashGetOffload {
            tp,
            spec,
            window: InstanceWindow::host_armed(spec.pipeline_depth),
            trigger_base,
            node,
            report: None,
            footprint: None,
            backend: Backend::HostArmed {
                chains,
                ctrls,
                merge,
                interner: crate::ir::ConstInterner::new(),
            },
        })
    }

    /// The IR optimizer's before/after verb accounting for one recycled
    /// round (`None` for host-armed offloads, whose instances are staged
    /// per `arm` call).
    pub fn ir_report(&self) -> Option<PassReport> {
        self.report
    }

    /// Optimized WQEs per request (one recycled round divided by its
    /// instances); `None` for host-armed offloads.
    pub fn verbs_per_op(&self) -> Option<f64> {
        self.report
            .map(|r| r.after.total() as f64 / f64::from(self.spec.pipeline_depth))
    }

    /// Deploy the self-recycling variant (§3.4 applied to serving): one
    /// ring of `pipeline_depth` instances is staged **once**, and the NIC
    /// re-arms it between rounds — restore WRITE re-copying the pristine
    /// response images, FETCH_ADDs advancing every WAIT/ENABLE threshold,
    /// a cyclic trigger-RECV ring re-arming the scatter programs. In
    /// steady state the host neither posts, rings doorbells, nor touches
    /// the constant pool; it only claims and retires instances in its
    /// [`InstanceWindow`] as responses drain.
    ///
    /// Layout per instance `k` on the probe ring (probes run back-to-back
    /// on one managed ring; `wait_prev` supplies the completion-order
    /// gates the host-armed mode builds from WAIT/ENABLE ladders):
    ///
    /// ```text
    /// WAIT(recv_cq, T_k)      -- released by trigger k   (+K per round)
    /// READ_p  (per probe)     -- bucket -> resp WQE fields
    /// CAS_p   (wait_prev)     -- match? NOOP -> WRITE_IMM
    /// ENABLE(resp, (k+1)*P)   -- wait_prev: after every CAS completed
    ///                                                    (+P*K per round)
    /// ```
    ///
    /// and per round, after all K instances:
    ///
    /// ```text
    /// WAIT(send_cq, resps)    -- all P*K responses executed (+P*K)
    /// WRITE(image -> resp ring) -- restore every response slot
    /// FETCH_ADD fix-ups, tail WAIT + self-ENABLE (RecycledLoopBuilder)
    /// ```
    pub(crate) fn deploy_recycled(
        sim: &mut Simulator,
        node: NodeId,
        owner: ProcessId,
        spec: HashGetSpec,
        pool: &mut ConstPool,
        opts: DeployOpts,
    ) -> Result<HashGetOffload> {
        if spec.variant == HashGetVariant::Parallel {
            return Err(Error::InvalidWr(
                "self-recycling hash-get runs probes on one ring; use Sequential (or Single)",
            ));
        }
        let npus = sim.nic_config(node).pus_per_port;
        let pu = |off: usize| (spec.pu_base + off) % npus;
        let k = spec.pipeline_depth as u64;
        let probes = spec.variant.buckets() as u64;
        let resp_slots = k * probes;

        let tp = TriggerPointBuilder::new(node, owner)
            .on_pu(pu(0))
            .on_port(spec.port)
            .sq_depth(resp_slots as u32)
            .rq_depth(k as u32)
            .build(sim)?;
        let trigger_base = sim.cq_total(tp.recv_cq);
        let send_base = sim.cq_total(tp.send_cq);
        let tp_queue = ChainQueue {
            qp: tp.qp,
            peer: tp.qp, // unused
            sq: sim.sq_of(tp.qp),
            cq: tp.send_cq,
            ring: tp.ring,
            managed: true,
            depth: resp_slots as u32,
            node,
        };

        // The whole round as one typed IR program: the response ring's
        // pristine NOOP placeholders (restore-marked — the optimizer
        // merges their per-round re-arms into one scatter WRITE), and per
        // instance a trigger WAIT, the probe READ→CAS pairs, and the
        // response release. Patch points (READ remote addresses, CAS
        // compare ids, response value pointers) stay symbolic until
        // deploy.
        let (mut p, ring) = crate::ir::IrProgram::recycled(crate::ir::RingSpec {
            node,
            owner,
            pu: Some(pu(1)),
            port: spec.port,
        });
        let resp_q = p.chain(tp_queue);
        let stride = spec.values.value_len.max(8) as u64;
        let mut resp_ops = Vec::with_capacity(resp_slots as usize);
        for inst in 0..k {
            for _ in 0..probes {
                resp_ops.push(
                    p.push(
                        resp_q,
                        OpBuild::new(Kind::Write {
                            src: Loc::raw(0, spec.values.lkey()), // patched: bucket value ptr
                            len: spec.values.value_len,
                            dst: Loc::raw(spec.dest.addr + inst * stride, spec.dest.rkey()),
                            imm: Some(inst as u32),
                        })
                        .signaled()
                        .placeholder()
                        .restore()
                        .label("response slot"),
                    ),
                );
            }
        }

        let mut scatter_ids = Vec::with_capacity(k as usize);
        for inst in 0..k {
            p.push(
                ring,
                OpBuild::new(Kind::Wait(WaitCond::Absolute {
                    cq: tp.recv_cq,
                    count: trigger_base + inst + 1,
                }))
                .bump(k)
                .label("trigger wait"),
            );
            // Both probes' READs first (they overlap in flight), then the
            // CASes, each gated on every prior completion.
            let mut reads = Vec::new();
            let mut cases = Vec::new();
            for pr in 0..probes {
                let resp = resp_ops[(inst * probes + pr) as usize];
                let table = p.const_sges(vec![
                    SgeSpec {
                        target: Loc::field(resp, WqeField::LocalAddr),
                        len: 8,
                    },
                    SgeSpec {
                        target: Loc::field(resp, WqeField::Id),
                        len: 6,
                    },
                ]);
                reads.push(
                    p.push(
                        ring,
                        OpBuild::new(Kind::ReadSgl {
                            table,
                            entries: 2,
                            src: Loc::raw(0, spec.table.rkey()), // patched: bucket addr
                        })
                        .signaled()
                        .label("bucket READ"),
                    ),
                );
            }
            for pr in 0..probes {
                let resp = resp_ops[(inst * probes + pr) as usize];
                cases.push(
                    p.push(
                        ring,
                        OpBuild::new(Kind::Transmute {
                            target: resp,
                            y: 0, // compare id bits patched with x
                            into: Opcode::WriteImm,
                        })
                        .signaled()
                        .wait_prev()
                        .label("key CAS"),
                    ),
                );
            }
            p.push(
                ring,
                OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(
                    resp_ops[((inst + 1) * probes - 1) as usize],
                )))
                .wait_prev()
                .bump(resp_slots)
                .label("response release"),
            );
            // Trigger payload is probe-major ([addr, key] per probe).
            let mut entries = Vec::with_capacity(2 * probes as usize);
            for pr in 0..probes as usize {
                entries.push(SgeSpec {
                    target: Loc::field(reads[pr], WqeField::RemoteAddr),
                    len: 8,
                });
                entries.push(SgeSpec {
                    target: Loc::field_off(cases[pr], WqeField::Operand, 2),
                    len: 6,
                });
            }
            scatter_ids.push(p.scatter(entries));
        }
        // Round tail: all of this round's responses executed; the restore
        // WRITE over the pristine response images is synthesized from the
        // restore marks (one WRITE per contiguous run after merging).
        p.push(
            ring,
            OpBuild::new(Kind::Wait(WaitCond::Absolute {
                cq: tp.send_cq,
                count: send_base + resp_slots,
            }))
            .bump(resp_slots)
            .label("responses-executed wait"),
        );

        let lowered = p.deploy_with(sim, pool, opts, None)?.into_recycled();

        // The trigger-RECV ring: one scatter program per instance, posted
        // once and recycled by the NIC as the ring wraps.
        for sid in &scatter_ids {
            tp.post_trigger_recv(sim, pool, &lowered.scatter(*sid))?;
        }
        sim.set_rq_cyclic(tp.qp)?;

        // Claim the trigger point's CQs: they are created outside the IR
        // (so `collect` sees them as foreign), but this offload owns them
        // — two offloads sharing a trigger CQ is exactly the interference
        // the deployment verifier must flag.
        let mut footprint = lowered
            .footprint()
            .clone()
            .named(format!("hash-get({:?})@node{}", spec.variant, node.0));
        footprint.claim_cq(tp.recv_cq);
        footprint.claim_cq(tp.send_cq);

        Ok(HashGetOffload {
            tp,
            spec,
            window: InstanceWindow::recycled(
                spec.pipeline_depth,
                lowered.lp.queue.sq,
                lowered.lp.round_len,
            ),
            trigger_base,
            node,
            report: Some(lowered.report()),
            footprint: Some(footprint),
            backend: Backend::Recycled,
        })
    }

    /// Stage the chain for one future get request (host-armed mode only;
    /// self-recycling offloads are primed once at deploy). Instances
    /// trigger in arming order, one per client SEND. With
    /// `pipeline_depth > 1` the instance's response lands in its own
    /// client slot and carries the instance id as immediate data, so
    /// several instances can be armed (and in flight) at once; the host
    /// re-arms consumed instances as completions drain. SGE tables are
    /// memoized per ring-cycle position, so steady-state re-arms push no
    /// new bytes into the pool.
    pub fn arm(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<()> {
        let resp_depth = sim.wq_depth(sim.sq_of(self.tp.qp));
        let instance = self.window.armed();
        let resp_addr = self.response_slot(instance);
        let Backend::HostArmed {
            ref chains,
            ref ctrls,
            merge,
            ..
        } = self.backend
        else {
            return Err(Error::InvalidWr(
                "self-recycling offloads are primed once at deploy; arm() is host-armed only",
            ));
        };
        let trigger_count = self.trigger_base + instance + 1;
        let nbuckets = self.spec.variant.buckets();
        let seq_two = self.spec.variant == HashGetVariant::Sequential;
        let probes = if seq_two {
            2
        } else {
            nbuckets.min(chains.len())
        };

        // One linear IR program per instance: the response placeholder on
        // the trigger QP's managed SQ, the READ→CAS probe pairs on the
        // managed chain queues, and the WAIT/ENABLE doorbell ladders on
        // the unmanaged control/merge queues. Patch points (the READ's
        // scatter into the response WQE, the trigger RECV's injections)
        // stay symbolic; the verifier checks them against the §3.1 rule
        // on every arm.
        let mut p = crate::ir::IrProgram::linear();
        let resp_qid = p.chain(ChainQueue {
            qp: self.tp.qp,
            peer: self.tp.qp, // unused
            sq: sim.sq_of(self.tp.qp),
            cq: self.tp.send_cq,
            ring: self.tp.ring,
            managed: true,
            depth: resp_depth,
            node: self.node,
        });
        let chain_qids: Vec<_> = chains.iter().map(|q| p.chain(*q)).collect();
        let ctrl_qids: Vec<_> = ctrls.iter().map(|q| p.chain(*q)).collect();
        let merge_qid = p.chain(merge);

        let mut scatter_entries: Vec<SgeSpec> = Vec::new();
        let mut cas_ops = Vec::new();
        let mut resp_ops = Vec::new();
        for pr in 0..probes {
            let (chain_qid, ctrl_qid) = if seq_two {
                (chain_qids[0], ctrl_qids[0])
            } else {
                (
                    chain_qids[pr % chain_qids.len()],
                    ctrl_qids[pr % ctrl_qids.len()],
                )
            };
            // Response placeholder: NOOP carrying the WRITE_IMM response.
            // Its source address and id are patched by the bucket READ.
            // The immediate carries the instance id so pipelined clients
            // can match completions to requests.
            let resp = p.push(
                resp_qid,
                OpBuild::new(Kind::Write {
                    src: Loc::raw(0, self.spec.values.lkey()), // patched: bucket value ptr
                    len: self.spec.values.value_len,
                    dst: Loc::raw(resp_addr, self.spec.dest.rkey()),
                    imm: Some(instance as u32),
                })
                .signaled()
                .placeholder()
                .label("response slot"),
            );
            resp_ops.push(resp);

            // Bucket READ: one READ, two local scatter targets (the
            // resolved table bytes repeat every ring cycle and intern to
            // the same pool cell — steady-state arms push nothing).
            let table = p.const_sges(vec![
                SgeSpec {
                    target: Loc::field(resp, WqeField::LocalAddr),
                    len: 8,
                },
                SgeSpec {
                    target: Loc::field(resp, WqeField::Id),
                    len: 6,
                },
            ]);
            let read = p.push(
                chain_qid,
                OpBuild::new(Kind::ReadSgl {
                    table,
                    entries: 2,
                    src: Loc::raw(0, self.spec.table.rkey()), // patched: bucket addr
                })
                .signaled()
                .label("bucket READ"),
            );

            // The conditional CAS: compare patched with the client's key.
            let cas = p.push(
                chain_qid,
                OpBuild::new(Kind::Transmute {
                    target: resp,
                    y: 0,
                    into: Opcode::WriteImm,
                })
                .signaled()
                .label("key CAS"),
            );
            cas_ops.push(cas);

            // RECV scatter: bucket address -> READ.remote_addr,
            // key -> CAS.operand id bits.
            scatter_entries.push(SgeSpec {
                target: Loc::field(read, WqeField::RemoteAddr),
                len: 8,
            });
            scatter_entries.push(SgeSpec {
                target: Loc::field_off(cas, WqeField::Operand, 2),
                len: 6,
            });

            // Control chain: trigger -> READ -> CAS under doorbell order.
            p.push(
                ctrl_qid,
                OpBuild::new(Kind::Wait(WaitCond::Absolute {
                    cq: self.tp.recv_cq,
                    count: trigger_count,
                }))
                .label("trigger wait"),
            );
            p.push(
                ctrl_qid,
                OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(read))).label("READ release"),
            );
            p.push(
                ctrl_qid,
                OpBuild::new(Kind::Wait(WaitCond::OpDonePosted(read))).label("READ wait"),
            );
            p.push(
                ctrl_qid,
                OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(cas))).label("CAS release"),
            );
        }

        // Merge: release the response WQEs only after every probe's CAS
        // completed (prevents a fast probe from releasing a slow probe's
        // untransmuted response).
        for cas in &cas_ops {
            p.push(
                merge_qid,
                OpBuild::new(Kind::Wait(WaitCond::OpDonePosted(*cas))).label("probe-done wait"),
            );
        }
        let last_resp = *resp_ops.last().expect("at least one probe");
        p.push(
            merge_qid,
            OpBuild::new(Kind::Enable(EnableTarget::OpsThrough(last_resp)))
                .label("response release"),
        );
        // The trigger RECV's SGE table is a first-class program constant:
        // lowering resolves, encodes, and interns it like every other
        // table (steady-state arms reuse a cycle-old cell).
        let n_entries = scatter_entries.len() as u32;
        let trigger_table = p.const_sges(scatter_entries);
        let table_ref = p.const_ref(trigger_table);

        let Backend::HostArmed {
            ref mut interner, ..
        } = self.backend
        else {
            unreachable!("checked above");
        };
        let mut lowered = p
            .deploy_with(sim, pool, DeployOpts::default(), Some(interner))?
            .into_linear();
        // Post order: probe chains (quiet), control ladders (doorbell),
        // merge, then the response placeholders.
        for qid in &chain_qids {
            lowered.post(sim, *qid)?;
        }
        for qid in &ctrl_qids {
            lowered.post(sim, *qid)?;
        }
        lowered.post(sim, merge_qid)?;
        lowered.post(sim, resp_qid)?;

        self.tp
            .post_trigger_recv_prebuilt(sim, table_ref.addr(), n_entries)?;
        self.window.note_armed();
        Ok(())
    }

    /// Client payload for a get: `[bucket_addr ...][key 6B]` per probe —
    /// the scatter entries are laid out probe-major, so the payload is
    /// `[addr_0, key, addr_1, key]` for two probes.
    pub fn client_payload(&self, key: u64, bucket_addrs: &[u64]) -> Vec<u8> {
        let probes = if self.spec.variant == HashGetVariant::Single {
            1
        } else {
            2
        };
        assert_eq!(bucket_addrs.len(), probes, "one bucket address per probe");
        let mut p = Vec::new();
        for &addr in bucket_addrs {
            p.extend_from_slice(&addr.to_le_bytes());
            p.extend_from_slice(&operand48(key).to_le_bytes()[..6]);
        }
        p
    }

    /// The probe variant this offload was deployed with.
    pub fn variant(&self) -> HashGetVariant {
        self.spec.variant
    }
}

impl OffloadService for HashGetOffload {
    fn window(&self) -> &InstanceWindow {
        &self.window
    }

    fn window_mut(&mut self) -> &mut InstanceWindow {
        &mut self.window
    }

    fn arm(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<()> {
        HashGetOffload::arm(self, sim, pool)
    }

    /// Slots are `value_len.max(8)` bytes apart, matching a client
    /// response buffer of `pipeline_depth` values.
    fn response_slot(&self, instance: u64) -> u64 {
        self.spec.dest.addr + self.window.slot(instance) * self.spec.values.value_len.max(8) as u64
    }

    fn footprint(&self) -> Option<&Footprint> {
        self.footprint.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
    use rnic_sim::mem::Access;
    use rnic_sim::qp::QpConfig;
    use rnic_sim::wqe::WorkRequest;

    use crate::ctx::OffloadCtx;
    use rnic_sim::mem::MemoryRegion;

    struct Rig {
        sim: Simulator,
        client: NodeId,
        server: NodeId,
        table: u64,
        values: u64,
        tmr: MemoryRegion,
        vmr: MemoryRegion,
        rmr: MemoryRegion,
        resp: u64,
        cqp: rnic_sim::ids::QpId,
        crecv_cq: rnic_sim::ids::CqId,
        csrc: u64,
        csrc_lkey: u32,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(SimConfig::default());
        let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(client, server, LinkConfig::back_to_back());
        // Server: 8-bucket table + values.
        let table = sim.alloc(server, 8 * BUCKET_SIZE, 64).unwrap();
        let tmr = sim
            .register_mr(server, table, 8 * BUCKET_SIZE, Access::all())
            .unwrap();
        let values = sim.alloc(server, 8 * 64, 64).unwrap();
        let vmr = sim
            .register_mr(server, values, 8 * 64, Access::all())
            .unwrap();
        // Client: response buffer + send buffer.
        let resp = sim.alloc(client, 64, 8).unwrap();
        let rmr = sim.register_mr(client, resp, 64, Access::all()).unwrap();
        let csrc = sim.alloc(client, 64, 8).unwrap();
        let smr = sim.register_mr(client, csrc, 64, Access::all()).unwrap();
        let ccq = sim.create_cq(client, 64).unwrap();
        let crecv_cq = sim.create_cq(client, 64).unwrap();
        let cqp = sim
            .create_qp(client, QpConfig::new(ccq).recv_cq(crecv_cq))
            .unwrap();
        Rig {
            sim,
            client,
            server,
            table,
            values,
            tmr,
            vmr,
            rmr,
            resp,
            cqp,
            crecv_cq,
            csrc,
            csrc_lkey: smr.lkey,
        }
    }

    fn fill_bucket(r: &mut Rig, idx: u64, key: u64, value: u64) {
        let vaddr = r.values + idx * 64;
        r.sim.mem_write_u64(r.server, vaddr, value).unwrap();
        let b = encode_bucket(vaddr, key);
        r.sim
            .mem_write(r.server, r.table + idx * BUCKET_SIZE, &b)
            .unwrap();
    }

    fn do_get(
        r: &mut Rig,
        off: &mut HashGetOffload,
        pool: &mut ConstPool,
        key: u64,
        buckets: &[u64],
    ) -> Option<u64> {
        off.arm(&mut r.sim, pool).unwrap();
        // Client posts a RECV for the response completion (WRITE_IMM).
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = off.client_payload(key, buckets);
        r.sim.mem_write(r.client, r.csrc, &payload).unwrap();
        r.sim
            .post_send(
                r.cqp,
                WorkRequest::send(r.csrc, r.csrc_lkey, payload.len() as u32),
            )
            .unwrap();
        r.sim.run().unwrap();
        let cqes = r.sim.poll_cq(r.crecv_cq, 8);
        if cqes.is_empty() {
            None
        } else {
            Some(r.sim.mem_read_u64(r.client, r.resp).unwrap())
        }
    }

    /// Deploy through the fluent API — the construction path everything
    /// outside this module uses.
    fn deploy(r: &mut Rig, variant: HashGetVariant) -> HashGetOffload {
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        ctx.hash_get()
            .table(crate::ctx::TableRegion::of(&r.tmr))
            .values(crate::ctx::ValueSource::of(&r.vmr, 8))
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .variant(variant)
            .build(&mut r.sim)
            .unwrap()
    }

    #[test]
    fn single_bucket_hit_returns_value() {
        let mut r = rig();
        fill_bucket(&mut r, 3, 0xFACE, 0x1111_2222);
        let mut off = deploy(&mut r, HashGetVariant::Single);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 16, ProcessId(0)).unwrap();
        let b3 = r.table + 3 * BUCKET_SIZE;
        let got = do_get(&mut r, &mut off, &mut pool, 0xFACE, &[b3]);
        assert_eq!(got, Some(0x1111_2222));
        assert_eq!(off.window().armed(), 1);
    }

    #[test]
    fn single_bucket_miss_returns_nothing() {
        let mut r = rig();
        fill_bucket(&mut r, 3, 0xFACE, 0x1111_2222);
        let mut off = deploy(&mut r, HashGetVariant::Single);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 16, ProcessId(0)).unwrap();
        let b3 = r.table + 3 * BUCKET_SIZE;
        // Wrong key: the CAS fails, the response stays a NOOP, the client
        // sees no completion.
        let got = do_get(&mut r, &mut off, &mut pool, 0xBEEF, &[b3]);
        assert_eq!(got, None);
    }

    #[test]
    fn sequential_two_buckets_finds_second() {
        let mut r = rig();
        fill_bucket(&mut r, 1, 0xAAAA, 0x11);
        fill_bucket(&mut r, 5, 0xFACE, 0x5555);
        let mut off = deploy(&mut r, HashGetVariant::Sequential);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 16, ProcessId(0)).unwrap();
        let (b1, b5) = (r.table + BUCKET_SIZE, r.table + 5 * BUCKET_SIZE);
        let got = do_get(&mut r, &mut off, &mut pool, 0xFACE, &[b1, b5]);
        assert_eq!(got, Some(0x5555));
    }

    #[test]
    fn parallel_two_buckets_finds_first() {
        let mut r = rig();
        fill_bucket(&mut r, 2, 0xFACE, 0x7777);
        fill_bucket(&mut r, 6, 0xBBBB, 0x88);
        let mut off = deploy(&mut r, HashGetVariant::Parallel);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 16, ProcessId(0)).unwrap();
        let (b2, b6) = (r.table + 2 * BUCKET_SIZE, r.table + 6 * BUCKET_SIZE);
        let got = do_get(&mut r, &mut off, &mut pool, 0xFACE, &[b2, b6]);
        assert_eq!(got, Some(0x7777));
    }

    #[test]
    fn repeated_gets_reuse_the_offload() {
        let mut r = rig();
        fill_bucket(&mut r, 0, 111, 0xA0);
        fill_bucket(&mut r, 1, 222, 0xB0);
        let mut off = deploy(&mut r, HashGetVariant::Single);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let (b0, b1) = (r.table, r.table + BUCKET_SIZE);
        let got1 = do_get(&mut r, &mut off, &mut pool, 111, &[b0]);
        assert_eq!(got1, Some(0xA0));
        let got2 = do_get(&mut r, &mut off, &mut pool, 222, &[b1]);
        assert_eq!(got2, Some(0xB0));
        assert_eq!(off.window().armed(), 2);
    }

    #[test]
    fn pipelined_instances_land_in_distinct_slots() {
        let mut r = rig();
        for i in 0..4u64 {
            fill_bucket(&mut r, i, 100 + i, 0xA0 + i);
        }
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let mut off = ctx
            .hash_get()
            .table(crate::ctx::TableRegion::of(&r.tmr))
            .values(crate::ctx::ValueSource::of(&r.vmr, 8))
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .variant(HashGetVariant::Single)
            .pipeline_depth(4)
            .build(&mut r.sim)
            .unwrap();
        assert_eq!(off.pipeline_depth(), 4);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        for _ in 0..4 {
            off.arm(&mut r.sim, &mut pool).unwrap();
        }
        assert_eq!(off.window().available(), 4);
        // Four gets posted back-to-back *before* the simulator runs: the
        // pipelined case the synchronous do_get helper can never produce.
        for i in 0..4u64 {
            assert_eq!(off.window_mut().take().unwrap(), i);
            r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
            let payload = off.client_payload(100 + i, &[r.table + i * BUCKET_SIZE]);
            let src = r.csrc + i * 16;
            r.sim.mem_write(r.client, src, &payload).unwrap();
            r.sim
                .post_send(
                    r.cqp,
                    WorkRequest::send(src, r.csrc_lkey, payload.len() as u32),
                )
                .unwrap();
        }
        assert_eq!(off.window().available(), 0);
        assert!(off.window_mut().take().is_err());
        r.sim.run().unwrap();
        let cqes = r.sim.poll_cq(r.crecv_cq, 8);
        assert_eq!(cqes.len(), 4, "all four pipelined responses complete");
        let imms: Vec<u32> = cqes.iter().map(|c| c.imm.expect("instance id")).collect();
        for i in 0..4u64 {
            assert!(imms.contains(&(i as u32)), "instance {i} reported");
            assert_eq!(
                r.sim.mem_read_u64(r.client, off.response_slot(i)).unwrap(),
                0xA0 + i,
                "instance {i} value in its own slot"
            );
        }
    }

    #[test]
    fn rejects_zero_pipeline_depth() {
        let mut r = rig();
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let err = ctx
            .hash_get()
            .table(crate::ctx::TableRegion::of(&r.tmr))
            .values(crate::ctx::ValueSource::of(&r.vmr, 8))
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .pipeline_depth(0)
            .build(&mut r.sim);
        let err = match err {
            Err(e) => e,
            Ok(_) => panic!("pipeline_depth 0 must be rejected"),
        };
        assert!(format!("{err}").contains("pipeline_depth"));
    }

    /// Deploy a self-recycling offload with `depth` instance slots.
    fn deploy_recycled(
        r: &mut Rig,
        variant: HashGetVariant,
        depth: u32,
        pool: &mut ConstPool,
    ) -> HashGetOffload {
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        ctx.hash_get()
            .table(crate::ctx::TableRegion::of(&r.tmr))
            .values(crate::ctx::ValueSource::of(&r.vmr, 8))
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .variant(variant)
            .pipeline_depth(depth)
            .build_recycled(&mut r.sim, pool)
            .unwrap()
    }

    /// One synchronous get through a recycled offload (no arm call).
    fn do_get_recycled(
        r: &mut Rig,
        off: &mut HashGetOffload,
        key: u64,
        buckets: &[u64],
    ) -> Option<u64> {
        let instance = off.window_mut().take().unwrap();
        r.sim.post_recv(r.cqp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = off.client_payload(key, buckets);
        r.sim.mem_write(r.client, r.csrc, &payload).unwrap();
        r.sim
            .post_send(
                r.cqp,
                WorkRequest::send(r.csrc, r.csrc_lkey, payload.len() as u32),
            )
            .unwrap();
        r.sim.run().unwrap();
        let cqes = r.sim.poll_cq(r.crecv_cq, 8);
        off.window_mut().retire();
        match cqes.first() {
            None => None,
            Some(cqe) => {
                assert_eq!(
                    cqe.imm,
                    Some(off.window().tag(instance)),
                    "response immediate must be the slot-stable tag"
                );
                let slot = off.response_slot(instance);
                Some(r.sim.mem_read_u64(r.client, slot).unwrap())
            }
        }
    }

    #[test]
    fn recycled_single_serves_across_rounds_with_stable_slots() {
        let mut r = rig();
        for i in 0..8u64 {
            fill_bucket(&mut r, i, 100 + i, 0xA0 + i);
        }
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, HashGetVariant::Single, 2, &mut pool);
        assert!(off.window().is_recycled());
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        // 8 gets through 2 slots = 4 recycle rounds, zero host re-arms and
        // zero pool churn after the prime.
        let pool_used = pool.used();
        let table = r.table;
        for g in 0..8u64 {
            let key = 100 + g % 8;
            let b = table + (g % 8) * BUCKET_SIZE;
            let got = do_get_recycled(&mut r, &mut off, key, &[b]);
            assert_eq!(got, Some(0xA0 + g % 8), "get {g}");
        }
        assert_eq!(pool.used(), pool_used, "steady state pushes no pool bytes");
        let rounds = off.window().rounds(&r.sim);
        assert!(rounds >= 3, "rounds {rounds}");
    }

    #[test]
    fn recycled_sequential_probes_both_buckets() {
        let mut r = rig();
        fill_bucket(&mut r, 1, 0xAAAA, 0x11);
        fill_bucket(&mut r, 5, 0xFACE, 0x5555);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, HashGetVariant::Sequential, 2, &mut pool);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let (b1, b5) = (r.table + BUCKET_SIZE, r.table + 5 * BUCKET_SIZE);
        // Second-bucket hit, first-bucket hit, and again across a round
        // boundary.
        assert_eq!(
            do_get_recycled(&mut r, &mut off, 0xFACE, &[b1, b5]),
            Some(0x5555)
        );
        assert_eq!(
            do_get_recycled(&mut r, &mut off, 0xAAAA, &[b1, b5]),
            Some(0x11)
        );
        assert_eq!(
            do_get_recycled(&mut r, &mut off, 0xFACE, &[b1, b5]),
            Some(0x5555)
        );
    }

    #[test]
    fn recycled_miss_does_not_poison_next_round() {
        let mut r = rig();
        fill_bucket(&mut r, 3, 0xFACE, 0x7777);
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, HashGetVariant::Single, 1, &mut pool);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let b3 = r.table + 3 * BUCKET_SIZE;
        // Round 0: miss (CAS fails, response stays NOOP, no completion).
        assert_eq!(do_get_recycled(&mut r, &mut off, 0xBEEF, &[b3]), None);
        // Rounds 1..3: hits — the restore chain re-armed the response slot.
        for _ in 0..3 {
            assert_eq!(
                do_get_recycled(&mut r, &mut off, 0xFACE, &[b3]),
                Some(0x7777)
            );
        }
        // And a miss again, still clean.
        assert_eq!(do_get_recycled(&mut r, &mut off, 0x1234, &[b3]), None);
    }

    #[test]
    fn recycled_wait_thresholds_stay_absolute_and_monotonic() {
        // The §3.4 fix-up invariant, observed directly in ring memory: the
        // trigger WAIT of instance 0 advances by exactly K per round and
        // never resets.
        let mut r = rig();
        for i in 0..4u64 {
            fill_bucket(&mut r, i, 100 + i, 0xB0 + i);
        }
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, HashGetVariant::Single, 2, &mut pool);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let ring = off
            .footprint()
            .expect("recycled offloads publish a footprint")
            .rings
            .iter()
            .find(|span| span.what == "recycled ring")
            .expect("the probe ring")
            .addr;
        // Slot 2 is instance 0's trigger WAIT (after the two head FADDs).
        let wait_operand = ring + 2 * rnic_sim::wqe::WQE_SIZE + WqeField::Operand.offset();
        let before = r.sim.mem_read_u64(r.server, wait_operand).unwrap();
        let rounds = 3u64;
        let table = r.table;
        for g in 0..(2 * rounds) {
            let i = g % 4;
            let got = do_get_recycled(&mut r, &mut off, 100 + i, &[table + i * BUCKET_SIZE]);
            assert_eq!(got, Some(0xB0 + i));
        }
        let after = r.sim.mem_read_u64(r.server, wait_operand).unwrap();
        assert_eq!(
            after,
            before + 2 * rounds,
            "trigger WAIT advances by K per round, monotonically"
        );
    }

    #[test]
    fn recycled_steady_state_needs_no_host_doorbells_or_posts() {
        let mut r = rig();
        for i in 0..4u64 {
            fill_bucket(&mut r, i, 100 + i, 0xC0 + i);
        }
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let mut off = deploy_recycled(&mut r, HashGetVariant::Single, 2, &mut pool);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        // Warm up one full round, then measure.
        let table = r.table;
        for i in 0..2u64 {
            do_get_recycled(&mut r, &mut off, 100 + i, &[table + i * BUCKET_SIZE]).unwrap();
        }
        let doorbells = r.sim.node_doorbells(r.server);
        let posts = r.sim.node_posts(r.server);
        for g in 0..6u64 {
            let i = g % 4;
            do_get_recycled(&mut r, &mut off, 100 + i, &[table + i * BUCKET_SIZE]).unwrap();
        }
        assert_eq!(
            r.sim.node_doorbells(r.server),
            doorbells,
            "the server CPU rings no doorbells in steady state"
        );
        assert_eq!(
            r.sim.node_posts(r.server),
            posts,
            "the server CPU posts no WQEs in steady state"
        );
    }

    #[test]
    fn recycled_rejects_parallel_and_arm() {
        let mut r = rig();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 18, ProcessId(0)).unwrap();
        let ctx = OffloadCtx::builder(r.server).build(&mut r.sim).unwrap();
        let err = ctx
            .hash_get()
            .table(crate::ctx::TableRegion::of(&r.tmr))
            .values(crate::ctx::ValueSource::of(&r.vmr, 8))
            .respond_to(crate::ctx::ClientDest::of(&r.rmr))
            .variant(HashGetVariant::Parallel)
            .build_recycled(&mut r.sim, &mut pool);
        let err = match err {
            Err(e) => e,
            Ok(_) => panic!("parallel must be rejected in recycling mode"),
        };
        assert!(format!("{err}").contains("Sequential"));
        let mut off = deploy_recycled(&mut r, HashGetVariant::Single, 2, &mut pool);
        assert!(off.arm(&mut r.sim, &mut pool).is_err(), "arm is host-only");
    }

    #[test]
    fn host_armed_pool_usage_flattens_after_one_cycle() {
        // The re-arm churn fix: once every ring has wrapped, arm() reuses
        // the SGE tables staged on the first pass.
        let mut r = rig();
        fill_bucket(&mut r, 0, 7, 0xD0);
        let mut off = deploy(&mut r, HashGetVariant::Single);
        r.sim.connect_qps(r.cqp, off.tp.qp).unwrap();
        let mut pool = ConstPool::create(&mut r.sim, r.server, 1 << 22, ProcessId(0)).unwrap();
        // One full cycle of arm+get round trips fills the cache (the
        // response ring is 1024 deep with one WQE per instance)...
        let cycle = 1024usize;
        let b0 = r.table;
        for _ in 0..cycle {
            assert_eq!(do_get(&mut r, &mut off, &mut pool, 7, &[b0]), Some(0xD0));
        }
        let used = pool.used();
        // ...after which arming pushes nothing.
        for _ in 0..48 {
            assert_eq!(do_get(&mut r, &mut off, &mut pool, 7, &[b0]), Some(0xD0));
        }
        assert_eq!(pool.used(), used, "steady-state arms push no pool bytes");
    }

    #[test]
    fn bucket_encoding_layout() {
        let b = encode_bucket(0xDEAD_BEEF, 0x1234_5678_9ABC);
        assert_eq!(u64::from_le_bytes(b[0..8].try_into().unwrap()), 0xDEAD_BEEF);
        let mut k = [0u8; 8];
        k[..6].copy_from_slice(&b[8..14]);
        assert_eq!(u64::from_le_bytes(k), 0x1234_5678_9ABC);
    }
}
