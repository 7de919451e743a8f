//! Staged construction of WR chains.
//!
//! A [`ChainBuilder`] stages work requests for one queue, hands back
//! [`Staged`] handles that know the *future* ring address of every WQE (so
//! other verbs can be aimed at their fields before anything is posted),
//! and finally posts the whole chain with a single doorbell.
//!
//! It also keeps the Table 2 verb accounting (`C` copy / `A` atomic /
//! `E` ordering) and the running count of signaled WRs, which WAIT verbs
//! need to compute their completion thresholds.

use rnic_sim::error::Result;
use rnic_sim::ids::CqId;
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::VerbClass;
use rnic_sim::wqe::WorkRequest;

use crate::encode::WqeField;
use crate::program::ChainQueue;

/// Handle to a staged WQE: its monotonic index and ring slot address.
#[derive(Clone, Copy, Debug)]
pub struct Staged {
    /// Monotonic WQE index in the queue.
    pub index: u64,
    /// Ring slot address in host memory.
    pub slot: u64,
    /// The queue it belongs to.
    pub queue: ChainQueue,
}

impl Staged {
    /// Address of one of this WQE's fields — a patch point.
    pub fn addr(&self, field: WqeField) -> u64 {
        self.slot + field.offset()
    }
}

/// Verb-class accounting, as in the paper's Table 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerbCounts {
    /// Copy verbs (READ/WRITE/SEND/RECV/NOOP).
    pub copies: usize,
    /// Atomic verbs (CAS/ADD/MAX/MIN).
    pub atomics: usize,
    /// Ordering verbs (WAIT/ENABLE).
    pub ordering: usize,
}

impl VerbCounts {
    /// Total staged verbs.
    pub fn total(&self) -> usize {
        self.copies + self.atomics + self.ordering
    }

    /// Merge two counts.
    pub fn merge(&self, other: &VerbCounts) -> VerbCounts {
        VerbCounts {
            copies: self.copies + other.copies,
            atomics: self.atomics + other.atomics,
            ordering: self.ordering + other.ordering,
        }
    }
}

/// A batch of WRs staged for one queue.
pub struct ChainBuilder {
    queue: ChainQueue,
    base_index: u64,
    cq_base: u64,
    wrs: Vec<WorkRequest>,
    signaled: u64,
    counts: VerbCounts,
}

impl ChainBuilder {
    /// Start staging onto `queue`. Captures the queue's current posted
    /// index and its CQ's completion count, so WAIT thresholds computed by
    /// [`ChainBuilder::next_wait_count`] stay correct when queues are
    /// reused across offload instances.
    pub fn new(sim: &Simulator, queue: ChainQueue) -> ChainBuilder {
        ChainBuilder {
            queue,
            base_index: sim.sq_posted(queue.qp),
            cq_base: sim.cq_total(queue.cq),
            wrs: Vec::new(),
            signaled: 0,
            counts: VerbCounts::default(),
        }
    }

    /// The queue being staged onto.
    pub fn queue(&self) -> ChainQueue {
        self.queue
    }

    /// Stage a work request; returns its handle.
    pub fn stage(&mut self, wr: WorkRequest) -> Staged {
        let index = self.base_index + self.wrs.len() as u64;
        if wr.wqe.signaled() {
            self.signaled += 1;
        }
        match wr.wqe.opcode.class() {
            VerbClass::Copy => self.counts.copies += 1,
            VerbClass::Atomic => self.counts.atomics += 1,
            VerbClass::Ordering => self.counts.ordering += 1,
        }
        self.wrs.push(wr);
        Staged {
            index,
            slot: self.queue.slot_addr(index),
            queue: self.queue,
        }
    }

    /// The CQ threshold a WAIT should use to wait for *all signaled WRs
    /// staged so far on this queue's CQ* (completion count is absolute and
    /// monotonic — §3.4's wqe_count semantics).
    pub fn next_wait_count(&self) -> u64 {
        self.cq_base + self.signaled
    }

    /// The CQ this builder's signaled WRs complete on.
    pub fn cq(&self) -> CqId {
        self.queue.cq
    }

    /// Index the next staged WR will get.
    pub fn next_index(&self) -> u64 {
        self.base_index + self.wrs.len() as u64
    }

    /// Number of WRs staged.
    pub fn len(&self) -> usize {
        self.wrs.len()
    }

    /// Whether nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.wrs.is_empty()
    }

    /// Signaled WRs staged.
    pub fn signaled_count(&self) -> u64 {
        self.signaled
    }

    /// Table 2 accounting of the staged chain.
    pub fn counts(&self) -> VerbCounts {
        self.counts
    }

    /// Post everything. Unmanaged queues get one doorbell; managed queues
    /// stay quiet until ENABLEd (by a verb or [`Simulator::host_enable`]).
    pub fn post(self, sim: &mut Simulator) -> Result<Vec<Staged>> {
        let mut handles = Vec::with_capacity(self.wrs.len());
        for (i, wr) in self.wrs.iter().enumerate() {
            let index = self.base_index + i as u64;
            sim.post_send_quiet(self.queue.qp, *wr)?;
            handles.push(Staged {
                index,
                slot: self.queue.slot_addr(index),
                queue: self.queue,
            });
        }
        if !self.queue.managed && !handles.is_empty() {
            sim.ring_doorbell(self.queue.qp)?;
        }
        Ok(handles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_sim::config::{HostConfig, NicConfig, SimConfig};
    use rnic_sim::ids::ProcessId;
    use rnic_sim::mem::Access;
    use rnic_sim::verbs::Opcode;

    fn setup() -> (Simulator, ChainQueue) {
        let mut sim = Simulator::new(SimConfig::default());
        let n = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
        let q = crate::ctx::ChainQueueBuilder::new(n, ProcessId(0))
            .depth(32)
            .build(&mut sim)
            .unwrap();
        (sim, q)
    }

    #[test]
    fn staged_indices_and_addresses() {
        let (sim, q) = setup();
        let mut b = ChainBuilder::new(&sim, q);
        let s0 = b.stage(WorkRequest::noop());
        let s1 = b.stage(WorkRequest::noop().signaled());
        assert_eq!(s0.index, 0);
        assert_eq!(s1.index, 1);
        assert_eq!(s1.slot - s0.slot, 64);
        assert_eq!(s1.addr(WqeField::Operand), s1.slot + 48);
        assert_eq!(b.signaled_count(), 1);
        assert_eq!(b.next_wait_count(), 1);
        assert_eq!(b.next_index(), 2);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn counts_follow_table2_classes() {
        let (sim, q) = setup();
        let mut b = ChainBuilder::new(&sim, q);
        b.stage(WorkRequest::noop());
        b.stage(WorkRequest::cas(0x1000, 1, 0, 0, 0, 0));
        b.stage(WorkRequest::wait(q.cq, 1));
        b.stage(WorkRequest::enable(q.sq, 1));
        b.stage(WorkRequest::write(0, 0, 0, 0x1000, 1));
        let c = b.counts();
        assert_eq!(c.copies, 2);
        assert_eq!(c.atomics, 1);
        assert_eq!(c.ordering, 2);
        assert_eq!(c.total(), 5);
        let merged = c.merge(&c);
        assert_eq!(merged.total(), 10);
    }

    #[test]
    fn post_executes_chain_on_unmanaged_queue() {
        let (mut sim, q) = setup();
        let n = q.node;
        let buf = sim.alloc(n, 16, 8).unwrap();
        let mr = sim.register_mr(n, buf, 16, Access::all()).unwrap();
        sim.mem_write_u64(n, buf, 0x55).unwrap();
        let mut b = ChainBuilder::new(&sim, q);
        b.stage(WorkRequest::write(buf, mr.lkey, 8, buf + 8, mr.rkey));
        let handles = b.post(&mut sim).unwrap();
        assert_eq!(handles.len(), 1);
        sim.run().unwrap();
        assert_eq!(sim.mem_read_u64(n, buf + 8).unwrap(), 0x55);
    }

    #[test]
    fn builder_tracks_reused_queue_state() {
        let (mut sim, q) = setup();
        // First chain: two signaled noops.
        let mut b = ChainBuilder::new(&sim, q);
        b.stage(WorkRequest::noop().signaled());
        b.stage(WorkRequest::noop().signaled());
        b.post(&mut sim).unwrap();
        sim.run().unwrap();
        // Second builder on the same queue starts where the first ended.
        let b2 = ChainBuilder::new(&sim, q);
        assert_eq!(b2.next_index(), 2);
        assert_eq!(b2.next_wait_count(), sim.cq_total(q.cq));
    }

    #[test]
    fn opcode_class_sanity() {
        assert_eq!(Opcode::Read.class(), VerbClass::Copy);
        assert_eq!(Opcode::Min.class(), VerbClass::Atomic);
        assert_eq!(Opcode::Wait.class(), VerbClass::Ordering);
    }
}
