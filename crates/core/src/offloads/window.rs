//! [`InstanceWindow`] — the host side of the serving contract every
//! offload family shares (§3.4).
//!
//! A client SEND consumes the next armed instance of an offload, and the
//! instance's response carries a slot tag. Everything the host does per
//! request is accounting: claim an instance before posting
//! ([`InstanceWindow::take`]) and retire one when its response is reaped
//! ([`InstanceWindow::retire`]). Hash-get, list-walk and replication
//! offloads each hold one window; they differ only in how instances come
//! to exist:
//!
//! * **host-armed** — every instance is staged by one host `arm` call. A
//!   claimed instance is consumed for good, so `available` is armed minus
//!   claimed and retiring is a no-op (the replacement comes from `arm`).
//! * **recycled** — one ring of `depth` instances re-arms itself on the
//!   NIC every round, so `available` is `depth` minus the instances in
//!   flight, and responses carry the ring slot instead of the instance id.
//!
//! Instance ids start at `base`: 0 for gets and walks, the recovered
//! record count for a replication chain rebuilt after failover (whose
//! instance `i` appends journal slot `i`).

use rnic_sim::error::{Error, Result};
use rnic_sim::ids::WqId;
use rnic_sim::sim::Simulator;

/// Claim/retire accounting for one deployed offload (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceWindow {
    /// Instances a client may keep in flight (the pipeline depth).
    depth: u32,
    /// Id of the first instance.
    base: u64,
    /// Instances handed out by [`InstanceWindow::take`].
    claimed: u64,
    /// Instances retired by [`InstanceWindow::retire`] (never above
    /// `claimed`; always 0 when host-armed).
    retired: u64,
    arming: Arming,
}

/// How armed instances come to exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arming {
    /// Instances staged by host `arm` calls so far.
    Host { armed: u64 },
    /// The self-recycling ring's SQ and its WQEs per round.
    Recycled { ring: WqId, round_len: u64 },
}

impl InstanceWindow {
    /// A window whose instances are staged one host `arm` call at a time
    /// (none armed yet).
    pub fn host_armed(depth: u32) -> InstanceWindow {
        InstanceWindow::new(depth, Arming::Host { armed: 0 })
    }

    /// A window over a self-recycling ring: `depth` instances re-armed
    /// by the NIC every `round_len` WQEs executed on `ring`.
    pub fn recycled(depth: u32, ring: WqId, round_len: u64) -> InstanceWindow {
        InstanceWindow::new(depth, Arming::Recycled { ring, round_len })
    }

    fn new(depth: u32, arming: Arming) -> InstanceWindow {
        InstanceWindow {
            depth,
            base: 0,
            claimed: 0,
            retired: 0,
            arming,
        }
    }

    /// The same window with instance ids starting at `base`.
    pub fn starting_at(self, base: u64) -> InstanceWindow {
        InstanceWindow { base, ..self }
    }

    /// Instances a client may keep in flight (1 = the synchronous path).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Whether the NIC re-arms instances itself (§3.4 WQ recycling)
    /// rather than the host through `arm` calls.
    pub fn is_recycled(&self) -> bool {
        matches!(self.arming, Arming::Recycled { .. })
    }

    /// Instances armed so far. A recycled window re-arms itself, so its
    /// horizon is always claimed + available.
    pub fn armed(&self) -> u64 {
        match self.arming {
            Arming::Host { armed } => armed,
            Arming::Recycled { .. } => self.claimed + self.available(),
        }
    }

    /// Armed instances not yet claimed.
    pub fn available(&self) -> u64 {
        match self.arming {
            Arming::Host { armed } => armed - self.claimed,
            Arming::Recycled { .. } => u64::from(self.depth) - self.in_flight(),
        }
    }

    /// Claimed instances not yet retired (every claimed instance, when
    /// host-armed).
    pub fn in_flight(&self) -> u64 {
        self.claimed - self.retired
    }

    /// Claim the next armed instance for a request about to be posted.
    /// Trigger RECVs are consumed in arming order, so the k-th client
    /// SEND consumes instance `base + k`. Errors, changing nothing, when
    /// no armed instance is free (host-armed callers `arm` first;
    /// recycled callers retire a reaped instance first).
    pub fn take(&mut self) -> Result<u64> {
        if self.available() == 0 {
            return Err(Error::InvalidWr(
                "no armed offload instance available (arm, or retire a reaped one, first)",
            ));
        }
        let instance = self.base + self.claimed;
        self.claimed += 1;
        Ok(instance)
    }

    /// Retire one in-flight instance: its response was reaped (or the
    /// request abandoned). Frees a ring slot of a recycled window — the
    /// NIC already re-armed it; a no-op when host-armed. Never retires
    /// more than were claimed.
    pub fn retire(&mut self) {
        if self.is_recycled() {
            self.retired = (self.retired + 1).min(self.claimed);
        }
    }

    /// Count one more instance staged by a host `arm` call.
    pub(crate) fn note_armed(&mut self) {
        if let Arming::Host { armed } = &mut self.arming {
            *armed += 1;
        }
    }

    /// Window slot of `instance`: its client request/response slot and,
    /// when recycled, its ring slot.
    pub fn slot(&self, instance: u64) -> u64 {
        (instance - self.base) % u64::from(self.depth)
    }

    /// The immediate `instance`'s response carries: the instance id when
    /// host-armed, its slot when recycled (slot images are restored
    /// verbatim every round, so the tag is slot-stable).
    pub fn tag(&self, instance: u64) -> u32 {
        match self.arming {
            Arming::Host { .. } => instance as u32,
            Arming::Recycled { .. } => self.slot(instance) as u32,
        }
    }

    /// Recycle rounds the ring has completed (0 when host-armed).
    pub fn rounds(&self, sim: &Simulator) -> u64 {
        match self.arming {
            Arming::Host { .. } => 0,
            Arming::Recycled { ring, round_len } => sim.wq_executed(ring) / round_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Longest take/retire(/arm) sequence explored.
    const MAX_LEN: usize = 10;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Take,
        Retire,
        Arm,
    }

    fn check_invariants(w: &InstanceWindow, path: &[Op]) {
        assert!(
            w.retired <= w.claimed,
            "retired past claimed after {path:?}"
        );
        let capacity = if w.is_recycled() {
            u64::from(w.depth)
        } else {
            w.armed()
        };
        assert_eq!(w.in_flight() + w.available(), capacity, "after {path:?}");
        // Retirement is FIFO, so the in-flight instances are the newest
        // `in_flight` claims; their tags must be pairwise distinct.
        let live = w.base + w.retired..w.base + w.claimed;
        let mut tags: Vec<u32> = live.clone().map(|i| w.tag(i)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len() as u64, w.in_flight(), "tag clash after {path:?}");
        for i in live {
            assert!(w.slot(i) < u64::from(w.depth), "slot range after {path:?}");
        }
    }

    /// Depth-first over every op sequence up to `MAX_LEN`, checking the
    /// invariants after each step.
    fn explore(w: InstanceWindow, ops: &[Op], path: &mut Vec<Op>) {
        check_invariants(&w, path);
        if path.len() == MAX_LEN {
            return;
        }
        for &op in ops {
            let mut next = w;
            match op {
                Op::Take => {
                    let before = next;
                    match next.take() {
                        Ok(instance) => {
                            assert_eq!(instance, before.base + before.claimed);
                            assert_eq!(next.claimed, before.claimed + 1);
                        }
                        Err(_) => {
                            assert_eq!(before.available(), 0, "spurious Err after {path:?}");
                            assert_eq!(next, before, "failed take changed state");
                        }
                    }
                }
                Op::Retire => {
                    let before = next;
                    next.retire();
                    if !before.is_recycled() {
                        assert_eq!(next, before, "host-armed retire is a no-op");
                    }
                }
                Op::Arm => next.note_armed(),
            }
            path.push(op);
            explore(next, ops, path);
            path.pop();
        }
    }

    #[test]
    fn every_short_claim_retire_sequence_keeps_the_window_consistent() {
        for depth in 1..=4u32 {
            for base in [0u64, 5] {
                let recycled = InstanceWindow::recycled(depth, WqId(7), 3).starting_at(base);
                explore(recycled, &[Op::Take, Op::Retire], &mut Vec::new());
                // Host-armed: arming is a third move (a fresh window has
                // nothing to take).
                let host = InstanceWindow::host_armed(depth).starting_at(base);
                explore(host, &[Op::Take, Op::Retire, Op::Arm], &mut Vec::new());
            }
        }
    }

    #[test]
    fn tags_and_slots_follow_the_arming_mode() {
        let host = InstanceWindow::host_armed(4);
        assert_eq!((host.tag(9), host.slot(9)), (9, 1));
        let repl = InstanceWindow::recycled(4, WqId(0), 1).starting_at(5);
        assert_eq!((repl.tag(9), repl.slot(9)), (0, 0));
        assert_eq!((repl.tag(10), repl.slot(10)), (1, 1));
    }
}
