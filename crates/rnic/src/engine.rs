//! The discrete-event core: a deterministic event queue and FIFO resource
//! models.
//!
//! Determinism is a hard requirement — benchmarks must be reproducible run
//! to run — so events are ordered by `(time, sequence_number)` with the
//! sequence number assigned at scheduling time. No wall-clock, no hashing
//! order, no thread interleaving.
//!
//! The queue is a **hierarchical timing wheel**, not a binary heap: events
//! within the near horizon land in unsorted per-tick buckets (sorted only
//! when their bucket drains — O(1) schedule, cache-friendly drain) and
//! far-future events sit in a sorted overflow level that cascades into the
//! wheel as the cursor approaches. See DESIGN.md "Event engine".

use crate::cq::Cqe;
use crate::ids::{CqId, QpId, WqId};
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Core simulator events. Host-side application logic is expressed through
/// `Callback` events whose closures live in the simulator's callback slab.
#[derive(Debug)]
pub enum EventKind {
    /// Try to make progress on a send queue (fetch/issue the next WQE).
    WqAdvance {
        /// Queue to advance.
        wq: WqId,
    },
    /// A WQE fetch DMA finished; the snapshot is taken when this fires.
    FetchDone {
        /// Queue that fetched.
        wq: WqId,
        /// Monotonic WQE index fetched.
        idx: u64,
        /// Whether it was a serialized managed fetch.
        managed: bool,
        /// How many WQEs this DMA covered (prefetch batch).
        batch: u64,
    },
    /// A PU finished issuing a WQE; data-path effects get scheduled.
    IssueDone {
        /// Queue that issued.
        wq: WqId,
        /// Monotonic WQE index issued.
        idx: u64,
    },
    /// A request message arrives at the responder QP.
    Arrive {
        /// Responder QP.
        qp: QpId,
        /// Message payload/metadata index in the in-flight table.
        msg: u64,
    },
    /// The initiator observes the completion of a WQE.
    Complete {
        /// Initiating queue.
        wq: WqId,
        /// Monotonic WQE index.
        idx: u64,
        /// In-flight table index carrying status/result.
        msg: u64,
    },
    /// A delayed CQE push (receive-side completions pay `t_cqe` before
    /// they become observable; the entry rides in the event itself so the
    /// hot path allocates nothing).
    PushCqe {
        /// Destination CQ.
        cq: CqId,
        /// The entry to push.
        cqe: Cqe,
    },
    /// A host-side callback (application logic, timers, workload
    /// generators, crash injection).
    Callback {
        /// Slab key of the boxed closure.
        key: u64,
    },
    /// Deliver queued CQ-listener notifications for a node's CQ.
    Notify {
        /// CQ listener slab key.
        key: u64,
    },
}

/// An event with its firing time and tie-breaking sequence number.
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Scheduling order tie-breaker (earlier-scheduled fires first).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Near-horizon bucket width: 2^12 ps = 4.096 ns. Finer than every NIC
/// timing constant, so same-bucket collisions stay small and the per-bucket
/// sort is cheap.
const BUCKET_SHIFT: u32 = 12;
/// Buckets per wheel rotation (power of two for mask indexing). With the
/// shift above the near horizon spans ~8.4 µs — wide enough that the
/// doorbell/issue/DMA/CQE cadence of a busy simulation almost never
/// touches the overflow level.
const NUM_BUCKETS: usize = 2048;

#[inline]
fn bucket_of(at: Time) -> u64 {
    at.as_ps() >> BUCKET_SHIFT
}

/// The hierarchical wheel: unsorted near-future buckets plus a
/// sorted overflow level. Invariants:
///
/// * events in `buckets` have absolute bucket index in
///   `[cursor, cursor + NUM_BUCKETS)`;
/// * events in `current` (the bucket being drained, sorted descending so
///   `Vec::pop` yields the earliest) order before everything in `buckets`;
/// * events in `overflow` had bucket index `>= cursor + NUM_BUCKETS` when
///   inserted and cascade into `buckets` as the cursor approaches —
///   always at least `NUM_BUCKETS` ticks before they could fire, so no
///   ordering is ever lost to the overflow level.
#[derive(Debug, Default)]
struct Wheel {
    buckets: Vec<Vec<Event>>,
    /// Absolute bucket index of the next bucket to drain.
    cursor: u64,
    /// Sorted (descending) run of the bucket currently draining.
    current: Vec<Event>,
    overflow: BinaryHeap<Event>,
    /// Events held in `buckets` (excludes `current` and `overflow`).
    near_len: usize,
    len: usize,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            ..Wheel::default()
        }
    }

    fn insert(&mut self, ev: Event) {
        let b = bucket_of(ev.at);
        self.len += 1;
        if b < self.cursor {
            // Fires inside (or before) the bucket being drained — the
            // simulator only schedules at `>= now`, so this slots into the
            // current run. Keep it sorted descending.
            let pos = self
                .current
                .partition_point(|e| (e.at, e.seq) > (ev.at, ev.seq));
            self.current.insert(pos, ev);
        } else if b < self.cursor + NUM_BUCKETS as u64 {
            self.buckets[(b as usize) & (NUM_BUCKETS - 1)].push(ev);
            self.near_len += 1;
        } else {
            self.overflow.push(ev);
        }
    }

    /// Cascade overflow events that now fall inside the near window.
    fn migrate(&mut self) {
        let limit = self.cursor + NUM_BUCKETS as u64;
        while let Some(head) = self.overflow.peek() {
            if bucket_of(head.at) >= limit {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            self.buckets[(bucket_of(ev.at) as usize) & (NUM_BUCKETS - 1)].push(ev);
            self.near_len += 1;
        }
    }

    /// Make `current` hold the next run of events (no-op if non-empty or
    /// the wheel is drained).
    fn ensure_current(&mut self) {
        if !self.current.is_empty() {
            return;
        }
        if self.near_len == 0 {
            if self.overflow.is_empty() {
                return;
            }
            // Idle jump: everything pending is past the horizon. Re-anchor
            // the (empty) wheel at the earliest overflow bucket.
            self.cursor = bucket_of(self.overflow.peek().expect("non-empty").at);
        }
        self.migrate();
        // A non-empty bucket exists within the window now.
        loop {
            let slot = (self.cursor as usize) & (NUM_BUCKETS - 1);
            if !self.buckets[slot].is_empty() {
                let mut run = std::mem::take(&mut self.buckets[slot]);
                self.near_len -= run.len();
                run.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                self.current = run;
                self.cursor += 1;
                return;
            }
            self.cursor += 1;
        }
    }

    fn pop(&mut self) -> Option<Event> {
        self.ensure_current();
        let ev = self.current.pop();
        if ev.is_some() {
            self.len -= 1;
        }
        ev
    }

    /// The next event's time without popping.
    fn peek_time(&mut self) -> Option<Time> {
        self.ensure_current();
        self.current.last().map(|e| e.at)
    }
}

/// The event queue: one timing wheel, popped in `(time, seq)` order.
pub struct EventQueue {
    wheel: Wheel,
    next_seq: u64,
    processed: u64,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> EventQueue {
        EventQueue {
            wheel: Wheel::new(),
            next_seq: 0,
            processed: 0,
        }
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.insert(Event { at, seq, kind });
    }

    /// Pop the next event (earliest time, then earliest scheduled).
    pub fn pop(&mut self) -> Option<Event> {
        let ev = self.wheel.pop();
        if ev.is_some() {
            self.processed += 1;
        }
        ev
    }

    /// Peek at the next event time without popping.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.wheel.len == 0
    }

    /// Events processed so far (for the runaway-program budget).
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

/// The pre-wheel global `BinaryHeap` queue, kept (API-compatible with
/// [`EventQueue`]'s hot methods) as the committed baseline the
/// `sim_events` wheel-vs-heap bench and its CI gate compare against.
#[derive(Default)]
pub struct BaselineHeapQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    processed: u64,
}

impl BaselineHeapQueue {
    /// Create an empty queue.
    pub fn new() -> BaselineHeapQueue {
        BaselineHeapQueue::default()
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    /// Pop the next event (earliest time, then earliest scheduled).
    pub fn pop(&mut self) -> Option<Event> {
        let e = self.heap.pop();
        if e.is_some() {
            self.processed += 1;
        }
        e
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A single FIFO server: jobs occupy it back to back.
///
/// Used for the serialized per-port resources: the managed-WQE fetch
/// engine (Table 4's "NIC PU" bottleneck) and the atomic engine (Table 3's
/// 8.4 M CAS/s ceiling).
#[derive(Clone, Debug, Default)]
pub struct FifoResource {
    free_at: Time,
    busy_total: Time,
}

impl FifoResource {
    /// Create an idle resource.
    pub fn new() -> FifoResource {
        FifoResource::default()
    }

    /// Acquire the resource at `now` for `dur`. Returns the time the work
    /// *finishes* (queueing behind earlier acquisitions if necessary).
    pub fn acquire(&mut self, now: Time, dur: Time) -> Time {
        let start = now.max(self.free_at);
        self.free_at = start + dur;
        self.busy_total += dur;
        self.free_at
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Total busy time accumulated (utilization accounting).
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }
}

/// A pool of identical FIFO servers (CPU cores, processing units).
/// Jobs go to the earliest-free server.
///
/// Earliest-free selection runs off a lazy min-heap of
/// `(free_at, server)` entries rather than an O(n) scan — wide PU pools
/// made the scan hot. Entries go stale when a server is re-acquired (each
/// acquire pushes the new finish time); stale entries are skipped on pop
/// by checking against the authoritative `free_at` table. Tie-breaking is
/// identical to the old first-minimum scan: the heap orders by
/// `(free_at, server index)`, so equal times pick the lowest index.
#[derive(Clone, Debug)]
pub struct PoolResource {
    free_at: Vec<Time>,
    ready: BinaryHeap<std::cmp::Reverse<(Time, usize)>>,
    busy_total: Time,
}

impl PoolResource {
    /// A pool of `n` servers.
    pub fn new(n: usize) -> PoolResource {
        assert!(n > 0);
        PoolResource {
            free_at: vec![Time::ZERO; n],
            ready: (0..n).map(|i| std::cmp::Reverse((Time::ZERO, i))).collect(),
            busy_total: Time::ZERO,
        }
    }

    /// Acquire any server at `now` for `dur`; returns (server, finish).
    pub fn acquire(&mut self, now: Time, dur: Time) -> (usize, Time) {
        let i = loop {
            let std::cmp::Reverse((t, i)) = *self.ready.peek().expect("non-empty pool");
            if self.free_at[i] == t {
                self.ready.pop();
                break i;
            }
            // Stale entry: the server was re-acquired (pinned or pooled)
            // after this entry was pushed.
            self.ready.pop();
        };
        let start = now.max(self.free_at[i]);
        self.free_at[i] = start + dur;
        self.busy_total += dur;
        self.ready.push(std::cmp::Reverse((self.free_at[i], i)));
        self.maybe_compact();
        (i, self.free_at[i])
    }

    /// Acquire a *specific* server (PU pinning). Returns `(start, finish)`
    /// — callers that pace chains need the actual start time.
    pub fn acquire_at(&mut self, server: usize, now: Time, dur: Time) -> (Time, Time) {
        let start = now.max(self.free_at[server]);
        self.free_at[server] = start + dur;
        self.busy_total += dur;
        self.ready
            .push(std::cmp::Reverse((self.free_at[server], server)));
        self.maybe_compact();
        (start, self.free_at[server])
    }

    /// Drop accumulated stale entries once they dominate the heap (only
    /// reachable under heavy pinned/pooled mixing; keeps the heap O(n)).
    fn maybe_compact(&mut self) {
        if self.ready.len() > 4 * self.free_at.len().max(8) {
            self.ready = self
                .free_at
                .iter()
                .enumerate()
                .map(|(i, t)| std::cmp::Reverse((*t, i)))
                .collect();
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// Whether the pool is empty (never true — pools have ≥ 1 server).
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }

    /// How many servers are busy at `now`.
    pub fn busy_at(&self, now: Time) -> usize {
        self.free_at.iter().filter(|t| **t > now).count()
    }

    /// Total busy time accumulated.
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_us(5), EventKind::WqAdvance { wq: WqId(0) });
        q.schedule(Time::from_us(1), EventKind::WqAdvance { wq: WqId(1) });
        q.schedule(Time::from_us(1), EventKind::WqAdvance { wq: WqId(2) });
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a.at, Time::from_us(1));
        // Same-time events keep scheduling order.
        match (a.kind, b.kind) {
            (EventKind::WqAdvance { wq: w1 }, EventKind::WqAdvance { wq: w2 }) => {
                assert_eq!(w1, WqId(1));
                assert_eq!(w2, WqId(2));
            }
            _ => panic!("wrong kinds"),
        }
        assert_eq!(c.at, Time::from_us(5));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 3);
    }

    /// Drive a queue through a deterministic pseudo-random schedule/pop
    /// mix and return the observed `(time, seq)` order.
    fn churn(
        mut schedule: impl FnMut(Time),
        mut pop: impl FnMut() -> Option<(Time, u64)>,
    ) -> Vec<(Time, u64)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut order = Vec::new();
        let mut now = Time::ZERO;
        for round in 0..200 {
            for _ in 0..(rng() % 50) {
                // Mix of near (same-bucket), mid-horizon and far-future
                // times, always >= now (the simulator's invariant).
                let delta = match rng() % 4 {
                    0 => rng() % 1_000,      // same/adjacent bucket
                    1 => rng() % 100_000,    // near window
                    2 => rng() % 10_000_000, // past the wheel horizon
                    _ => rng() % 200,        // dense ties
                };
                schedule(now + Time::from_ps(delta));
            }
            for _ in 0..(rng() % 40 + if round > 150 { 60 } else { 0 }) {
                match pop() {
                    Some((at, seq)) => {
                        now = at;
                        order.push((at, seq));
                    }
                    None => break,
                }
            }
        }
        while let Some((at, seq)) = pop() {
            order.push((at, seq));
        }
        order
    }

    #[test]
    fn wheel_matches_baseline_heap_order_exactly() {
        use std::cell::RefCell;
        let wheel = RefCell::new(EventQueue::new());
        let wheel_order = churn(
            |at| {
                wheel
                    .borrow_mut()
                    .schedule(at, EventKind::WqAdvance { wq: WqId(0) })
            },
            || wheel.borrow_mut().pop().map(|e| (e.at, e.seq)),
        );
        let heap = RefCell::new(BaselineHeapQueue::new());
        let heap_order = churn(
            |at| {
                heap.borrow_mut()
                    .schedule(at, EventKind::WqAdvance { wq: WqId(0) })
            },
            || heap.borrow_mut().pop().map(|e| (e.at, e.seq)),
        );
        assert_eq!(wheel_order.len(), heap_order.len());
        assert_eq!(
            wheel_order, heap_order,
            "wheel must replay the heap's exact order"
        );
        // And the order is the (time, seq) total order.
        for w in wheel_order.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    /// The churn order of a fresh queue, as one thread observes it.
    fn wheel_churn_order() -> Vec<(Time, u64)> {
        use std::cell::RefCell;
        let q = RefCell::new(EventQueue::new());
        churn(
            |at| {
                q.borrow_mut()
                    .schedule(at, EventKind::WqAdvance { wq: WqId(0) })
            },
            || q.borrow_mut().pop().map(|e| (e.at, e.seq)),
        )
    }

    #[test]
    fn churn_order_replays_on_a_fresh_thread() {
        // Nothing per-process or per-thread (hash seeds, addresses,
        // allocator state) may reach the pop order: a second queue on a
        // freshly spawned thread replays the first one exactly.
        let here = wheel_churn_order();
        let there = std::thread::spawn(wheel_churn_order).join().unwrap();
        assert_eq!(here, there, "pop order differs across threads");
        assert!(here.len() > 1000, "churn exercised the queue");
    }

    #[test]
    fn far_future_events_cascade_through_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the near horizon (seconds vs the ~8 µs window).
        q.schedule(Time::from_secs(2), EventKind::WqAdvance { wq: WqId(2) });
        q.schedule(Time::from_ms(1), EventKind::WqAdvance { wq: WqId(1) });
        q.schedule(Time::from_ns(10), EventKind::WqAdvance { wq: WqId(0) });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
        assert_eq!(
            order,
            vec![Time::from_ns(10), Time::from_ms(1), Time::from_secs(2)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_resource_queues_back_to_back() {
        let mut r = FifoResource::new();
        let t1 = r.acquire(Time::from_us(0), Time::from_us(2));
        assert_eq!(t1, Time::from_us(2));
        // Second job at t=1 queues behind the first.
        let t2 = r.acquire(Time::from_us(1), Time::from_us(2));
        assert_eq!(t2, Time::from_us(4));
        // A job after the queue drains starts immediately.
        let t3 = r.acquire(Time::from_us(10), Time::from_us(1));
        assert_eq!(t3, Time::from_us(11));
        assert_eq!(r.busy_total(), Time::from_us(5));
    }

    #[test]
    fn pool_picks_earliest_free_server() {
        let mut p = PoolResource::new(2);
        let (s0, f0) = p.acquire(Time::ZERO, Time::from_us(4));
        let (s1, f1) = p.acquire(Time::ZERO, Time::from_us(1));
        assert_ne!(s0, s1);
        assert_eq!(f0, Time::from_us(4));
        assert_eq!(f1, Time::from_us(1));
        // Next job lands on the server that freed first.
        let (s2, f2) = p.acquire(Time::from_us(2), Time::from_us(1));
        assert_eq!(s2, s1);
        assert_eq!(f2, Time::from_us(3));
        assert_eq!(p.busy_at(Time::from_ps(3_500_000)), 1);
    }

    #[test]
    fn pinned_acquire_serializes_on_one_server() {
        let mut p = PoolResource::new(4);
        let (s1, f1) = p.acquire_at(2, Time::ZERO, Time::from_us(1));
        let (s2, f2) = p.acquire_at(2, Time::ZERO, Time::from_us(1));
        assert_eq!((s1, f1), (Time::ZERO, Time::from_us(1)));
        assert_eq!((s2, f2), (Time::from_us(1), Time::from_us(2)));
        // Other servers unaffected.
        let (_, f3) = p.acquire(Time::ZERO, Time::from_us(1));
        assert_eq!(f3, Time::from_us(1));
    }

    /// Reference implementation of the old O(n) first-minimum scan, used
    /// to prove the heap-backed pool makes identical choices.
    #[derive(Clone)]
    struct ScanPool {
        free_at: Vec<Time>,
    }
    impl ScanPool {
        fn acquire(&mut self, now: Time, dur: Time) -> (usize, Time) {
            let (i, _) = self
                .free_at
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .expect("non-empty pool");
            let start = now.max(self.free_at[i]);
            self.free_at[i] = start + dur;
            (i, self.free_at[i])
        }
        fn acquire_at(&mut self, server: usize, now: Time, dur: Time) -> (Time, Time) {
            let start = now.max(self.free_at[server]);
            self.free_at[server] = start + dur;
            (start, self.free_at[server])
        }
    }

    #[test]
    fn pool_heap_matches_linear_scan_choice_and_tiebreak() {
        // Satellite regression for the O(n) min-scan fix: under a long
        // deterministic mix of pooled and pinned acquisitions — including
        // many exact ties — the heap-backed pool must pick the same
        // server and finish time as the first-minimum linear scan did.
        let n = 16;
        let mut heap_pool = PoolResource::new(n);
        let mut scan_pool = ScanPool {
            free_at: vec![Time::ZERO; n],
        };
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = Time::ZERO;
        for step in 0..5_000 {
            now += Time::from_ps(rng() % 3_000);
            // Coarse durations force frequent free_at ties across servers.
            let dur = Time::from_ns((rng() % 4) * 100);
            if step % 5 == 0 {
                let server = (rng() % n as u64) as usize;
                let a = heap_pool.acquire_at(server, now, dur);
                let b = scan_pool.acquire_at(server, now, dur);
                assert_eq!(a, b, "pinned acquire diverged at step {step}");
            } else {
                let a = heap_pool.acquire(now, dur);
                let b = scan_pool.acquire(now, dur);
                assert_eq!(a, b, "pooled acquire diverged at step {step}");
            }
        }
        // The lazy heap stays bounded.
        assert!(heap_pool.ready.len() <= 4 * n.max(8));
    }

    #[test]
    fn pool_tie_break_picks_lowest_index() {
        let mut p = PoolResource::new(4);
        // All servers free at ZERO: ties must resolve to server 0, then 1…
        let (s0, _) = p.acquire(Time::ZERO, Time::from_us(2));
        let (s1, _) = p.acquire(Time::ZERO, Time::from_us(2));
        assert_eq!((s0, s1), (0, 1));
        // Servers 0/1 busy until 2 µs; 2 and 3 tie free at 1 µs — the
        // lower index wins the tie, as the linear scan always did.
        let _ = p.acquire_at(2, Time::ZERO, Time::from_us(1));
        let _ = p.acquire_at(3, Time::ZERO, Time::from_us(1));
        let (s, _) = p.acquire(Time::from_us(1), Time::from_us(1));
        assert_eq!(s, 2);
    }
}
