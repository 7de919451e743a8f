//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer's public API in
//! a span. A span records its name, start, end, parent and (where the
//! benchmark owns the request) a request id, plus the heap allocations
//! made while it was open. Per-name aggregates — calls, total time,
//! self time (duration minus the part covered by child spans) and
//! allocations — cover every call. The spans themselves are kept in
//! memory up to [`KEEP`] and written out when the run ends; later spans
//! are counted as dropped.
//!
//! Calls made once per simulator event (reaps, `Simulator::step`) go
//! through [`Tracer::hot`]: every call is counted with its allocations,
//! but only one hot call in [`HOT_EVERY`] is timed, and its duration
//! stands for `HOT_EVERY` calls in the totals. Timing each of millions
//! of ~100 ns calls would otherwise double the run it measures.
//!
//! Reading the clock is not free (tens of ns on a VM), and a span's
//! measured duration includes about one clock read. The tracer measures
//! that cost when it starts and subtracts it from every span.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// Spans kept verbatim per tracer (the aggregates cover all of them).
pub const KEEP: usize = 100_000;

/// One hot call in this many is timed.
pub const HOT_EVERY: u64 = 64;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub req: Option<u64>,
}

/// Per-name totals: exact call and allocation counts; times exact for
/// ordinary spans and estimated from the timed sample for hot ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    req: Option<u64>,
    start_ns: u64,
    child_ns: u64,
    allocs0: u64,
    /// Calls this span's duration stands for (1, or `HOT_EVERY`).
    weight: u64,
}

/// A span recorder. A disabled tracer runs the wrapped call and records
/// nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    hot_calls: u64,
    agg: Vec<(&'static str, Agg)>,
    /// Median duration of an empty span, subtracted from every span.
    clock_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        let mut t = Tracer {
            on,
            origin: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            hot_calls: 0,
            agg: Vec::new(),
            clock_ns: 0,
        };
        if on {
            let mut empty: Vec<u64> = (0..1001)
                .map(|_| {
                    let a = t.now_ns();
                    t.now_ns() - a
                })
                .collect();
            empty.sort_unstable();
            t.clock_ns = empty[empty.len() / 2];
        }
        t
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Run `f`, a call made once per simulator event, as a sampled span
    /// (see the module docs).
    pub fn hot<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.hot_calls += 1;
        if self.hot_calls.is_multiple_of(HOT_EVERY) {
            self.open(name, None, HOT_EVERY);
            let out = f();
            self.exit();
            return out;
        }
        let allocs0 = alloc::count();
        let out = f();
        let a = self.agg_mut(name);
        a.count += 1;
        a.allocs += alloc::count() - allocs0;
        out
    }

    /// Open a span; close it with [`Tracer::exit`]. For call sites where
    /// the wrapped code needs the tracer itself.
    pub fn enter(&mut self, name: &'static str, req: Option<u64>) {
        if self.on {
            self.open(name, req, 1);
        }
    }

    fn open(&mut self, name: &'static str, req: Option<u64>, weight: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let allocs0 = alloc::count();
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            req,
            start_ns,
            child_ns: 0,
            allocs0,
            weight,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let allocs1 = alloc::count();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = (end_ns - open.start_ns).saturating_sub(self.clock_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur * open.weight;
            p.id
        });
        let a = self.agg_mut(open.name);
        a.count += 1;
        a.total_ns += dur * open.weight;
        a.self_ns += dur.saturating_sub(open.child_ns) * open.weight;
        a.allocs += allocs1 - open.allocs0;
        if self.spans.len() < KEEP {
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent,
                req: open.req,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let i = match self.agg.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.agg.push((name, Agg::default()));
                self.agg.len() - 1
            }
        };
        &mut self.agg[i].1
    }

    /// Totals for one span name (zero when it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Agg::default(), |(_, a)| *a)
    }

    /// Every per-name aggregate, in first-seen order.
    pub fn aggs(&self) -> &[(&'static str, Agg)] {
        &self.agg
    }

    /// The kept spans as a JSON array, with the dropped count.
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req.map_or("null".to_string(), |r| r.to_string()),
            );
        }
        out.push_str("\n]");
        out
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", None);
        t.span("inner", Some(7), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let outer = t.agg("outer");
        let inner = t.agg("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans[0].parent, Some(t.spans[1].id));
        assert_eq!(t.spans[0].req, Some(7));
    }

    #[test]
    fn hot_calls_are_all_counted_and_sampled_for_time() {
        let mut t = Tracer::new(true);
        t.enter("loop", None);
        for _ in 0..HOT_EVERY * 4 {
            t.hot("step", || std::hint::black_box(Vec::<u8>::with_capacity(8)));
        }
        t.exit();
        let step = t.agg("step");
        assert_eq!(step.count, HOT_EVERY * 4);
        // Other test threads allocate too: the counter is process-wide.
        assert!(step.allocs >= HOT_EVERY * 4);
        // Four timed calls, each standing for HOT_EVERY.
        assert_eq!(t.spans.iter().filter(|s| s.name == "step").count(), 4);
        assert_eq!(step.total_ns % HOT_EVERY, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 3), 3);
        assert!(t.aggs().is_empty());
    }
}
