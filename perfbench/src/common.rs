//! Pieces every workload shares: the seeded generator, the result of one
//! repetition, NIC utilization snapshots and the post-run re-read check.

use std::io::Read;
use std::time::Instant;

use redn_core::program::ConstPool;
use redn_kv::session::Session;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::NodeId;
use rnic_sim::sim::Simulator;

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_5EED)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one repetition of a workload produced.
#[derive(Default)]
pub struct Rep {
    /// Requests the benchmark asked for (timed run plus re-reads).
    pub attempted: u64,
    /// Requests that timed out, failed typed, never completed or
    /// returned a wrong value.
    pub failed: u64,
    /// Correctness violations, one line each.
    pub errors: Vec<String>,
    /// Host wall time of set-up (testbed, populate, deploy/connect).
    pub setup_ns: u64,
    /// On-CPU time of the benchmark's thread during set-up.
    pub setup_cpu_ns: u64,
    /// Host wall time of the timed run.
    pub run_ns: u64,
    /// On-CPU time of the benchmark's thread during the timed run.
    pub run_cpu_ns: u64,
    /// Speed of the CPU over the repetition relative to the reference
    /// (`speedometer.rs`); NaN where no speedometer ran.
    pub host_speed: f64,
    /// Requests the timed run completed.
    pub ops: u64,
    /// Simulated, deterministic figures: end-to-end `sim_*` metrics and
    /// per-layer counts. Equal on every repetition of one seed.
    pub sim: Vec<Metric>,
    /// Per-layer figures measured in host time (traced repetitions).
    pub host: Vec<Metric>,
    /// Human-readable notes (sample counts, the saturated resource).
    pub notes: Vec<String>,
}

impl Rep {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// On-CPU time of the calling thread so far, ns, from the scheduler's
/// own accounting (`/proc/thread-self/schedstat`); `None` where the
/// kernel does not provide it. Reads into a stack buffer: no heap
/// allocation, so callers inside counted spans stay exact.
pub fn thread_cpu_ns() -> Option<u64> {
    let mut buf = [0u8; 96];
    let n = std::fs::File::open("/proc/thread-self/schedstat")
        .ok()?
        .read(&mut buf)
        .ok()?;
    std::str::from_utf8(&buf[..n])
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The calling thread's on-CPU time, exact to the nanosecond. The
/// kernel folds a running thread's time into `schedstat` only when it
/// schedules, every few milliseconds; yielding first makes it do so now.
fn exact_cpu_ns() -> u64 {
    std::thread::yield_now();
    thread_cpu_ns().unwrap_or(0)
}

/// Wall and on-CPU time of the calling thread, read together.
pub struct Clock {
    wall: Instant,
    cpu_ns: u64,
}

impl Clock {
    pub fn start() -> Clock {
        let cpu_ns = exact_cpu_ns();
        Clock {
            wall: Instant::now(),
            cpu_ns,
        }
    }

    /// Wall and on-CPU ns since `start`, on the thread that started it.
    pub fn elapsed(&self) -> (u64, u64) {
        let wall = self.wall.elapsed().as_nanos() as u64;
        (wall, exact_cpu_ns() - self.cpu_ns)
    }
}

/// Cumulative busy time of each NIC resource class on one node, in ps:
/// PU, managed-fetch engine, atomic engine, link egress, PCIe.
pub type Busy = [u64; 5];

/// The per-layer metric of each resource class, in [`Busy`] order.
const UTIL: [&str; 5] = [
    "nic.util.pu",
    "nic.util.fetch",
    "nic.util.atomic",
    "nic.util.link",
    "nic.util.pcie",
];

pub fn busy(sim: &Simulator, node: NodeId) -> Busy {
    let u = sim.utilization(node);
    [
        u.pu_busy.as_ps(),
        u.fetch_busy.as_ps(),
        u.atomic_busy.as_ps(),
        u.link_busy.as_ps(),
        u.pcie_busy.as_ps(),
    ]
}

/// Record each resource class's utilization over a run — busy /
/// (elapsed × instances), the maximum over `nodes` — as `nic.util.*`
/// in `rep.sim`, and return the busiest class with its node. `before`
/// holds each node's [`busy`] at run start.
pub fn record_utilization(
    rep: &mut Rep,
    sim: &Simulator,
    nodes: &[NodeId],
    before: &[Busy],
    elapsed_ps: u64,
) -> String {
    let mut max = [(0.0, nodes[0]); 5];
    for (node, b0) in nodes.iter().zip(before) {
        let cfg = sim.nic_config(*node);
        let instances = [cfg.total_pus(), cfg.ports, cfg.ports, cfg.ports, 1];
        let b1 = busy(sim, *node);
        for r in 0..5 {
            let u = (b1[r] - b0[r]) as f64 / (elapsed_ps as f64 * instances[r] as f64);
            if u > max[r].0 {
                max[r] = (u, *node);
            }
        }
    }
    for (name, (u, _)) in UTIL.iter().zip(max) {
        rep.sim.push((name, u, "share"));
    }
    let (r, (u, node)) = max
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .expect("five resource classes");
    format!(
        "busiest NIC resource: {} at {:.1}% on {node:?}",
        UTIL[r],
        u * 100.0
    )
}

/// Re-read requests through a fresh session after the timed run, a
/// window at a time, and compare each value with `expect`. Host-armed
/// sessions are topped up between windows. Returns one line per request
/// that did not come back with the expected value.
pub fn reread<R: Copy>(
    sim: &mut Simulator,
    pool: &mut ConstPool,
    session: &mut Session,
    reqs: &[R],
    value_len: u64,
    post: impl Fn(&mut Session, &mut Simulator, &[R]) -> Result<Vec<u64>>,
    expect: impl Fn(R) -> Vec<u8>,
) -> Result<Vec<String>> {
    let depth = session.service().pipeline_depth() as usize;
    let mut bad = Vec::new();
    for chunk in reqs.chunks(depth) {
        session.service_mut().prime(sim, pool)?;
        let instances = post(session, sim, chunk)?;
        sim.run()?;
        let done = session.reap(sim, 4 * depth);
        for (&inst, &req) in instances.iter().zip(chunk) {
            let tag = session.response_tag(inst);
            if !done.iter().any(|c| c.tag() == tag) {
                bad.push(format!("re-read: instance {inst} never completed"));
                session.abandon();
                continue;
            }
            let got = session.read_value(sim, inst, value_len)?;
            session.complete();
            if got != expect(req) {
                bad.push(format!("re-read: instance {inst} returned {got:?}"));
            }
        }
    }
    Ok(bad)
}

/// The value every populated key holds until it is overwritten.
pub fn populated_value(key: u64, value_len: u32) -> Vec<u8> {
    vec![(key & 0xFF) as u8; value_len as usize]
}

pub fn err(msg: &'static str) -> Error {
    Error::InvalidWr(msg)
}
