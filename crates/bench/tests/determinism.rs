//! Determinism regression suite for the event engine.
//!
//! The engine's contract is that simulated results are a pure function of
//! the program: the event order is `(time, seq)` with `seq` assigned at
//! scheduling, so nothing per-process or per-thread — std `HashMap`
//! seeds, heap addresses, allocator state — may reach it. This suite
//! runs the tier-1 calibration set (Fig 7/8 points, Tables 1/3/4), a
//! serving-fleet throughput row, and a cluster failover run twice in one
//! process, the second time on a freshly spawned thread, and asserts the
//! rendered results are byte-identical. A separate test does the same
//! with the raw event trace of a multi-verb scenario.
//!
//! Each std `HashMap` draws its own random seed (a fresh thread draws
//! fresh keys), so any hash-iteration order that leaked into event
//! scheduling would make the two passes diverge.

use redn_bench::clusterbench::{failover_point, ClusterSweepConfig};
use redn_bench::micro::{fig7, fig8, table1, table3};
use redn_bench::servebench::{closed_point, SweepConfig};
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::Simulator;
use rnic_sim::wqe::WorkRequest;

/// Run `pass` here and again on a freshly spawned thread.
fn here_and_on_fresh_thread<T: Send + 'static>(pass: fn() -> T) -> (T, T) {
    let here = pass();
    let there = std::thread::spawn(pass).join().expect("second pass");
    (here, there)
}

/// Render one full calibration + serving + failover pass as text.
fn calibration_pass() -> String {
    let mut out = String::new();
    for row in fig7().expect("fig7") {
        out.push_str(&format!("{row:?}\n"));
    }
    for point in fig8().expect("fig8") {
        out.push_str(&format!("{point:?}\n"));
    }
    for row in table1().expect("table1") {
        out.push_str(&format!("{row:?}\n"));
    }
    for row in table3().expect("table3") {
        out.push_str(&format!("{row:?}\n"));
    }
    // Table 4's dual-port serving shape, via the fleet row the committed
    // BENCH_throughput.small.json gates on (closed loop, K=8).
    let cfg = SweepConfig {
        clients: 2,
        ops_per_client: 50,
        ..SweepConfig::small()
    };
    let stats = closed_point(&cfg, 8).expect("closed point");
    out.push_str(&format!(
        "closed k=8: ops={} ops_per_sec={:.1} timeouts={} lat={:?} svc={:?}\n",
        stats.ops, stats.ops_per_sec, stats.timeouts, stats.latency, stats.service_latency
    ));
    // Cluster failover: detection/promote/re-replicate timings and
    // recovered-record counts all ride the event engine.
    let fo = failover_point(&ClusterSweepConfig::small()).expect("failover");
    out.push_str(&format!("{fo:?}\n"));
    out
}

#[test]
fn calibration_results_identical_on_a_fresh_thread() {
    let (here, there) = here_and_on_fresh_thread(calibration_pass);
    assert_eq!(here, there, "a calibration result depends on the run");
}

/// A traced two-node scenario mixing every verb family: WRITE, READ,
/// SEND/RECV (with an RNR park + retry), FETCH_ADD, and a WAIT chain.
fn traced_scenario() -> Vec<String> {
    let cfg = SimConfig {
        trace: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg);
    let a = sim.add_node("a", HostConfig::default(), NicConfig::connectx5());
    let b = sim.add_node("b", HostConfig::default(), NicConfig::connectx5());
    sim.connect_nodes(a, b, LinkConfig::back_to_back());
    let cq_a = sim.create_cq(a, 64).unwrap();
    let cq_b = sim.create_cq(b, 64).unwrap();
    let qp_a = sim.create_qp(a, QpConfig::new(cq_a)).unwrap();
    let qp_b = sim.create_qp(b, QpConfig::new(cq_b)).unwrap();
    sim.connect_qps(qp_a, qp_b).unwrap();

    let src = sim.alloc(a, 256, 8).unwrap();
    let smr = sim.register_mr(a, src, 256, Access::all()).unwrap();
    let dst = sim.alloc(b, 256, 8).unwrap();
    let dmr = sim.register_mr(b, dst, 256, Access::all()).unwrap();
    sim.mem_write_u64(a, src, 0xdead_beef).unwrap();

    // WRITE then READ back then an atomic on the remote word.
    sim.post_send(
        qp_a,
        WorkRequest::write(src, smr.lkey, 8, dst, dmr.rkey).signaled(),
    )
    .unwrap();
    sim.post_send(
        qp_a,
        WorkRequest::read(src + 64, smr.lkey, 8, dst, dmr.rkey).signaled(),
    )
    .unwrap();
    sim.post_send(
        qp_a,
        WorkRequest::fetch_add(dst, dmr.rkey, 3, src + 128, smr.lkey).signaled(),
    )
    .unwrap();
    // SEND with no RECV posted: parks on the RNR queue, retries once the
    // RECV lands (exercises the payload park/restore path).
    sim.post_send(qp_a, WorkRequest::send(src, smr.lkey, 32).signaled())
        .unwrap();
    sim.run().unwrap();
    sim.post_recv(qp_b, WorkRequest::recv(dst + 128, dmr.lkey, 64))
        .unwrap();
    sim.run().unwrap();

    let mut lines: Vec<String> = sim
        .trace()
        .events()
        .iter()
        // Exact picoseconds: `Time`'s Debug rounds to nanoseconds.
        .map(|(t, ev)| format!("{}ps {ev:?}", t.as_ps()))
        .collect();
    lines.push(format!("events={}", sim.events_processed()));
    lines.push(format!("cqes_a={}", sim.poll_cq(cq_a, 64).len()));
    lines.push(format!("cqes_b={}", sim.poll_cq(cq_b, 64).len()));
    lines
}

#[test]
fn event_trace_identical_on_a_fresh_thread() {
    let (here, there) = here_and_on_fresh_thread(traced_scenario);
    assert_eq!(here, there, "the event trace depends on the run");
    assert!(
        here.iter().any(|l| l.contains("MemWrite")),
        "trace actually recorded memory traffic"
    );
}
