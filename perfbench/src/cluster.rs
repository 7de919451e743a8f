//! `cluster_rw`: a 4-node `redn_cluster` driven by the benchmark itself
//! in a closed loop of 50 % reads and 50 % updates, on disjoint key sets.
//! The benchmark posts, reaps and calls `Simulator::step`, so each of
//! those calls is a span of its own.

use std::collections::{BTreeMap, HashMap, VecDeque};

use redn_cluster::cluster::{Cluster, ClusterSpec};
use redn_cluster::session::ClusterSession;
use redn_kv::session::{Completion, SessionOpts};
use redn_kv::workload::latency_stats;
use rnic_sim::error::Result;
use rnic_sim::time::Time;

use crate::common::{busy, err, populated_value, record_utilization, Clock, Rep, Rng};
use crate::trace::Tracer;

const NODES: usize = 4;
const NKEYS: u64 = 16 * 1024;
const VALUE_LEN: u32 = 16;
const GET_DEPTH: u32 = 8;
const PUT_DEPTH: u32 = 8;
/// Requests in one timed run, across all shards.
pub const OPS: u64 = 32 * 1024;

/// One planned request.
#[derive(Clone, Copy)]
struct Op {
    id: u64,
    key: u64,
    /// `Some(version)` for an update.
    put: Option<u64>,
}

/// The value update `version` writes to `key`: the key, then the
/// version, little-endian.
fn put_value(key: u64, version: u64) -> Vec<u8> {
    let mut v = key.to_le_bytes().to_vec();
    v.extend_from_slice(&version.to_le_bytes());
    v
}

struct PendingGet {
    instance: u64,
    key: u64,
    posted_at: Time,
}

pub fn rep(seed: u64, tr: &mut Tracer) -> Result<Rep> {
    let mut rep = Rep::default();
    let spec = ClusterSpec {
        nodes: NODES,
        nkeys: NKEYS,
        value_len: VALUE_LEN,
        nbuckets: (NKEYS / NODES as u64 * 4).next_power_of_two(),
        put_depth: PUT_DEPTH,
        // The journal is append-only: one slot per put a shard takes.
        journal_capacity: OPS,
    };

    // Set-up: topology + per-shard populate, then the sessions (get
    // offloads and replication chains: IR lowering + static analysis).
    let t0 = Clock::start();
    tr.enter("setup", None);
    let (mut sim, mut cluster) = tr.span("cluster.deploy", None, || Cluster::deploy(spec))?;
    let opts = SessionOpts {
        pipeline_depth: GET_DEPTH,
        self_recycling: true,
        port: 0,
        pu_base: 0,
    };
    let mut sess = tr.span("cluster.connect", None, || {
        ClusterSession::connect(&mut sim, &mut cluster, opts)
    })?;
    tr.exit();
    (rep.setup_ns, rep.setup_cpu_ns) = t0.elapsed();

    // Inputs from the seed: each shard's keys split into a read set and
    // a write set, and one request sequence routed into per-shard queues.
    let mut rng = Rng::new(seed);
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for s in 0..NODES {
        let mut owned = cluster.owned_keys(s);
        rng.shuffle(&mut owned);
        let half = owned.len() / 2;
        writes.extend_from_slice(&owned[..half]);
        reads.extend_from_slice(&owned[half..]);
    }
    let mut plan: Vec<VecDeque<Op>> = (0..NODES).map(|_| VecDeque::new()).collect();
    for id in 0..OPS {
        let op = if rng.below(2) == 0 {
            Op {
                id,
                key: reads[rng.below(reads.len() as u64) as usize],
                put: None,
            }
        } else {
            Op {
                id,
                key: writes[rng.below(writes.len() as u64) as usize],
                put: Some(id),
            }
        };
        plan[cluster.shard_for(op.key)].push_back(op);
    }

    let nodes: Vec<_> = cluster.shards.iter().map(|s| s.node).collect();
    let doorbells = |sim: &rnic_sim::sim::Simulator| -> (u64, u64) {
        nodes.iter().fold((0, 0), |(d, p), &n| {
            (d + sim.node_doorbells(n), p + sim.node_posts(n))
        })
    };
    let verbs = |sim: &rnic_sim::sim::Simulator| -> u64 {
        nodes.iter().map(|&n| sim.verbs_executed(n)).sum()
    };
    let pools = |cluster: &mut Cluster| -> (u64, u64) {
        cluster.shards.iter_mut().fold((0, 0), |(h, l), s| {
            (
                h + s.ctx.pool_mut().high_water(),
                l + s.ctx.pool_mut().leases(),
            )
        })
    };
    let events0 = sim.events_processed();
    let verbs0 = verbs(&sim);
    let host0 = doorbells(&sim);
    let client_db0 = sim.node_doorbells(cluster.client);
    let busy0: Vec<_> = nodes.iter().map(|&n| busy(&sim, n)).collect();
    let pool0 = pools(&mut cluster);

    // Timed run.
    let mut gets: Vec<VecDeque<PendingGet>> = (0..NODES).map(|_| VecDeque::new()).collect();
    let mut puts: Vec<HashMap<u64, (u64, u64, Time)>> =
        (0..NODES).map(|_| HashMap::new()).collect();
    let mut read_lat = Vec::with_capacity(OPS as usize);
    let mut write_lat = Vec::with_capacity(OPS as usize);
    let mut acked: BTreeMap<u64, u64> = BTreeMap::new();
    let mut comps: Vec<Completion> = Vec::new();
    let (mut reaps, mut useful_reaps, mut put_reaps, mut useful_put_reaps) =
        (0u64, 0u64, 0u64, 0u64);
    let mut put_failures = 0u64;
    let mut bad_values = 0u64;
    let mut steps = 0u64;
    let start = sim.now();
    let t1 = Clock::start();
    tr.enter("run", None);
    loop {
        for s in 0..NODES {
            comps.clear();
            let g = sess.get_session_mut(s);
            tr.hot("session.reap", || g.reap_into(&mut sim, 64, &mut comps));
            reaps += 1;
            useful_reaps += u64::from(!comps.is_empty());
            for c in &comps {
                let tag = c.tag();
                let Some(pos) = gets[s]
                    .iter()
                    .position(|p| g.response_tag(p.instance) == tag)
                else {
                    continue;
                };
                let p = gets[s].remove(pos).expect("position just found");
                read_lat.push(c.at() - p.posted_at);
                let v = g.read_value(&sim, p.instance, u64::from(VALUE_LEN))?;
                g.complete();
                if v != populated_value(p.key, VALUE_LEN) {
                    bad_values += 1;
                }
            }
            let ps = sess.put_session_mut(s);
            let r = tr.hot("cluster.put_reap", || ps.reap(&mut sim));
            put_reaps += 1;
            useful_put_reaps += u64::from(!r.acks.is_empty() || !r.failures.is_empty());
            for a in &r.acks {
                if let Some((key, version, posted_at)) = puts[s].remove(&a.instance) {
                    write_lat.push(a.at - posted_at);
                    debug_assert_eq!(key, a.key);
                    acked.insert(key, version);
                }
            }
            for f in &r.failures {
                puts[s].remove(&f.instance);
                put_failures += 1;
            }
            // Post this shard's queue in order while its windows have room.
            while let Some(&op) = plan[s].front() {
                match op.put {
                    None => {
                        if gets[s].len() >= GET_DEPTH as usize {
                            break;
                        }
                        let g = sess.get_session_mut(s);
                        let p = tr.span("session.post", Some(op.id), || g.get(&mut sim, op.key))?;
                        gets[s].push_back(PendingGet {
                            instance: p.instance,
                            key: op.key,
                            posted_at: p.posted_at,
                        });
                    }
                    Some(version) => {
                        if puts[s].len() >= PUT_DEPTH as usize {
                            break;
                        }
                        let ps = sess.put_session_mut(s);
                        let value = put_value(op.key, version);
                        let posted_at = sim.now();
                        let inst = tr.span("cluster.put_post", Some(op.id), || {
                            ps.put(&mut sim, op.key, &value)
                        })?;
                        puts[s].insert(inst, (op.key, version, posted_at));
                    }
                }
                plan[s].pop_front();
            }
        }
        let idle =
            (0..NODES).all(|s| plan[s].is_empty() && gets[s].is_empty() && puts[s].is_empty());
        if idle {
            break;
        }
        steps += 1;
        if !tr.hot("engine.step", || sim.step())? {
            break;
        }
    }
    tr.exit();
    (rep.run_ns, rep.run_cpu_ns) = t1.elapsed();
    let elapsed_ps = (sim.now() - start).as_ps();
    let events = sim.events_processed() - events0;
    let verbs = verbs(&sim) - verbs0;
    let host = doorbells(&sim);
    let (server_db, server_posts) = (host.0 - host0.0, host.1 - host0.1);
    let client_db = sim.node_doorbells(cluster.client) - client_db0;
    let busiest = record_utilization(&mut rep, &sim, &nodes, &busy0, elapsed_ps);
    let pool1 = pools(&mut cluster);

    // Correctness of the run: every request completed, every get value
    // matched its key, and the server CPUs never touched the data path.
    let never: u64 = (0..NODES)
        .map(|s| (plan[s].len() + gets[s].len() + puts[s].len()) as u64)
        .sum();
    let completed = (read_lat.len() + write_lat.len()) as u64;
    rep.ops = completed;
    rep.attempted += OPS;
    rep.failed += never + put_failures + bad_values;
    rep.check(never == 0, || format!("{never} requests never completed"));
    rep.check(put_failures == 0, || format!("{put_failures} puts failed"));
    rep.check(bad_values == 0, || {
        format!("{bad_values} gets returned a wrong value")
    });
    rep.check(server_db == 0 && server_posts == 0, || {
        format!("server CPUs rang {server_db} doorbells and posted {server_posts} WQEs")
    });

    // Every written key reads back its last acked value (acked-lost = 0).
    tr.enter("verify", None);
    let mut lost = 0u64;
    for (&key, &version) in &acked {
        let got = tr.span("cluster.get_blocking", None, || {
            sess.get_blocking(&mut sim, &cluster, key)
        });
        if got.ok() != Some(put_value(key, version)) {
            lost += 1;
        }
    }
    tr.exit();
    rep.attempted += acked.len() as u64;
    rep.failed += lost;
    rep.check(lost == 0, || {
        format!("acked-lost = {lost} of {} written keys", acked.len())
    });
    if read_lat.is_empty() || write_lat.is_empty() {
        return Err(err("cluster run completed no reads or no writes"));
    }

    // Figures.
    let ops = completed as f64;
    let read = latency_stats(&read_lat);
    let write = latency_stats(&write_lat);
    let mut all = read_lat;
    all.extend_from_slice(&write_lat);
    let all = latency_stats(&all);
    let get_ir = sess.get_session_mut(0).ir_report().expect("recycled get");
    let put_ir = sess.put_session(0).offload().ir_report();
    rep.sim.extend([
        (
            "sim_ops_per_s",
            ops / (elapsed_ps as f64 / 1e12),
            "ops/sim_s",
        ),
        ("sim_read_p50_us", read.p50_us, "sim_us"),
        ("sim_read_p99_us", read.p99_us, "sim_us"),
        ("sim_op_p50_us", all.p50_us, "sim_us"),
        ("sim_op_p99_us", all.p99_us, "sim_us"),
        ("loadgen.read_samples", read.count as f64, "count"),
        ("loadgen.write_samples", write.count as f64, "count"),
        ("cluster.put_p50_us", write.p50_us, "sim_us"),
        ("cluster.put_p99_us", write.p99_us, "sim_us"),
        ("cluster.put_failures", put_failures as f64, "count"),
        ("engine.events_per_op", events as f64 / ops, "events/op"),
        ("engine.steps_per_op", steps as f64 / ops, "steps/op"),
        ("nic.verbs_per_op", verbs as f64 / ops, "verbs/op"),
        (
            "nic.server_doorbells_per_op",
            server_db as f64 / ops,
            "1/op",
        ),
        ("nic.server_posts_per_op", server_posts as f64 / ops, "1/op"),
        (
            "nic.client_doorbells_per_op",
            client_db as f64 / ops,
            "1/op",
        ),
        (
            "ir.pool_bytes_per_op",
            (pool1.0 - pool0.0) as f64 / ops,
            "B/op",
        ),
        (
            "ir.pool_leases_per_op",
            (pool1.1 - pool0.1) as f64 / ops,
            "1/op",
        ),
        (
            "ir.get.verbs_per_op_before",
            get_ir.before.total() as f64 / f64::from(GET_DEPTH),
            "verbs/op",
        ),
        (
            "ir.get.verbs_per_op_after",
            get_ir.after.total() as f64 / f64::from(GET_DEPTH),
            "verbs/op",
        ),
        (
            "ir.put.verbs_per_op_before",
            put_ir.before.total() as f64 / f64::from(PUT_DEPTH),
            "verbs/op",
        ),
        (
            "ir.put.verbs_per_op_after",
            put_ir.after.total() as f64 / f64::from(PUT_DEPTH),
            "verbs/op",
        ),
        (
            "session.useful_reap_share",
            useful_reaps as f64 / reaps as f64,
            "share",
        ),
        (
            "cluster.useful_put_reap_share",
            useful_put_reaps as f64 / put_reaps as f64,
            "share",
        ),
    ]);
    rep.notes.push(format!(
        "{busiest}; get p50 {:.3} / p99 {:.3} us (n={}); \
         put p50 {:.3} / p99 {:.3} us (n={}); written keys re-read {}, acked-lost {lost}",
        read.p50_us,
        read.p99_us,
        read.count,
        write.p50_us,
        write.p99_us,
        write.count,
        acked.len(),
    ));

    if tr.enabled() {
        let run = tr.agg("run");
        let step = tr.agg("engine.step");
        let per = |name: &str| {
            let a = tr.agg(name);
            a.total_ns as f64 / a.count.max(1) as f64
        };
        rep.host = vec![
            (
                "engine.ns_per_event",
                step.total_ns as f64 / events as f64,
                "ns",
            ),
            (
                "engine.allocs_per_event",
                step.allocs as f64 / events as f64,
                "allocs/event",
            ),
            (
                "engine.step_share",
                step.total_ns as f64 / run.total_ns as f64,
                "share",
            ),
            ("session.post_ns_per_op", per("session.post"), "ns"),
            ("session.reap_ns_per_call", per("session.reap"), "ns"),
            ("cluster.put_post_ns_per_op", per("cluster.put_post"), "ns"),
            (
                "cluster.put_reap_ns_per_call",
                per("cluster.put_reap"),
                "ns",
            ),
            (
                "kv.populate_s",
                tr.agg("cluster.deploy").total_ns as f64 / 1e9,
                "s",
            ),
            (
                "cluster.connect_s",
                tr.agg("cluster.connect").total_ns as f64 / 1e9,
                "s",
            ),
            (
                "ir.deploy_s",
                tr.agg("cluster.connect").total_ns as f64 / 1e9,
                "s",
            ),
            (
                "loadgen.self_share",
                run.self_ns as f64 / run.total_ns as f64,
                "share",
            ),
        ];
    }
    Ok(rep)
}
