//! The two `ServingFleet` workloads: `get_closed` (self-recycling
//! hash-gets, closed loop at NIC saturation) and `armed_mixed_open`
//! (host-armed gets and list walks, open loop below the knee).

use redn_bench::testbed_with;
use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_kv::liststore::ListStore;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, ServiceSpec, ServingFleet};
use redn_kv::session::{Session, SessionOpts};
use redn_kv::workload::Workload;
use rnic_sim::config::NicConfig;
use rnic_sim::error::Result;
use rnic_sim::ids::ProcessId;

use crate::common::{busy, populated_value, record_utilization, reread, Clock, Rep, Rng};
use crate::trace::Tracer;

/// How the generator offers load.
#[derive(Clone, Copy)]
pub enum Load {
    /// Every client keeps `k` requests outstanding.
    Closed { k: u32 },
    /// Every client sends at a fixed rate, requests per simulated second.
    Open { per_client: f64 },
}

/// One fleet workload's shape.
pub struct FleetCfg {
    pub get_clients: usize,
    pub walk_clients: usize,
    pub depth: u32,
    pub recycled: bool,
    pub variant: HashGetVariant,
    pub walk_nodes: usize,
    pub nkeys: u64,
    pub value_len: u32,
    pub ops_per_client: u64,
    pub load: Load,
    /// Keys (and walks) re-read through a fresh session after the run.
    pub reread: usize,
}

pub const GET_CLOSED: FleetCfg = FleetCfg {
    get_clients: 16,
    walk_clients: 0,
    depth: 16,
    recycled: true,
    variant: HashGetVariant::Sequential,
    walk_nodes: 0,
    nkeys: 16 * 1024,
    value_len: 64,
    ops_per_client: 1024,
    load: Load::Closed { k: 16 },
    reread: 256,
};

pub const ARMED_MIXED_OPEN: FleetCfg = FleetCfg {
    get_clients: 6,
    walk_clients: 2,
    depth: 16,
    recycled: false,
    variant: HashGetVariant::Parallel,
    walk_nodes: 8,
    nkeys: 16 * 1024,
    value_len: 64,
    ops_per_client: 1024,
    load: Load::Open {
        per_client: 20_000.0,
    },
    reread: 64,
};

/// Lists each walk client owns in the `ListStore`.
const LISTS_PER_WALKER: u64 = 8;

pub fn rep(cfg: &FleetCfg, seed: u64, tr: &mut Tracer) -> Result<Rep> {
    let mut rep = Rep::default();
    let mut rng = Rng::new(seed);

    // Inputs: each hash-get client's key order, from the seed. The
    // program receives only the keys.
    let mut keys: Vec<u64> = (1..=cfg.nkeys).collect();
    rng.shuffle(&mut keys);
    let share = keys.len() / cfg.get_clients;
    let workloads: Vec<Workload> = keys
        .chunks(share)
        .take(cfg.get_clients)
        .map(|c| Workload::from_keys(c.to_vec()))
        .collect();

    // Set-up: testbed, populate, deploy (IR lowering + static analysis).
    let t0 = Clock::start();
    tr.enter("setup", None);
    let (mut sim, client, server_node) = tr.span("rnic.testbed", None, || {
        testbed_with(NicConfig::connectx5().dual_port())
    });
    let nbuckets = (cfg.nkeys * 4).next_power_of_two();
    let server = tr.span("kv.create", None, || {
        MemcachedServer::create(&mut sim, server_node, nbuckets, cfg.value_len, ProcessId(0))
    })?;
    tr.span("kv.populate", None, || server.populate(&mut sim, cfg.nkeys))?;
    let store = if cfg.walk_clients > 0 {
        Some(tr.span("kv.populate", None, || {
            ListStore::create(
                &mut sim,
                server_node,
                cfg.walk_clients as u64 * LISTS_PER_WALKER,
                cfg.walk_nodes,
                cfg.value_len,
                ProcessId(0),
            )
        })?)
    } else {
        None
    };
    let mut ctx = tr.span("ctx.build", None, || {
        OffloadCtx::builder(server_node)
            .pool_capacity(1 << 24)
            .build(&mut sim)
    })?;
    let mut services = vec![ServiceSpec::gets(
        cfg.get_clients,
        cfg.depth,
        cfg.variant,
        cfg.recycled,
    )];
    if cfg.walk_clients > 0 {
        services.push(ServiceSpec::walks(
            cfg.walk_clients,
            cfg.depth,
            cfg.walk_nodes,
            cfg.recycled,
        ));
    }
    let mut fleet = tr.span("serving.deploy", None, || {
        ServingFleet::deploy(
            &mut sim,
            &mut ctx,
            &server,
            store.as_ref(),
            client,
            FleetSpec::new(services),
            workloads,
        )
    })?;
    tr.exit();
    (rep.setup_ns, rep.setup_cpu_ns) = t0.elapsed();

    // Timed run.
    let nclients = (cfg.get_clients + cfg.walk_clients) as u64;
    let planned = nclients * cfg.ops_per_client;
    let events0 = sim.events_processed();
    let verbs0 = sim.verbs_executed(server_node);
    let busy0 = [busy(&sim, server_node)];
    let pool0 = (ctx.pool_mut().high_water(), ctx.pool_mut().leases());
    let start = sim.now();
    let t1 = Clock::start();
    tr.enter("run", None);
    let stats = tr.span("serving.run", None, || match cfg.load {
        Load::Closed { k } => {
            fleet.run_closed_loop(&mut sim, ctx.pool_mut(), cfg.ops_per_client, k)
        }
        Load::Open { per_client } => {
            fleet.run_open_loop(&mut sim, ctx.pool_mut(), cfg.ops_per_client, per_client)
        }
    })?;
    tr.exit();
    (rep.run_ns, rep.run_cpu_ns) = t1.elapsed();
    let elapsed_ps = (sim.now() - start).as_ps();
    let events = sim.events_processed() - events0;
    let verbs = sim.verbs_executed(server_node) - verbs0;
    let busiest = record_utilization(&mut rep, &sim, &[server_node], &busy0, elapsed_ps);
    let pool_bytes = ctx.pool_mut().high_water() - pool0.0;
    let pool_leases = ctx.pool_mut().leases() - pool0.1;

    // Correctness of the run itself.
    rep.ops = stats.ops;
    rep.attempted += planned;
    rep.failed += planned - stats.ops.min(planned);
    rep.check(stats.ops == planned, || {
        format!("completed {} of {planned} requests", stats.ops)
    });
    rep.check(stats.timeouts == 0, || {
        format!("{} timeouts", stats.timeouts)
    });
    rep.check(
        stats.get_ops == cfg.get_clients as u64 * cfg.ops_per_client
            && stats.walk_ops == cfg.walk_clients as u64 * cfg.ops_per_client,
        || format!("get/walk split {}/{}", stats.get_ops, stats.walk_ops),
    );
    if cfg.recycled {
        rep.check(stats.host_arm_calls == 0, || {
            format!(
                "recycled fleet made {} host arm calls",
                stats.host_arm_calls
            )
        });
    }
    if let Some(offered) = stats.offered_ops_per_sec {
        rep.check(stats.ops_per_sec >= 0.99 * offered, || {
            format!(
                "open loop fell behind: achieved {:.0}/s of {offered:.0}/s offered",
                stats.ops_per_sec
            )
        });
    }

    // Re-read a seeded sample through fresh sessions.
    tr.enter("verify", None);
    let opts = SessionOpts {
        pipeline_depth: cfg.depth,
        self_recycling: cfg.recycled,
        port: 0,
        pu_base: 0,
    };
    let mut gs = tr.span("session.connect", None, || {
        Session::connect_get(&mut sim, &mut ctx, &server, client, cfg.variant, opts)
    })?;
    let sample: Vec<u64> = (0..cfg.reread).map(|_| 1 + rng.below(cfg.nkeys)).collect();
    rep.attempted += sample.len() as u64;
    let bad = reread(
        &mut sim,
        ctx.pool_mut(),
        &mut gs,
        &sample,
        u64::from(cfg.value_len),
        |s, sim, keys| Ok(s.get_burst(sim, keys)?.iter().map(|p| p.instance).collect()),
        |k| populated_value(k, cfg.value_len),
    )?;
    rep.failed += bad.len() as u64;
    rep.errors.extend(bad);
    let ir = gs.ir_report();
    if let Some(store) = &store {
        let mut ws = tr.span("session.connect", None, || {
            Session::connect_walk(&mut sim, &mut ctx, store, client, cfg.walk_nodes, opts)
        })?;
        let walks: Vec<(u64, u64)> = (0..cfg.reread)
            .map(|_| {
                let list = rng.below(store.nlists);
                let pos = rng.below(store.nodes_per_list as u64) as usize;
                (store.head(list), store.key_of(list, pos))
            })
            .collect();
        rep.attempted += walks.len() as u64;
        let bad = reread(
            &mut sim,
            ctx.pool_mut(),
            &mut ws,
            &walks,
            u64::from(cfg.value_len),
            |s, sim, reqs| {
                Ok(s.walk_burst(sim, reqs)?
                    .iter()
                    .map(|p| p.instance)
                    .collect())
            },
            |(_, k)| populated_value(k, cfg.value_len),
        )?;
        rep.failed += bad.len() as u64;
        rep.errors.extend(bad);
    }
    tr.exit();

    // Figures.
    let ops = stats.ops.max(1) as f64;
    let lat = stats.latency.expect("requests completed");
    let svc = stats.service_latency.expect("requests completed");
    rep.sim.extend([
        ("sim_ops_per_s", stats.ops_per_sec, "ops/sim_s"),
        ("sim_read_p50_us", lat.p50_us, "sim_us"),
        ("sim_read_p99_us", lat.p99_us, "sim_us"),
        ("sim_op_p50_us", lat.p50_us, "sim_us"),
        ("sim_op_p99_us", lat.p99_us, "sim_us"),
        ("loadgen.read_samples", lat.count as f64, "count"),
        ("engine.events_per_op", events as f64 / ops, "events/op"),
        ("nic.verbs_per_op", verbs as f64 / ops, "verbs/op"),
        (
            "nic.server_doorbells_per_op",
            stats.server_doorbells as f64 / ops,
            "1/op",
        ),
        (
            "nic.server_posts_per_op",
            stats.server_posts as f64 / ops,
            "1/op",
        ),
        (
            "nic.client_doorbells_per_op",
            stats.client_doorbells as f64 / ops,
            "1/op",
        ),
        (
            "ir.arm_calls_per_op",
            stats.host_arm_calls as f64 / ops,
            "1/op",
        ),
        ("ir.pool_bytes_per_op", pool_bytes as f64 / ops, "B/op"),
        ("ir.pool_leases_per_op", pool_leases as f64 / ops, "1/op"),
        ("serving.timeouts", stats.timeouts as f64, "count"),
        ("serving.queue_p99_us", lat.p99_us - svc.p99_us, "sim_us"),
    ]);
    if let Some(ir) = ir {
        let depth = f64::from(cfg.depth);
        rep.sim.push((
            "ir.get.verbs_per_op_before",
            ir.before.total() as f64 / depth,
            "verbs/op",
        ));
        rep.sim.push((
            "ir.get.verbs_per_op_after",
            ir.after.total() as f64 / depth,
            "verbs/op",
        ));
    }
    rep.notes.push(format!(
        "{busiest}; latency from scheduled time: \
         p50 {:.3} us / p99 {:.3} us / max {:.3} us (n={}); service time p99 {:.3} us; \
         arm calls {}; pool +{pool_bytes} B",
        lat.p50_us, lat.p99_us, lat.max_us, lat.count, svc.p99_us, stats.host_arm_calls,
    ));

    if tr.enabled() {
        let run = tr.agg("run");
        let serve = tr.agg("serving.run");
        rep.host = vec![
            (
                "engine.ns_per_event",
                serve.total_ns as f64 / events as f64,
                "ns",
            ),
            (
                "engine.allocs_per_event",
                serve.allocs as f64 / events as f64,
                "allocs/event",
            ),
            ("serving.run_ns_per_op", serve.total_ns as f64 / ops, "ns"),
            (
                "kv.populate_s",
                tr.agg("kv.populate").total_ns as f64 / 1e9,
                "s",
            ),
            (
                "ir.deploy_s",
                tr.agg("serving.deploy").total_ns as f64 / 1e9,
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
