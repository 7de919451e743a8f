//! Multi-tenant packing, QoS and admission coverage (ISSUE-9): the
//! `TenantPacker` proven against random tenant mixes (every admitted
//! packing deploys through the `DeploymentVerifier` with zero
//! diagnostics and never exceeds a quota), typed rejections for
//! over-subscribed specs, the noisy-neighbor enforcement bounds, and
//! `FleetStats::merge` unioning per-tenant slices across packed fleets.

use proptest::prelude::*;
use redn::core::ctx::OffloadCtx;
use redn::core::offloads::hash_lookup::HashGetVariant;
use redn::kv::liststore::ListStore;
use redn::kv::memcached::MemcachedServer;
use redn::kv::serving::{FleetSpec, FleetStats, RunEnd, ServingFleet};
use redn::kv::tenancy::{NicGeometry, PackError, TenantPacker, TenantQuotas, TenantSpec};
use redn::kv::workload::Workload;
use rnic_sim::config::{HostConfig, LinkConfig, NicConfig, SimConfig};
use rnic_sim::ids::{NodeId, ProcessId};
use rnic_sim::sim::Simulator;

const NKEYS: u64 = 512;
const NLISTS: u64 = 64;
const WALK_NODES: usize = 4;

fn stand_up() -> (Simulator, NodeId, MemcachedServer, ListStore, OffloadCtx) {
    let mut sim = Simulator::new(SimConfig::default());
    let c = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
    let s = sim.add_node(
        "server",
        HostConfig::default(),
        NicConfig::connectx5().dual_port(),
    );
    sim.connect_nodes(c, s, LinkConfig::back_to_back());
    let server = MemcachedServer::create(&mut sim, s, 4096, 64, ProcessId(0)).unwrap();
    server.populate(&mut sim, NKEYS).unwrap();
    let store = ListStore::create(&mut sim, s, NLISTS, WALK_NODES, 64, ProcessId(0)).unwrap();
    let ctx = OffloadCtx::builder(s)
        .pool_capacity(1 << 24)
        .build(&mut sim)
        .unwrap();
    (sim, c, server, store, ctx)
}

/// Pack `tenants` onto the testbed NIC and deploy the packing — the
/// admitted placement must survive the deploy-time isolation proof.
fn deploy_packed(tenants: &[TenantSpec]) -> (Simulator, OffloadCtx, MemcachedServer, ServingFleet) {
    let (mut sim, c, server, store, mut ctx) = stand_up();
    let spec = FleetSpec::tenants(NicGeometry::of(&sim, server.node), tenants).unwrap();
    let workloads = if spec.get_clients() > 0 {
        Workload::split_sequential(NKEYS, spec.get_clients())
    } else {
        Vec::new()
    };
    let fleet = ServingFleet::deploy(
        &mut sim,
        &mut ctx,
        &server,
        Some(&store),
        c,
        spec,
        workloads,
    )
    .unwrap();
    (sim, ctx, server, fleet)
}

/// The tentpole acceptance bar: a packed fleet of >= 4 tenants on shared
/// PUs deploys through the `DeploymentVerifier` with zero diagnostics,
/// every proven program carries a tenant-qualified label, and each
/// tenant's slice stays fully NIC-armed through a closed-loop run.
#[test]
fn packed_four_tenant_fleet_proves_clean_and_stays_nic_armed() {
    let tenants = vec![
        TenantSpec::new("analytics").with_gets(2, 8, HashGetVariant::Sequential, true),
        // Sequential (two-probe) gets throughout: the Single variant
        // reports cuckoo-displaced keys as misses (no completion), which
        // the closed loop would book as timeouts.
        TenantSpec::new("cache").with_gets(1, 4, HashGetVariant::Sequential, true),
        TenantSpec::new("graph").with_walks(2, 4, WALK_NODES, true),
        TenantSpec::new("mixed")
            .with_gets(1, 4, HashGetVariant::Sequential, true)
            .with_walks(1, 4, WALK_NODES, true),
    ];
    let (mut sim, mut ctx, _server, mut fleet) = deploy_packed(&tenants);
    let report = fleet.isolation_report();
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.programs, 7);
    assert_eq!(report.labels.len(), 7);
    for label in &report.labels {
        assert!(
            label.contains('/'),
            "program label '{label}' is not tenant-qualified"
        );
    }
    let stats = fleet
        .run_closed_loop(&mut sim, ctx.pool_mut(), 40, 4)
        .unwrap();
    assert_eq!(stats.per_tenant.len(), 4);
    for ts in &stats.per_tenant {
        assert!(ts.ops > 0, "tenant '{}' completed nothing", ts.tenant);
        assert_eq!(
            ts.host_arm_calls, 0,
            "tenant '{}' took host arm calls",
            ts.tenant
        );
        assert_eq!(ts.timeouts, 0, "tenant '{}': {:?}", ts.tenant, ts);
    }
    assert_eq!(
        stats.per_tenant.iter().map(|t| t.ops).sum::<u64>(),
        stats.ops,
        "per-tenant slices must partition the aggregate"
    );
}

/// 1-8 random tenants: each 1-2 clients of one self-recycling family,
/// half of them carrying the tightest quotas that still admit (packing
/// must succeed and respect them).
fn arb_tenants() -> impl Strategy<Value = Vec<TenantSpec>> {
    prop::collection::vec((1usize..=2, 2u32..=6, any::<bool>(), any::<bool>()), 1..9).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (clients, depth, walks, quota))| {
                    let t = TenantSpec::new(format!("t{i}"));
                    let t = if walks {
                        t.with_walks(clients, depth, WALK_NODES, true)
                    } else {
                        t.with_gets(clients, depth, HashGetVariant::Sequential, true)
                    };
                    if quota {
                        // The tightest PU cap that still admits, plus a
                        // ring cap sized for the lowered ring (each armed
                        // instance lowers to several WQEs — body ops,
                        // fix-ups, restores — not just its floor slot).
                        let q = TenantQuotas {
                            pus: Some(t.pu_demand()),
                            ring_slots: Some(t.ring_slot_floor() * 16),
                            ..TenantQuotas::default()
                        };
                        t.with_quotas(q)
                    } else {
                        t
                    }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite 3: random 1-8 tenant mixes always produce packings
    /// that (a) place every client on a real port/PU, (b) claim exactly
    /// each tenant's PU demand and never exceed an admitted quota, and
    /// (c) deploy through the `DeploymentVerifier` with zero
    /// diagnostics.
    #[test]
    fn random_mixes_pack_within_quotas_and_prove_clean(tenants in arb_tenants()) {
        let geometry = NicGeometry { ports: 2, pus_per_port: 8 };
        let packing = TenantPacker::new(geometry).pack(&tenants).unwrap();
        let nclients: usize = tenants.iter().map(|t| t.clients()).sum();
        prop_assert_eq!(packing.placements.len(), nclients);
        for p in &packing.placements {
            prop_assert!(p.port < geometry.ports);
            prop_assert!(p.pu_base < geometry.pus_per_port);
        }
        prop_assert_eq!(packing.pus_claimed.len(), tenants.len());
        for (t, claimed) in tenants.iter().zip(&packing.pus_claimed) {
            prop_assert_eq!(*claimed, t.pu_demand());
            if let Some(cap) = t.quotas.pus {
                prop_assert!(*claimed <= cap, "tenant '{}' over quota", t.name);
            }
        }
        // The packing admits — now it must also prove clean end to end.
        let (_sim, _ctx, _server, fleet) = deploy_packed(&tenants);
        prop_assert!(fleet.isolation_report().diagnostics.is_empty());
        prop_assert_eq!(fleet.spec().tenants.len(), tenants.len());
    }
}

/// Satellite 3 (rejection half): an over-subscribed spec is refused
/// admission with a typed error naming both the tenant and the quota.
#[test]
fn oversubscribed_specs_rejected_with_typed_error_naming_the_quota() {
    let geometry = NicGeometry {
        ports: 2,
        pus_per_port: 8,
    };
    // PU quota: 3 recycled get clients demand 6 PUs, capped at 4.
    let pu_hog = vec![TenantSpec::new("pu-hog")
        .with_gets(3, 4, HashGetVariant::Sequential, true)
        .with_quotas(TenantQuotas {
            pus: Some(4),
            ..TenantQuotas::default()
        })];
    let err = TenantPacker::new(geometry).pack(&pu_hog).unwrap_err();
    assert_eq!(
        err,
        PackError::QuotaExceeded {
            tenant: "pu-hog".to_string(),
            quota: "pus",
            demand: 6,
            cap: 4,
        }
    );
    // Ring-slot quota: 2 clients x depth 8 floor 16 slots, capped at 10.
    let ring_hog = vec![TenantSpec::new("ring-hog")
        .with_gets(2, 8, HashGetVariant::Sequential, true)
        .with_quotas(TenantQuotas {
            ring_slots: Some(10),
            ..TenantQuotas::default()
        })];
    let err = TenantPacker::new(geometry).pack(&ring_hog).unwrap_err();
    assert_eq!(
        err,
        PackError::QuotaExceeded {
            tenant: "ring-hog".to_string(),
            quota: "ring_slots",
            demand: 16,
            cap: 10,
        }
    );
    // The rnic error it converts to keeps both names.
    let msg = rnic_sim::error::Error::from(err).to_string();
    assert!(
        msg.contains("ring-hog") && msg.contains("ring_slots"),
        "{msg}"
    );
}

/// Satellite 4: the noisy-neighbor regression. Tenant A is driven at
/// 4x or more of its rate cap next to an unpaced tenant B on shared
/// PUs; credit pacing must confine the overload to A — B's p99 stays
/// within 1.5x its solo run and its throughput within 10%.
#[test]
fn noisy_neighbor_overload_stays_confined_to_the_noisy_tenant() {
    let mut cfg = redn_bench::tenantbench::TenantSweepConfig::small();
    cfg.ops_per_client = 80;
    let p = redn_bench::tenantbench::noisy_neighbor_point(&cfg).unwrap();
    assert!(
        p.demand_x_cap >= 4.0,
        "A demanded only {:.2}x its cap",
        p.demand_x_cap
    );
    let requests = cfg.clients_per_tenant as u64 * cfg.ops_per_client;
    assert!(
        p.a_shed_posts > 0 && p.a_shed_posts <= requests,
        "A's pacer must engage and shed each of {requests} requests at most once: {}",
        p.a_shed_posts
    );
    assert!(
        p.p99_ratio <= 1.5,
        "B's p99 degraded {:.2}x solo (> 1.5x)",
        p.p99_ratio
    );
    assert!(
        p.tput_ratio >= 0.9,
        "B's throughput fell to {:.2}x solo (< 0.9x)",
        p.tput_ratio
    );
}

/// The open loop paces a rate-capped tenant too: every request still
/// completes, the capped tenant's pacing delay is charged to its
/// scheduled-time latency, and its unpaced neighbor stays within the
/// noisy-neighbor bound (1.5x) of its solo p99.
#[test]
fn open_loop_paces_a_capped_tenant_and_spares_its_neighbor() {
    const OPS: u64 = 100;
    // Per client; the capped tenant is offered 4x its cap.
    const RATE: f64 = 100_000.0;
    let gets = |name: &str| TenantSpec::new(name).with_gets(1, 4, HashGetVariant::Sequential, true);
    let (mut sim, mut ctx, _server, mut fleet) = deploy_packed(&[gets("free")]);
    let solo = fleet
        .run_open_loop(&mut sim, ctx.pool_mut(), OPS, RATE)
        .unwrap();
    let (mut sim, mut ctx, _server, mut fleet) =
        deploy_packed(&[gets("capped").rate_cap(RATE / 4.0), gets("free")]);
    let packed = fleet
        .run_open_loop(&mut sim, ctx.pool_mut(), OPS, RATE)
        .unwrap();
    assert_eq!(packed.end, RunEnd::Completed);
    assert_eq!(
        packed.ops,
        2 * OPS,
        "pacing defers posts, it never drops them"
    );
    let capped = &packed.per_tenant[0];
    let (sched, svc) = (
        capped.latency.unwrap().p99_us,
        capped.service_latency.unwrap().p99_us,
    );
    assert!(
        sched > svc,
        "pacing delay must be charged: sched p99 {sched} vs service p99 {svc}"
    );
    assert!(capped.shed_posts > 0 && capped.shed_posts <= OPS);
    let free_p99 = packed.per_tenant[1].latency.unwrap().p99_us;
    let solo_p99 = solo.per_tenant[0].latency.unwrap().p99_us;
    assert!(
        free_p99 <= 1.5 * solo_p99,
        "neighbor p99 {free_p99} vs solo {solo_p99} (> 1.5x)"
    );
}

/// A tenant capped far below its demand cannot finish before the run's
/// simulated-time deadline; the run says so with a typed end.
#[test]
fn a_run_paced_past_its_deadline_ends_typed() {
    let slow = TenantSpec::new("slow")
        .with_gets(1, 4, HashGetVariant::Sequential, true)
        .rate_cap(10.0);
    let (mut sim, mut ctx, _server, mut fleet) = deploy_packed(&[slow]);
    let stats = fleet
        .run_closed_loop(&mut sim, ctx.pool_mut(), 100, 4)
        .unwrap();
    assert_eq!(stats.end, RunEnd::Deadline);
    assert!(stats.ops < 100, "{} ops in 5 s at 10 ops/s", stats.ops);
}

fn run_pair(a: &str, b: &str) -> FleetStats {
    let tenants = vec![
        TenantSpec::new(a).with_gets(1, 4, HashGetVariant::Sequential, true),
        TenantSpec::new(b).with_gets(1, 4, HashGetVariant::Sequential, true),
    ];
    let (mut sim, mut ctx, _server, mut fleet) = deploy_packed(&tenants);
    fleet
        .run_closed_loop(&mut sim, ctx.pool_mut(), 30, 4)
        .unwrap()
}

/// Satellite 2: merging two packed fleets' stats unions the per-tenant
/// slices — shared tenants' slices merge count-weighted (latency
/// distributions included), disjoint tenants pass through — without
/// dropping anything from the aggregate.
#[test]
fn merge_unions_per_tenant_slices_across_packed_fleets() {
    let one = run_pair("alpha", "beta");
    let two = run_pair("beta", "gamma");
    let merged = one.merge(&two);
    assert_eq!(merged.ops, one.ops + two.ops);
    assert_eq!(merged.per_tenant.len(), 3, "alpha, beta (merged), gamma");
    let slice = |name: &str| {
        merged
            .per_tenant
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("missing tenant '{name}'"))
    };
    let beta_one = one.per_tenant.iter().find(|t| t.tenant == "beta").unwrap();
    let beta_two = two.per_tenant.iter().find(|t| t.tenant == "beta").unwrap();
    let beta = slice("beta");
    assert_eq!(beta.ops, beta_one.ops + beta_two.ops);
    // The merged distribution is count-weighted, not dropped: it stays
    // within the two runs' envelope.
    let (l1, l2, lm) = (
        beta_one.latency.unwrap(),
        beta_two.latency.unwrap(),
        beta.latency.unwrap(),
    );
    assert!(lm.p99_us >= l1.p99_us.min(l2.p99_us) - 1e-9);
    assert!(lm.p99_us <= l1.p99_us.max(l2.p99_us) + 1e-9);
    assert_eq!(slice("alpha").ops, 30);
    assert_eq!(slice("gamma").ops, 30);
    assert_eq!(
        merged.per_tenant.iter().map(|t| t.ops).sum::<u64>(),
        merged.ops
    );
}
