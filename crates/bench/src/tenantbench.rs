//! Multi-tenant serving benchmarks: the `tenants` sweep row and the
//! noisy-neighbor enforcement row of `BENCH_throughput.json`.
//!
//! Two artifacts, both over fleets packed by the
//! [`TenantPacker`](redn_kv::tenancy::TenantPacker) onto one dual-port
//! NIC's shared processing units:
//!
//! * [`tenants_point`] — N named tenants (alternating offload families)
//!   driven closed-loop side by side. The row proves the packing serves
//!   every tenant (per-tenant ops/throughput/latency split, zero
//!   steady-state arm calls *per tenant*) at an aggregate throughput CI
//!   gates against the committed baseline;
//! * [`noisy_neighbor_point`] — the QoS enforcement experiment. Tenant
//!   A's rate cap is set to `1/overdrive` of its measured solo
//!   capacity, so its closed-loop generator *demands* `overdrive`× its
//!   cap (≥ 4× by default); tenant B runs unpaced next to it. The row
//!   compares B's packed p99 and throughput against B's solo run: with
//!   credit pacing shedding A's own posts, B's p99 must stay within
//!   1.5× solo and its throughput within 10% — A's overload is A's
//!   problem.

use redn_core::ctx::OffloadCtx;
use redn_core::offloads::hash_lookup::HashGetVariant;
use rnic_sim::config::NicConfig;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::ProcessId;

use redn_kv::liststore::ListStore;
use redn_kv::memcached::MemcachedServer;
use redn_kv::serving::{FleetSpec, FleetStats, ServingFleet, TenantStats};
use redn_kv::tenancy::{NicGeometry, TenantSpec};
use redn_kv::workload::Workload;

use crate::testbed_with;

/// Geometry of the multi-tenant sweeps.
#[derive(Clone, Debug)]
pub struct TenantSweepConfig {
    /// Tenants packed side by side in the `tenants` row.
    pub ntenants: usize,
    /// Client sessions per tenant.
    pub clients_per_tenant: usize,
    /// Armed instances per client.
    pub pipeline_depth: u32,
    /// Closed-loop window per client.
    pub window: u32,
    /// Requests completed per client.
    pub ops_per_client: u64,
    /// Populated keys.
    pub nkeys: u64,
    /// Value bytes per request.
    pub value_len: u32,
    /// Server NIC ports (2 = dual-port, the packed-PU config).
    pub server_ports: usize,
    /// Unroll factor of walk-family tenants.
    pub walk_max_nodes: usize,
    /// How many × its rate cap the noisy tenant is driven at (the cap is
    /// derived as `solo capacity / overdrive`, so the closed-loop demand
    /// is `overdrive`× the cap by construction). Must be ≥ 4 to satisfy
    /// the committed noisy-neighbor row's acceptance bound.
    pub overdrive: f64,
}

impl TenantSweepConfig {
    /// CI-sized configuration.
    pub fn small() -> TenantSweepConfig {
        TenantSweepConfig {
            ntenants: 4,
            clients_per_tenant: 1,
            pipeline_depth: 8,
            window: 8,
            ops_per_client: 150,
            nkeys: 1024,
            value_len: 64,
            server_ports: 2,
            walk_max_nodes: 4,
            overdrive: 5.0,
        }
    }

    /// Full configuration (the committed `BENCH_throughput.json`).
    pub fn full() -> TenantSweepConfig {
        TenantSweepConfig {
            ntenants: 4,
            clients_per_tenant: 2,
            pipeline_depth: 16,
            window: 16,
            ops_per_client: 1000,
            nkeys: 4096,
            value_len: 64,
            server_ports: 2,
            walk_max_nodes: 4,
            overdrive: 5.0,
        }
    }
}

/// The N-tenant packed-fleet row.
#[derive(Clone, Debug)]
pub struct TenantsPoint {
    /// Tenants packed on the NIC.
    pub ntenants: usize,
    /// Closed-loop window per client.
    pub k: u32,
    /// The run's stats; [`FleetStats::per_tenant`] carries the split.
    pub stats: FleetStats,
}

/// The noisy-neighbor enforcement row.
#[derive(Clone, Debug)]
pub struct NoisyNeighborPoint {
    /// Tenant A's rate cap, ops/s.
    pub cap_ops_per_sec: f64,
    /// How many × the cap A's generator demanded (measured solo
    /// capacity / cap — ≥ 4 for the committed row).
    pub demand_x_cap: f64,
    /// A's achieved (paced) throughput in the packed run.
    pub a_ops_per_sec: f64,
    /// Trigger posts A's pacer deferred in the packed run.
    pub a_shed_posts: u64,
    /// Tenant B alone on the NIC: p99, µs.
    pub b_solo_p99_us: f64,
    /// Tenant B alone: throughput.
    pub b_solo_ops_per_sec: f64,
    /// B packed next to the overdriven A: p99, µs.
    pub b_packed_p99_us: f64,
    /// B packed next to A: throughput.
    pub b_packed_ops_per_sec: f64,
    /// `b_packed_p99 / b_solo_p99` — the committed bound is ≤ 1.5.
    pub p99_ratio: f64,
    /// `b_packed_tput / b_solo_tput` — the committed bound is ≥ 0.9.
    pub tput_ratio: f64,
}

fn server_nic(cfg: &TenantSweepConfig) -> NicConfig {
    if cfg.server_ports == 2 {
        NicConfig::connectx5().dual_port()
    } else {
        NicConfig::connectx5()
    }
}

/// Stand up a fresh testbed, pack `tenants` onto the server NIC, deploy,
/// and run one closed loop. Every call gets its own simulator so points
/// are independent.
fn run_packed(cfg: &TenantSweepConfig, tenants: &[TenantSpec]) -> Result<FleetStats> {
    let (mut sim, client, server_node) = testbed_with(server_nic(cfg));
    let nbuckets = (cfg.nkeys * 4).next_power_of_two();
    let server =
        MemcachedServer::create(&mut sim, server_node, nbuckets, cfg.value_len, ProcessId(0))?;
    server.populate(&mut sim, cfg.nkeys)?;
    let mut ctx = OffloadCtx::builder(server_node)
        .pool_capacity(1 << 24)
        .build(&mut sim)?;
    let spec = FleetSpec::tenants(NicGeometry::of(&sim, server_node), tenants)?;
    let nwalkers = spec.walk_clients();
    let store = if nwalkers > 0 {
        Some(ListStore::create(
            &mut sim,
            server_node,
            (nwalkers as u64) * 8,
            cfg.walk_max_nodes,
            cfg.value_len,
            ProcessId(0),
        )?)
    } else {
        None
    };
    let workloads = Workload::split_sequential(cfg.nkeys, spec.get_clients());
    let mut fleet = ServingFleet::deploy(
        &mut sim,
        &mut ctx,
        &server,
        store.as_ref(),
        client,
        spec,
        workloads,
    )?;
    fleet.run_closed_loop(&mut sim, ctx.pool_mut(), cfg.ops_per_client, cfg.window)
}

/// The sweep's tenant mix: `ntenants` named tenants, alternating
/// offload families (even = hash-gets, odd = list-walks), all
/// self-recycling, all unpaced and quota-less — the shared-PU packing
/// itself is what the row measures.
fn sweep_tenants(cfg: &TenantSweepConfig) -> Vec<TenantSpec> {
    (0..cfg.ntenants)
        .map(|i| {
            let t = TenantSpec::new(format!("tenant-{i}"));
            if i % 2 == 0 {
                t.with_gets(
                    cfg.clients_per_tenant,
                    cfg.pipeline_depth,
                    HashGetVariant::Sequential,
                    true,
                )
            } else {
                t.with_walks(
                    cfg.clients_per_tenant,
                    cfg.pipeline_depth,
                    cfg.walk_max_nodes,
                    true,
                )
            }
        })
        .collect()
}

/// Run the `tenants` row: N tenants packed on shared PUs, closed loop.
pub fn tenants_point(cfg: &TenantSweepConfig) -> Result<TenantsPoint> {
    let stats = run_packed(cfg, &sweep_tenants(cfg))?;
    Ok(TenantsPoint {
        ntenants: cfg.ntenants,
        k: cfg.window,
        stats,
    })
}

fn one_tenant(cfg: &TenantSweepConfig, name: &str) -> TenantSpec {
    TenantSpec::new(name).with_gets(
        cfg.clients_per_tenant,
        cfg.pipeline_depth,
        HashGetVariant::Sequential,
        true,
    )
}

fn tenant_slice<'a>(stats: &'a FleetStats, name: &str) -> Result<&'a TenantStats> {
    stats
        .per_tenant
        .iter()
        .find(|t| t.tenant == name)
        .ok_or(Error::InvalidWr("tenant slice missing from run stats"))
}

/// Run the noisy-neighbor enforcement experiment (see the module docs).
pub fn noisy_neighbor_point(cfg: &TenantSweepConfig) -> Result<NoisyNeighborPoint> {
    // 1. Tenant B solo: the baseline its packed run is held to.
    let b_solo = run_packed(cfg, &[one_tenant(cfg, "tenant-b")])?;
    let b_solo_slice = tenant_slice(&b_solo, "tenant-b")?;
    let b_solo_p99 = b_solo_slice
        .latency
        .ok_or(Error::InvalidWr("solo B run recorded no latency"))?
        .p99_us;
    let b_solo_tput = b_solo_slice.ops_per_sec;

    // 2. Tenant A solo, unpaced: its natural capacity. The cap is set to
    //    1/overdrive of it, so the packed closed loop demands
    //    `overdrive`× the cap by construction.
    let a_solo = run_packed(cfg, &[one_tenant(cfg, "tenant-a")])?;
    let a_capacity = tenant_slice(&a_solo, "tenant-a")?.ops_per_sec;
    let cap = a_capacity / cfg.overdrive;

    // 3. The packed run: overdriven-but-capped A next to unpaced B.
    let packed = run_packed(
        cfg,
        &[
            one_tenant(cfg, "tenant-a").rate_cap(cap),
            one_tenant(cfg, "tenant-b"),
        ],
    )?;
    let a = tenant_slice(&packed, "tenant-a")?;
    let b = tenant_slice(&packed, "tenant-b")?;
    let b_packed_p99 = b
        .latency
        .ok_or(Error::InvalidWr("packed B run recorded no latency"))?
        .p99_us;
    Ok(NoisyNeighborPoint {
        cap_ops_per_sec: cap,
        demand_x_cap: a_capacity / cap,
        a_ops_per_sec: a.ops_per_sec,
        a_shed_posts: a.shed_posts,
        b_solo_p99_us: b_solo_p99,
        b_solo_ops_per_sec: b_solo_tput,
        b_packed_p99_us: b_packed_p99,
        b_packed_ops_per_sec: b.ops_per_sec,
        p99_ratio: b_packed_p99 / b_solo_p99,
        tput_ratio: b.ops_per_sec / b_solo_tput,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_row_serves_every_tenant_with_zero_arms() {
        let mut cfg = TenantSweepConfig::small();
        cfg.ops_per_client = 60;
        let p = tenants_point(&cfg).unwrap();
        assert_eq!(p.stats.per_tenant.len(), cfg.ntenants);
        let per_client = cfg.ops_per_client;
        for ts in &p.stats.per_tenant {
            assert_eq!(ts.ops, cfg.clients_per_tenant as u64 * per_client);
            assert_eq!(ts.host_arm_calls, 0, "'{}' stays NIC-armed", ts.tenant);
            assert_eq!(ts.timeouts, 0);
            assert!(ts.ops_per_sec > 0.0);
        }
        assert_eq!(
            p.stats.per_tenant.iter().map(|t| t.ops).sum::<u64>(),
            p.stats.ops
        );
    }

    #[test]
    fn noisy_neighbor_row_holds_the_committed_bounds() {
        let mut cfg = TenantSweepConfig::small();
        cfg.ops_per_client = 80;
        let p = noisy_neighbor_point(&cfg).unwrap();
        assert!(
            p.demand_x_cap >= 4.0,
            "A must demand >= 4x its cap, got {:.2}x",
            p.demand_x_cap
        );
        let requests = cfg.clients_per_tenant as u64 * cfg.ops_per_client;
        assert!(
            p.a_shed_posts > 0 && p.a_shed_posts <= requests,
            "the cap engaged, and each of A's {requests} requests is shed at most once: {}",
            p.a_shed_posts
        );
        assert!(
            p.a_ops_per_sec <= p.cap_ops_per_sec * 1.25,
            "A holds ~its cap: {:.0} vs cap {:.0}",
            p.a_ops_per_sec,
            p.cap_ops_per_sec
        );
        assert!(
            p.p99_ratio <= 1.5,
            "B's p99 stays within 1.5x solo, got {:.2}x",
            p.p99_ratio
        );
        assert!(
            p.tput_ratio >= 0.9,
            "B's throughput stays within 10% of solo, got {:.2}x",
            p.tput_ratio
        );
    }
}
