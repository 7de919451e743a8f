//! Cluster-level evaluation: sharded multi-node serving throughput and
//! the kill-a-node failover soak (`BENCH_throughput.json` rows
//! `cluster` and `failover`).
//!
//! Two measurements on a [`Cluster`] of N server nodes:
//!
//! * **Read path** — one [`ServingFleet`] per node, each node's clients
//!   drawing keys from that shard's partition
//!   ([`Cluster::owned_keys`]). The nodes are independent serving
//!   stacks (own NIC, own table, own offload context), so the fleets
//!   run back to back in the shared simulator and their
//!   [`FleetStats`] merge: per-node throughputs sum (the nodes would
//!   run concurrently in the real deployment), latency percentiles are
//!   count-weighted, and the host-involvement counters sum — the
//!   cluster row inherits the single-node zero-arm-call property.
//! * **Failover soak** — a [`ClusterSession`] streams acked PUTs
//!   through one shard's NIC-resident replication chain, the primary's
//!   serving process is killed mid-stream, and the soak measures the
//!   client-observed timeline: typed-failure detection, backup
//!   promotion (journal replay), re-replication to a fresh backup, and
//!   the first post-recovery ack (the p99 blip). Every previously
//!   acked record is then read back through the promoted shard —
//!   `acked_lost` must be 0.
//!
//! Steady-state replication cost is gated structurally: the chain is a
//! §3.4 recycled program with no host `arm()` path, and any host
//! involvement would ring doorbells or post WQEs on the primary — both
//! measured as per-put deltas here and required to be exactly zero.

use redn_cluster::cluster::{Cluster, ClusterSpec};
use redn_cluster::failover::FailoverController;
use redn_cluster::session::ClusterSession;
use redn_core::offloads::hash_lookup::HashGetVariant;
use redn_kv::serving::{FleetSpec, FleetStats, ServingFleet};
use redn_kv::session::SessionOpts;
use redn_kv::workload::{latency_stats, Workload};
use rnic_sim::error::{Error, Result};

/// Cluster sweep geometry.
#[derive(Clone, Debug)]
pub struct ClusterSweepConfig {
    /// Server nodes (one shard each).
    pub nodes: usize,
    /// Hash-get clients per node (total = `nodes * clients_per_node`).
    pub clients_per_node: usize,
    /// Armed instances per get client.
    pub pipeline_depth: u32,
    /// Closed-loop window per get client.
    pub window: u32,
    /// Requests completed per get client.
    pub ops_per_client: u64,
    /// Populated keys, partitioned across shards.
    pub nkeys: u64,
    /// Value bytes.
    pub value_len: u32,
    /// In-flight PUT window for the soak's replication chain.
    pub put_depth: u32,
    /// Acked PUTs streamed before the kill.
    pub steady_puts: usize,
    /// Acked PUTs streamed after recovery.
    pub post_puts: usize,
}

impl ClusterSweepConfig {
    /// The CI-sized cluster sweep — still the full 4-node / 64-client
    /// geometry (the acceptance row), just fewer ops per client.
    pub fn small() -> ClusterSweepConfig {
        ClusterSweepConfig {
            nodes: 4,
            clients_per_node: 16,
            pipeline_depth: 4,
            window: 4,
            ops_per_client: 100,
            nkeys: 2048,
            value_len: 16,
            put_depth: 4,
            steady_puts: 24,
            post_puts: 8,
        }
    }

    /// The committed-artifact sweep.
    pub fn full() -> ClusterSweepConfig {
        ClusterSweepConfig {
            ops_per_client: 400,
            nkeys: 4096,
            steady_puts: 64,
            post_puts: 16,
            ..ClusterSweepConfig::small()
        }
    }

    fn spec(&self) -> ClusterSpec {
        ClusterSpec {
            nodes: self.nodes,
            nkeys: self.nkeys,
            value_len: self.value_len,
            nbuckets: (self.nkeys * 4).next_power_of_two(),
            put_depth: self.put_depth,
            journal_capacity: (self.steady_puts + self.post_puts + 8) as u64,
        }
    }
}

/// The sharded read-path point: N per-node fleets merged.
#[derive(Clone, Debug)]
pub struct ClusterPoint {
    /// Server nodes.
    pub nodes: usize,
    /// Total get clients across the cluster.
    pub clients: usize,
    /// Closed-loop window per client.
    pub k: u32,
    /// Merged stats (throughput summed, percentiles count-weighted).
    pub stats: FleetStats,
}

/// The kill-a-node soak: client-observed failover timeline plus the
/// replication chain's steady-state host cost.
#[derive(Clone, Copy, Debug)]
pub struct FailoverPoint {
    /// p99 over the steady (pre-kill + post-recovery) put acks, µs.
    pub steady_p99_us: f64,
    /// Kill-to-first-post-recovery-ack — the worst client-observed
    /// write stall, µs.
    pub blip_us: f64,
    /// Kill-to-typed-failure at the client (dead-QP timeout), µs.
    pub detection_us: f64,
    /// Backup promotion (journal replay + re-route), µs.
    pub promote_us: f64,
    /// Journal copy to the fresh backup, µs.
    pub rereplicate_us: f64,
    /// Records replayed into the promoted table.
    pub records_recovered: u64,
    /// Acked writes unreadable after failover (must be 0).
    pub acked_lost: u64,
    /// Optimized WQEs per replicated put (chain cost on the NIC).
    pub repl_verbs_per_op: f64,
    /// Primary doorbells per steady-state put (must be 0 — §3.4).
    pub repl_primary_doorbells_per_put: f64,
    /// Primary WQE posts per steady-state put (must be 0 — §3.4).
    pub repl_primary_posts_per_put: f64,
    /// Host `arm()` calls per steady-state put. The recycled chain has
    /// no arm path, and a host re-arm would surface in the doorbell /
    /// post deltas above; all three are gated to 0 together.
    pub repl_primary_arm_calls_per_put: f64,
}

/// First `n` keys above the populated range owned by shard `s` — fresh
/// inserts for the put soak.
fn fresh_keys(cluster: &Cluster, s: usize, n: usize) -> Vec<u64> {
    (cluster.spec.nkeys + 1..)
        .filter(|&k| cluster.shard_for(k) == s)
        .take(n)
        .collect()
}

/// The sharded read path: deploy the cluster, run one closed-loop
/// [`ServingFleet`] per node over its own key partition, merge.
pub fn cluster_read_point(cfg: &ClusterSweepConfig) -> Result<ClusterPoint> {
    let (mut sim, mut cluster) = Cluster::deploy(cfg.spec())?;
    let client = cluster.client;
    let mut merged: Option<FleetStats> = None;
    for s in 0..cfg.nodes {
        let keys = cluster.owned_keys(s);
        if keys.len() < cfg.clients_per_node {
            return Err(Error::InvalidWr("shard owns fewer keys than clients"));
        }
        // Disjoint per-client slices of the shard's partition — the
        // §5.5 shape, scoped to the keys this node actually serves.
        let per = keys.len() / cfg.clients_per_node;
        let workloads: Vec<Workload> = (0..cfg.clients_per_node)
            .map(|c| Workload::from_keys(keys[c * per..(c + 1) * per].to_vec()))
            .collect();
        let stack = cluster.serving_stack(s);
        let shard = &mut cluster.shards[stack];
        let mut fleet = ServingFleet::deploy(
            &mut sim,
            &mut shard.ctx,
            &shard.server,
            None,
            client,
            FleetSpec::gets(
                cfg.clients_per_node,
                cfg.pipeline_depth,
                HashGetVariant::Sequential,
                true,
            ),
            workloads,
        )?;
        let stats = fleet.run_closed_loop(
            &mut sim,
            shard.ctx.pool_mut(),
            cfg.ops_per_client,
            cfg.window,
        )?;
        merged = Some(match merged {
            Some(m) => m.merge(&stats),
            None => stats,
        });
    }
    Ok(ClusterPoint {
        nodes: cfg.nodes,
        clients: cfg.nodes * cfg.clients_per_node,
        k: cfg.window,
        stats: merged.expect("nodes >= 2"),
    })
}

/// The kill-a-node soak on a fresh cluster.
pub fn failover_point(cfg: &ClusterSweepConfig) -> Result<FailoverPoint> {
    let (mut sim, mut cluster) = Cluster::deploy(cfg.spec())?;
    let mut session = ClusterSession::connect(&mut sim, &mut cluster, SessionOpts::default())?;
    let controller = FailoverController::default();

    let s = cluster.shard_for(cluster.spec.nkeys + 1);
    let keys = fresh_keys(&cluster, s, cfg.steady_puts + 1 + cfg.post_puts);
    let primary = cluster.shards[cluster.serving_stack(s)].node;
    let repl_verbs_per_op = session.put_session(s).offload().verbs_per_op();

    // Steady stream of acked puts; host-cost deltas measured after the
    // first full window has warmed the chain.
    let mut lat = Vec::new();
    let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
    let warm = (cfg.put_depth as usize).min(cfg.steady_puts);
    let mut db0 = sim.node_doorbells(primary);
    let mut posts0 = sim.node_posts(primary);
    let mut measured_puts = 0u64;
    for (i, &key) in keys[..cfg.steady_puts].iter().enumerate() {
        if i == warm {
            db0 = sim.node_doorbells(primary);
            posts0 = sim.node_posts(primary);
        }
        let t0 = sim.now();
        let value = vec![(key & 0xFF) as u8; cfg.value_len as usize];
        let ack = session.put_blocking(&mut sim, &cluster, key, &value)?;
        lat.push(ack.at - t0);
        if i >= warm {
            measured_puts += 1;
        }
        acked.push((key, value));
    }
    let db_per_put = (sim.node_doorbells(primary) - db0) as f64 / measured_puts.max(1) as f64;
    let posts_per_put = (sim.node_posts(primary) - posts0) as f64 / measured_puts.max(1) as f64;

    // Kill the primary's serving process mid-stream. The in-flight put
    // surfaces as a typed failure (never a hang) — that is detection.
    let stack = cluster.serving_stack(s);
    let (dead_node, dead_pid) = (cluster.shards[stack].node, cluster.shards[stack].pid);
    let kill_t = sim.now();
    if !sim.kill_process(dead_node, dead_pid) {
        return Err(Error::InvalidWr("kill_process refused the primary pid"));
    }
    let lost_key = keys[cfg.steady_puts];
    let lost_value = vec![(lost_key & 0xFF) as u8; cfg.value_len as usize];
    if session
        .put_blocking(&mut sim, &cluster, lost_key, &lost_value)
        .is_ok()
    {
        return Err(Error::InvalidWr("put to a killed primary must fail typed"));
    }
    let detection_us = (sim.now() - kill_t).as_us_f64();

    // Promote the journal holder, re-route, re-replicate; retry the
    // failed put on the rebuilt chain. Its ack closes the blip.
    let report = controller.fail_over(&mut sim, &mut cluster, &mut session, s)?;
    let ack = session.put_blocking(&mut sim, &cluster, lost_key, &lost_value)?;
    let blip_us = (ack.at - kill_t).as_us_f64();
    acked.push((lost_key, lost_value));

    for &key in &keys[cfg.steady_puts + 1..] {
        let t0 = sim.now();
        let value = vec![(key & 0xFF) as u8; cfg.value_len as usize];
        let ack = session.put_blocking(&mut sim, &cluster, key, &value)?;
        lat.push(ack.at - t0);
        acked.push((key, value));
    }

    // Every acked write must read back through the promoted shard.
    let mut acked_lost = 0u64;
    for (key, value) in &acked {
        match session.get_blocking(&mut sim, &cluster, *key) {
            Ok(got) if &got == value => {}
            _ => acked_lost += 1,
        }
    }

    Ok(FailoverPoint {
        steady_p99_us: latency_stats(&lat).p99_us,
        blip_us,
        detection_us,
        promote_us: report.promote_us(),
        rereplicate_us: report.rereplicate_us(),
        records_recovered: report.records_recovered,
        acked_lost,
        repl_verbs_per_op,
        repl_primary_doorbells_per_put: db_per_put,
        repl_primary_posts_per_put: posts_per_put,
        repl_primary_arm_calls_per_put: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ClusterSweepConfig {
        ClusterSweepConfig {
            clients_per_node: 4,
            ops_per_client: 20,
            nkeys: 1024,
            steady_puts: 8,
            post_puts: 4,
            ..ClusterSweepConfig::small()
        }
    }

    #[test]
    fn read_point_merges_every_node() {
        let cfg = tiny();
        let p = cluster_read_point(&cfg).unwrap();
        assert_eq!(p.nodes, 4);
        assert_eq!(p.clients, 16);
        assert_eq!(
            p.stats.ops,
            (cfg.nodes * cfg.clients_per_node) as u64 * cfg.ops_per_client
        );
        assert_eq!(p.stats.host_arm_calls, 0, "cluster gets stay recycled");
        assert!(p.stats.ops_per_sec > 0.0);
        assert!(p.stats.latency.is_some());
    }

    #[test]
    fn failover_point_recovers_everything() {
        let cfg = tiny();
        let p = failover_point(&cfg).unwrap();
        assert_eq!(p.acked_lost, 0, "no acked write lost");
        assert_eq!(p.records_recovered, cfg.steady_puts as u64);
        assert_eq!(p.repl_primary_doorbells_per_put, 0.0);
        assert_eq!(p.repl_primary_posts_per_put, 0.0);
        assert!(p.detection_us > 0.0 && p.blip_us >= p.detection_us);
        assert!(p.rereplicate_us > 0.0);
        assert!(p.steady_p99_us > 0.0);
    }
}
