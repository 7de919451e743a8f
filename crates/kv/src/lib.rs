//! # redn-kv — key-value substrate for the RedN reproduction
//!
//! The paper's evaluation (§5.2–§5.6) revolves around key-value `get`
//! offloads and their baselines. This crate provides everything those
//! experiments need on top of [`rnic_sim`] and [`redn_core`]:
//!
//! * [`store`] — a registered value heap and deterministic hashing;
//! * [`hopscotch`] — the hopscotch-style table of §5.2 (H = 2 candidate
//!   buckets, 6-bucket neighborhoods for the FaRM-style one-sided reads);
//! * [`cuckoo`] — the cuckoo table the paper's modified Memcached uses
//!   (MemC3-style, two candidate buckets with relocation);
//! * [`baselines`] — the paper's comparison points: **one-sided** lookups
//!   (FaRM/Pilaf: two READs, no server CPU) and **two-sided** RPC
//!   (polling / event-driven / VMA socket-stack flavors);
//! * [`memcached`] — a Memcached-like server assembled from the pieces,
//!   servable through any of the three frontends;
//! * [`liststore`] — server-side linked-list region for the §3.3 / §5.3
//!   list-walk offload (the list-side counterpart of the hash table);
//! * [`session`] — typed client sessions ([`Session`](session::Session))
//!   over deployed [`OffloadService`](redn_core::offloads::OffloadService)s:
//!   `get`/`walk` posting, typed pending handles, completion reaping;
//! * [`serving`] — the pipelined multi-client serving layer: a
//!   [`ServingFleet`](serving::ServingFleet) of per-client sessions over a
//!   heterogeneous service mix (hash-gets + list-walks sharded across one
//!   NIC), driven by one run loop with closed- or open-loop arrivals
//!   (§5.4's traffic shape);
//! * [`tenancy`] — multi-tenant ring packing and QoS: named
//!   [`TenantSpec`](tenancy::TenantSpec)s with quotas and rate caps, a
//!   [`TenantPacker`](tenancy::TenantPacker) bin-packing their offloads
//!   onto shared NIC PUs (admission gated on the deployment verifier),
//!   and [`CreditPacer`](tenancy::CreditPacer) trigger-path pacing so an
//!   overloaded tenant sheds its own load, not its neighbors';
//! * [`workload`] — Memtier-like request generators;
//! * [`isolation`] — the §5.5 contention harness (writer storms vs one
//!   reader);
//! * [`failure`] — the §5.6 crash/restart harness (hull-parent survival
//!   vs vanilla restart+rebuild).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod cuckoo;
pub mod failure;
pub mod hopscotch;
pub mod isolation;
pub mod liststore;
pub mod memcached;
pub mod serving;
pub mod session;
pub mod store;
pub mod tenancy;
pub mod workload;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::baselines::{OneSidedClient, TwoSidedMode, TwoSidedServer};
    pub use crate::cuckoo::CuckooTable;
    pub use crate::hopscotch::HopscotchTable;
    pub use crate::liststore::ListStore;
    pub use crate::memcached::MemcachedServer;
    pub use crate::serving::{
        FleetSpec, FleetStats, RunEnd, ServiceKind, ServiceSpec, ServingFleet, TenantStats,
    };
    pub use crate::session::{Completion, Session, SessionOpts};
    pub use crate::store::{hash_key, ValueHeap};
    pub use crate::tenancy::{
        CreditPacer, NicGeometry, PackError, Packing, Placement, TenantPacker, TenantQuotas,
        TenantSpec,
    };
    pub use crate::workload::Workload;
}
