//! Offload programs built from the RedN constructs (paper §5).
//!
//! * [`rpc`] — the SEND-triggered pre-posted handler pattern of Fig 3:
//!   a RECV scatters client arguments straight into posted WQEs; a WAIT
//!   on the receive CQ fires the chain.
//! * [`hash_lookup`] — key-value `get` offload over a bucketed hash table
//!   (Fig 9), in sequential and PU-parallel variants (Fig 11).
//! * [`list`] — linked-list traversal (Fig 12), with and without `break`
//!   (Fig 13).
//! * [`window`] — the [`InstanceWindow`](window::InstanceWindow): the
//!   claim/retire accounting every offload family shares.
//! * [`service`] — the [`OffloadService`](service::OffloadService) trait:
//!   what differs per serving family (arming, response slots,
//!   footprint), so heterogeneous fleets can deploy them side by side on
//!   one NIC.
//! * [`replicate`] — chain-replicated PUTs: the primary's NIC forwards
//!   each acked record to backup journals and acks the client, with zero
//!   host involvement in steady state (§3.4 recycling on the write
//!   path).

pub mod hash_lookup;
pub mod list;
pub mod replicate;
pub mod rpc;
pub mod service;
pub mod window;

pub use service::OffloadService;
pub use window::InstanceWindow;
