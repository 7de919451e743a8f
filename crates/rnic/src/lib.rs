//! # rnic-sim — a cycle-approximate simulator of a commodity RDMA NIC
//!
//! This crate is the hardware substrate for the RedN reproduction
//! ("RDMA is Turing complete, we just did not know it yet!", NSDI '22).
//! The paper's artifact runs on Mellanox ConnectX-5 InfiniBand NICs; this
//! simulator reproduces the architectural properties that RedN exploits:
//!
//! * **Work queues live in host memory as raw bytes.** Work-queue entries
//!   (WQEs) are serialized into simulated DRAM, and the NIC *fetches* them
//!   over a simulated PCIe link before executing them. Because any RDMA verb
//!   can write to the memory that holds a WQE, programs can modify their own
//!   instructions — the basis of RedN's self-modifying chains.
//! * **Prefetching and managed queues.** Unmanaged queues prefetch WQE
//!   batches, so post-fetch modifications are lost (the consistency hazard
//!   described in §3.1 of the paper). Managed queues disable prefetch and
//!   only advance when an [`Opcode::Enable`](verbs::Opcode) verb raises
//!   their fetch limit.
//! * **Cross-channel synchronization.** `WAIT` parks a queue until a
//!   completion queue reaches a count; `ENABLE` releases WQEs on another
//!   queue — together they implement the paper's *completion* and
//!   *doorbell* ordering modes.
//! * **A calibrated timing model.** Doorbell MMIO, WQE fetch, per-verb
//!   execution, PCIe posted/non-posted transactions, the serialized atomic
//!   engine, link bandwidth and per-port processing units are modeled as
//!   discrete-event resources; the constants are calibrated against the
//!   paper's own microbenchmarks (Fig 7, Fig 8, Tables 1/3/4).
//! * **A host model.** CPU cores, polling vs event-driven threads, context
//!   switches, process crashes and OS panics — needed for the paper's
//!   two-sided baselines, contention and failure-resiliency experiments.
//!
//! The entry point is [`sim::Simulator`]. See the `redn-core` crate for the
//! programming abstractions built on top.
//!
//! ## Quick taste
//!
//! ```
//! use rnic_sim::prelude::*;
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! let a = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
//! let b = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
//! sim.connect_nodes(a, b, LinkConfig::back_to_back());
//!
//! // Allocate and register a buffer on the server.
//! let buf = sim.alloc(b, 64, 8).unwrap();
//! let mr = sim.register_mr(b, buf, 64, Access::all()).unwrap();
//!
//! // Client queue pair connected to the server.
//! let cq = sim.create_cq(a, 16).unwrap();
//! let qp = sim.create_qp(a, QpConfig::new(cq)).unwrap();
//! let rcq = sim.create_cq(b, 16).unwrap();
//! let rqp = sim.create_qp(b, QpConfig::new(rcq)).unwrap();
//! sim.connect_qps(qp, rqp).unwrap();
//!
//! // One-sided write of 8 bytes.
//! let src = sim.alloc(a, 8, 8).unwrap();
//! let smr = sim.register_mr(a, src, 8, Access::all()).unwrap();
//! sim.mem_write_u64(a, src, 0xdead_beef).unwrap();
//! let wr = WorkRequest::write(src, smr.lkey, 8, buf, mr.rkey).signaled();
//! sim.post_send(qp, wr).unwrap();
//! sim.run();
//! assert_eq!(sim.mem_read_u64(b, buf).unwrap(), 0xdead_beef);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cq;
pub mod engine;
pub mod error;
pub mod host;
pub mod ids;
pub mod json;
pub mod mem;
pub mod net;
pub mod nic;
pub mod qp;
pub mod rate;
pub mod sim;
pub mod slab;
pub mod time;
pub mod trace;
pub mod verbs;
pub mod wq;
pub mod wqe;

/// Convenience re-exports covering the whole public surface most users need.
pub mod prelude {
    pub use crate::config::{Generation, HostConfig, LinkConfig, NicConfig, SimConfig};
    pub use crate::cq::Cqe;
    pub use crate::error::{Error, Result};
    pub use crate::ids::{CqId, MrKey, NodeId, ProcessId, QpId, WqId};
    pub use crate::mem::{Access, MemoryRegion};
    pub use crate::qp::QpConfig;
    pub use crate::sim::Simulator;
    pub use crate::time::Time;
    pub use crate::verbs::Opcode;
    pub use crate::wqe::{WorkRequest, Wqe, WQE_SIZE};
}
