//! [`OffloadService`] — what differs per serving offload family.
//!
//! The paper's point is that *arbitrary* programs — hash lookups (§3.4,
//! Fig 9), list traversals (§3.3, Fig 12), conditionals, loops — can be
//! self-executed by the NIC. A serving layer therefore should not be
//! hard-wired to one offload family: anything that (a) triggers off a
//! client SEND, (b) lands its response in a per-instance client slot
//! tagged by an instance immediate, and (c) keeps an [`InstanceWindow`],
//! can be deployed side by side with the others on one NIC and driven
//! through the same client
//! [`Session`](../../redn_kv/session/struct.Session.html).
//!
//! The claim/retire accounting is the same for every family and lives
//! in the window; this trait carries only what differs: how a family
//! arms an instance from the host, where its responses land, and its
//! deployed footprint. Deployment itself stays on the fluent builders
//! ([`HashGetBuilder`](crate::ctx::HashGetBuilder),
//! [`ListWalkBuilder`](crate::ctx::ListWalkBuilder)) — each family needs
//! different capabilities.

use rnic_sim::error::Result;
use rnic_sim::sim::Simulator;

use crate::ir::analysis::Footprint;
use crate::offloads::window::InstanceWindow;
use crate::program::ConstPool;

/// The runtime surface of a serving offload family (hash-get, list-walk,
/// and whatever comes next). See the module docs.
pub trait OffloadService {
    /// The offload's instance accounting.
    fn window(&self) -> &InstanceWindow;

    /// Mutable access to the instance accounting (claim and retire).
    fn window_mut(&mut self) -> &mut InstanceWindow;

    /// Stage one more instance from the host (host-armed mode only; a
    /// self-recycling offload is primed once at deploy and errors here).
    fn arm(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<()>;

    /// Client response-slot address for `instance` (its window slot of
    /// the advertised destination buffer).
    fn response_slot(&self, instance: u64) -> u64;

    /// The deployed program's non-interference footprint, fed to the
    /// [`DeploymentVerifier`](crate::ir::analysis::DeploymentVerifier)
    /// when services are co-deployed on one NIC. `None` for host-armed
    /// offloads: their instances are staged per
    /// [`arm`](OffloadService::arm) call onto long-lived shared queues,
    /// so one round's static footprint does not describe them.
    fn footprint(&self) -> Option<&Footprint>;

    /// Instances a client may keep in flight concurrently (the
    /// `.pipeline_depth(n)` deployment knob; 1 = the synchronous path).
    fn pipeline_depth(&self) -> u32 {
        self.window().depth()
    }

    /// Top the offload up to a full pipeline of armed, unclaimed
    /// instances: host-armed offloads [`arm`](OffloadService::arm) the
    /// shortfall (counted by the caller); self-recycling offloads re-arm
    /// on the NIC, so this is a no-op for them.
    fn prime(&mut self, sim: &mut Simulator, pool: &mut ConstPool) -> Result<()> {
        if self.window().is_recycled() {
            return Ok(());
        }
        while self.window().available() < u64::from(self.pipeline_depth()) {
            self.arm(sim, pool)?;
        }
        Ok(())
    }
}
