//! The policy interface: how a battery-management scheme plugs into the
//! engine.
//!
//! The four Table-4 schemes (e-Buff, BAAT-s, BAAT-h, BAAT) are
//! implementations of [`Policy`] living in `baat-core`. The engine calls
//! [`Policy::control`] every control interval and applies the returned
//! [`Action`]s, and consults [`Policy::placement_order`] whenever a new
//! workload arrives.
//!
//! Actuation is typed end to end: every requested [`Action`] produces an
//! [`ActionOutcome`] — applied, or rejected with a [`RejectReason`] —
//! which is appended to the event log and handed back to the policy on
//! the *next* control interval through [`ControlCtx`]. This mirrors the
//! prototype, where commands can fail at the Xen layer and the
//! controller observes the failure a beat later.

use baat_server::{DvfsLevel, MigrationBlock, ServerError};
use baat_units::{SimInstant, Soc};
use baat_workload::{VmId, WorkloadKind};

use crate::fleet::PlacementSpec;
use crate::view::SystemView;

/// An actuation a policy can request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Set a server's DVFS level (power capping, Fig 9).
    SetDvfs {
        /// Target node.
        node: usize,
        /// Level to apply.
        level: DvfsLevel,
    },
    /// Live-migrate a VM to another node (aging hiding / slowdown).
    Migrate {
        /// The VM to move.
        vm: VmId,
        /// Destination node.
        target: usize,
    },
    /// Set the battery discharge floor: the engine will not discharge the
    /// node's battery below this SoC (planned aging sets it to
    /// `1 − DoD_goal`; e-Buff leaves it at zero).
    SetSocFloor {
        /// Target node.
        node: usize,
        /// Minimum SoC to preserve.
        floor: Soc,
    },
}

/// Why the engine could not apply a requested [`Action`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The named node does not exist.
    UnknownNode,
    /// No host in the cluster runs the named VM.
    UnknownVm,
    /// The VM is already in flight.
    AlreadyMigrating,
    /// The migration target is the VM's current host.
    TargetIsSource,
    /// The migration target lacks free resources (net of reservations).
    TargetFull,
    /// An injected fault blocks the actuation path (e.g. the migration
    /// control plane is down).
    FaultInjected,
}

impl RejectReason {
    /// Maps a cluster error from an attempted migration onto the typed
    /// policy-facing reason.
    pub fn from_server_error(err: &ServerError) -> Self {
        match err {
            ServerError::UnknownServer { .. } => RejectReason::UnknownNode,
            ServerError::UnknownVm { .. } => RejectReason::UnknownVm,
            ServerError::MigrationRejected {
                block: MigrationBlock::AlreadyInFlight,
                ..
            } => RejectReason::AlreadyMigrating,
            ServerError::MigrationRejected {
                block: MigrationBlock::TargetIsSource,
                ..
            } => RejectReason::TargetIsSource,
            ServerError::InsufficientResources { .. } => RejectReason::TargetFull,
            ServerError::InvalidConfig { .. } => RejectReason::UnknownNode,
        }
    }

    /// Stable snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::UnknownNode => "unknown_node",
            RejectReason::UnknownVm => "unknown_vm",
            RejectReason::AlreadyMigrating => "already_migrating",
            RejectReason::TargetIsSource => "target_is_source",
            RejectReason::TargetFull => "target_full",
            RejectReason::FaultInjected => "fault_injected",
        }
    }
}

/// What happened when the engine processed one [`Action`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActionResult {
    /// The action took effect (possibly as a no-op, e.g. re-setting the
    /// current DVFS level).
    Applied,
    /// The action was infeasible and dropped.
    Rejected(RejectReason),
}

/// One action paired with its result — the typed replacement for the
/// engine's old silent-drop actuation path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionOutcome {
    /// The requested action.
    pub action: Action,
    /// Whether it was applied.
    pub result: ActionResult,
}

impl ActionOutcome {
    /// `true` if the action was rejected.
    pub fn is_rejected(&self) -> bool {
        matches!(self.result, ActionResult::Rejected(_))
    }

    /// The rejection reason, if any.
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self.result {
            ActionResult::Applied => None,
            ActionResult::Rejected(reason) => Some(reason),
        }
    }
}

/// Per-interval control context handed to [`Policy::control`] alongside
/// the [`SystemView`].
///
/// `last_outcomes` carries the outcomes of the actions the policy
/// requested on the *previous* control interval (empty on the first),
/// letting schemes back off from failed migrations instead of re-issuing
/// them blindly.
#[derive(Debug, Clone, Copy)]
pub struct ControlCtx<'a> {
    /// Engine step index at this control tick.
    pub step_index: u64,
    /// Simulation time now.
    pub now: SimInstant,
    /// Outcomes of the previous interval's requested actions.
    pub last_outcomes: &'a [ActionOutcome],
}

impl ControlCtx<'static> {
    /// Context for the first control tick (or for driving a policy
    /// outside the engine, e.g. in tests): step 0, time zero, no prior
    /// outcomes.
    pub const fn bootstrap() -> Self {
        ControlCtx {
            step_index: 0,
            now: SimInstant::START,
            last_outcomes: &[],
        }
    }
}

impl<'a> ControlCtx<'a> {
    /// Iterates the VMs whose migration was rejected last interval.
    pub fn rejected_migrations(&self) -> impl Iterator<Item = VmId> + 'a {
        self.last_outcomes.iter().filter_map(|o| match o {
            ActionOutcome {
                action: Action::Migrate { vm, .. },
                result: ActionResult::Rejected(_),
            } => Some(*vm),
            _ => None,
        })
    }
}

/// A battery-aging management policy (paper Table 4).
pub trait Policy {
    /// Short name for reports ("e-Buff", "BAAT", …).
    fn name(&self) -> &'static str;

    /// Invoked every control interval with the current system view and
    /// the control context; returns actuations to apply. Infeasible
    /// actions are rejected (not fatal) and surface in the next
    /// interval's [`ControlCtx::last_outcomes`], mirroring the prototype
    /// where commands can fail at the Xen layer.
    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action>;

    /// Ranks nodes for placing a newly arrived workload, best first. The
    /// engine admits the VM to the first node in the order with free
    /// resources; an empty order means "reject the workload".
    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize>;

    /// Declares how this policy's placement order is produced. The
    /// default, [`PlacementSpec::Custom`], is the scratch path: each
    /// placement pass builds a fresh [`SystemView`] and calls
    /// [`Policy::placement_order`] per VM. Policies whose order matches
    /// a declarative spec should return it: the engine then ranks from
    /// its placement rank cache — bit-identical, without building views
    /// or sorting per placement. A non-`Custom` spec must describe
    /// *exactly* what `placement_order` computes; equality is pinned by
    /// the incremental-vs-scratch test suites.
    fn placement_spec(&self) -> PlacementSpec {
        PlacementSpec::Custom
    }

    /// Serializes the policy's mutable decision state (cooldowns,
    /// hysteresis counters, …) for a checkpoint. Stateless policies keep
    /// the default empty vector. The encoding is policy-private: the only
    /// contract is that [`Policy::load_state`] on a freshly constructed
    /// policy of the same type restores bit-identical future decisions.
    fn save_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state captured by [`Policy::save_state`] onto a freshly
    /// constructed policy. The default ignores the data (stateless
    /// policies). Implementations must tolerate an empty slice (fresh
    /// start) and data from older encodings they no longer understand —
    /// degrade to fresh state rather than panic.
    fn load_state(&mut self, _state: &[u64]) {}
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        (**self).control(view, ctx)
    }

    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        (**self).placement_order(kind, view)
    }

    fn placement_spec(&self) -> PlacementSpec {
        (**self).placement_spec()
    }

    fn save_state(&self) -> Vec<u64> {
        (**self).save_state()
    }

    fn load_state(&mut self, state: &[u64]) {
        (**self).load_state(state)
    }
}

/// Forces the legacy recompute-from-scratch placement path for any
/// policy by masking its [`Policy::placement_spec`] back to
/// [`PlacementSpec::Custom`]. The reference wrapper the incremental
/// fleet ranker is proven bit-identical against: running `P` and
/// `ScratchPlacement(P)` over the same config must produce identical
/// reports.
#[derive(Debug, Clone, Default)]
pub struct ScratchPlacement<P>(pub P);

impl<P: Policy> Policy for ScratchPlacement<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        self.0.control(view, ctx)
    }

    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        self.0.placement_order(kind, view)
    }
    // placement_spec deliberately keeps the Custom default.

    fn save_state(&self) -> Vec<u64> {
        self.0.save_state()
    }

    fn load_state(&mut self, state: &[u64]) {
        self.0.load_state(state)
    }
}

/// Baseline placement with no battery awareness: round-robin placement,
/// no control actions. Useful for engine tests and as the naive
/// comparison point.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPolicy {
    next: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn control(&mut self, _view: &SystemView, _ctx: &ControlCtx<'_>) -> Vec<Action> {
        Vec::new()
    }

    fn placement_order(&mut self, _kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        let n = view.nodes.len();
        if n == 0 {
            return Vec::new();
        }
        let start = self.next % n;
        self.next = (self.next + 1) % n;
        (0..n).map(|i| (start + i) % n).collect()
    }

    fn placement_spec(&self) -> PlacementSpec {
        PlacementSpec::RoundRobin
    }

    fn save_state(&self) -> Vec<u64> {
        vec![self.next as u64]
    }

    fn load_state(&mut self, state: &[u64]) {
        if let Some(&next) = state.first() {
            self.next = next as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_solar::Weather;
    use baat_units::{SimInstant, TimeOfDay, Watts};

    fn empty_view(nodes: usize) -> SystemView {
        SystemView {
            now: SimInstant::START,
            tod: TimeOfDay::NOON,
            weather: Weather::Sunny,
            solar: Watts::ZERO,
            nodes: (0..nodes)
                .map(|i| crate::view::NodeView {
                    node: i,
                    soc: Soc::FULL,
                    window_metrics: baat_metrics::AgingMetrics::from_accumulator(
                        &baat_battery::UsageAccumulator::default(),
                        &baat_metrics::BatteryRatings {
                            capacity: baat_units::AmpHours::new(35.0),
                            lifetime_throughput: baat_units::AmpHours::new(17_500.0),
                        },
                    ),
                    lifetime_metrics: baat_metrics::AgingMetrics::from_accumulator(
                        &baat_battery::UsageAccumulator::default(),
                        &baat_metrics::BatteryRatings {
                            capacity: baat_units::AmpHours::new(35.0),
                            lifetime_throughput: baat_units::AmpHours::new(17_500.0),
                        },
                    ),
                    damage: 0.0,
                    capacity_fraction: 1.0,
                    server_power: Watts::ZERO,
                    utilization: baat_units::Fraction::ZERO,
                    dvfs: DvfsLevel::P0,
                    online: true,
                    degraded: false,
                    free_resources: (8, 16),
                    vms: Vec::new(),
                    battery_available: Watts::ZERO,
                    battery_capacity_wh: 840.0,
                    battery_capacity_ah: 70.0,
                    battery_lifetime_throughput_ah: 35_000.0,
                    soc_floor: Soc::EMPTY,
                })
                .collect(),
        }
    }

    #[test]
    fn round_robin_cycles_through_nodes() {
        let mut p = RoundRobinPolicy::new();
        let view = empty_view(3);
        let first = p.placement_order(WorkloadKind::KMeans, &view);
        let second = p.placement_order(WorkloadKind::KMeans, &view);
        assert_eq!(first, vec![0, 1, 2]);
        assert_eq!(second, vec![1, 2, 0]);
    }

    #[test]
    fn round_robin_issues_no_actions() {
        let mut p = RoundRobinPolicy::new();
        assert!(p
            .control(&empty_view(2), &ControlCtx::bootstrap())
            .is_empty());
    }

    #[test]
    fn empty_cluster_gives_empty_order() {
        let mut p = RoundRobinPolicy::new();
        assert!(p
            .placement_order(WorkloadKind::KMeans, &empty_view(0))
            .is_empty());
    }

    #[test]
    fn ctx_surfaces_rejected_migrations() {
        let outcomes = [
            ActionOutcome {
                action: Action::Migrate {
                    vm: VmId(3),
                    target: 1,
                },
                result: ActionResult::Rejected(RejectReason::TargetFull),
            },
            ActionOutcome {
                action: Action::Migrate {
                    vm: VmId(4),
                    target: 2,
                },
                result: ActionResult::Applied,
            },
            ActionOutcome {
                action: Action::SetDvfs {
                    node: 99,
                    level: DvfsLevel::P1,
                },
                result: ActionResult::Rejected(RejectReason::UnknownNode),
            },
        ];
        let ctx = ControlCtx {
            step_index: 10,
            now: SimInstant::from_secs(600),
            last_outcomes: &outcomes,
        };
        let rejected: Vec<VmId> = ctx.rejected_migrations().collect();
        assert_eq!(rejected, vec![VmId(3)]);
        assert!(outcomes[0].is_rejected());
        assert_eq!(outcomes[0].reject_reason(), Some(RejectReason::TargetFull));
        assert_eq!(outcomes[1].reject_reason(), None);
    }

    #[test]
    fn server_errors_map_to_typed_reasons() {
        use baat_server::{MigrationBlock, ServerError};
        let cases = [
            (
                ServerError::UnknownServer { index: 9, len: 6 },
                RejectReason::UnknownNode,
            ),
            (
                ServerError::UnknownVm { vm: VmId(1) },
                RejectReason::UnknownVm,
            ),
            (
                ServerError::MigrationRejected {
                    vm: VmId(1),
                    block: MigrationBlock::AlreadyInFlight,
                },
                RejectReason::AlreadyMigrating,
            ),
            (
                ServerError::MigrationRejected {
                    vm: VmId(1),
                    block: MigrationBlock::TargetIsSource,
                },
                RejectReason::TargetIsSource,
            ),
            (
                ServerError::InsufficientResources {
                    vm: VmId(1),
                    requested: (4, 8),
                    free: (0, 0),
                },
                RejectReason::TargetFull,
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(RejectReason::from_server_error(&err), expected);
        }
    }
}
