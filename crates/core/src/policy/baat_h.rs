//! BAAT-h (paper Table 4): "only use aging-aware VM migration technique
//! to hide battery aging variation".
//!
//! BAAT-h reacts to aging variation by migrating load off the
//! fastest-aging battery node — but, as §VI.B notes, "it lacks the
//! holistic battery node aging information (e.g., weighted aging metrics)
//! and the migration is unaware [of] the aging state of other battery
//! nodes, which make the migration become random and low efficiency".
//! Accordingly this policy detects the worst node by raw throughput (NAT)
//! only and picks migration targets round-robin, not by weighted rank —
//! reproducing the overhead the paper measures.

use baat_obs::{Counter, Obs};
use baat_sim::{Action, ControlCtx, PlacementSpec, Policy, SystemView};
use baat_workload::WorkloadKind;

/// Relative NAT excess over the mean that marks a node as fast-aging.
const NAT_IMBALANCE_FACTOR: f64 = 1.30;

/// Control intervals to wait between migrations (the prototype cannot
/// usefully re-migrate faster than VMs transfer).
const MIGRATION_COOLDOWN: u32 = 20;

/// Per-rule decision counters for BAAT-h, inert unless attached to an
/// enabled [`Obs`].
#[derive(Debug, Clone, Default)]
struct BaatHCounters {
    /// Hiding migrations issued off the fastest-aging node.
    migrations: Counter,
    /// VMs skipped for one interval because their migration was rejected
    /// last interval (backoff on engine feedback).
    rejected_backoffs: Counter,
}

/// The hiding-only policy.
#[derive(Debug, Clone, Default)]
pub struct BaatH {
    cooldown: u32,
    counters: BaatHCounters,
}

impl BaatH {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches per-rule decision counters (`policy.baat_h.*`) to `obs`.
    /// Counting never changes what the policy decides.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.counters = BaatHCounters {
            migrations: obs.counter("policy.baat_h.migrations"),
            rejected_backoffs: obs.counter("policy.baat_h.rejected_backoffs"),
        };
    }
}

impl Policy for BaatH {
    fn name(&self) -> &'static str {
        "BAAT-h"
    }

    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        // Back off VMs whose migration the engine rejected last interval:
        // re-requesting the identical move would fail the same way.
        let blocked: Vec<baat_workload::VmId> = ctx.rejected_migrations().collect();
        let n = view.nodes.len();
        if n < 2 {
            return Vec::new();
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return Vec::new();
        }
        // Hiding is a placement/consolidation activity (paper Fig 8: it
        // triggers "when adding new jobs or performing workload
        // consolidation"), not crisis response: while the cluster's
        // batteries are strained, shuffling VMs only spreads the deep
        // discharge around, so wait for a healthy moment.
        let mean_soc: f64 = view.nodes.iter().map(|v| v.soc.value()).sum::<f64>() / n as f64;
        if mean_soc < 0.55 {
            return Vec::new();
        }
        // Hiding reacts to *usage* variation: NAT (Eq 1) is the one aging
        // signal this simplified scheme consults — no charge factor, no
        // partial cycling, no workload power profiling, no coordination
        // with slowdown (all of which full BAAT adds).
        let mean_nat: f64 = view
            .nodes
            .iter()
            .map(|v| v.lifetime_metrics.nat)
            .sum::<f64>()
            / n as f64;
        if mean_nat <= 0.0 {
            return Vec::new();
        }
        let worst = view
            .nodes
            .iter()
            .filter(|node| node.online)
            .max_by(|a, b| a.lifetime_metrics.nat.total_cmp(&b.lifetime_metrics.nat));
        let Some(worst) = worst else {
            return Vec::new();
        };
        if worst.lifetime_metrics.nat < mean_nat * NAT_IMBALANCE_FACTOR {
            return Vec::new();
        }
        // Candidate VMs, heaviest first: if the big one does not fit
        // anywhere, a smaller one still sheds some load.
        let mut movable: Vec<_> = worst
            .vms
            .iter()
            .filter(|vm| vm.state == baat_workload::VmState::Running && !vm.kind.is_service())
            .collect();
        movable.sort_by(|a, b| {
            let w = |v: &&baat_sim::VmView| {
                let (c, _) = v.kind.resource_request();
                v.kind.profile().mean_utilization().value() * f64::from(c)
            };
            w(b).total_cmp(&w(a))
        });
        // Target: the least-used battery with room. Without the weighted
        // metrics this can still pick a node whose CF/PC history or the
        // incoming workload's power profile make it a poor host — the
        // low-efficiency migration §VI.B critiques.
        for vm in movable {
            if blocked.contains(&vm.id) {
                self.counters.rejected_backoffs.inc();
                continue;
            }
            let request = vm.kind.resource_request();
            let target = view
                .nodes
                .iter()
                .filter(|node| {
                    node.node != worst.node
                        && node.online
                        && node.free_resources.0 >= request.0
                        && node.free_resources.1 >= request.1
                })
                .min_by(|a, b| a.lifetime_metrics.nat.total_cmp(&b.lifetime_metrics.nat));
            if let Some(target) = target {
                self.cooldown = MIGRATION_COOLDOWN;
                self.counters.migrations.inc();
                return vec![Action::Migrate {
                    vm: vm.id,
                    target: target.node,
                }];
            }
        }
        Vec::new()
    }

    fn placement_order(&mut self, _kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        // Placement prefers lower lifetime NAT (partially aging-aware).
        let mut order: Vec<usize> = (0..view.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            view.nodes[a]
                .lifetime_metrics
                .nat
                .total_cmp(&view.nodes[b].lifetime_metrics.nat)
        });
        order
    }

    fn placement_spec(&self) -> PlacementSpec {
        PlacementSpec::LifetimeNat
    }

    fn save_state(&self) -> Vec<u64> {
        vec![u64::from(self.cooldown)]
    }

    fn load_state(&mut self, state: &[u64]) {
        if let Some(&cooldown) = state.first() {
            self.cooldown = cooldown as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::common::tests_support::{metrics, node, view_of};
    use baat_sim::VmView;
    use baat_workload::{VmId, VmState, WorkloadKind};

    fn loaded(i: usize, discharged: f64, soc: f64) -> baat_sim::NodeView {
        let mut n = node(i, metrics(discharged, soc.max(0.05)), soc, (8, 16));
        n.vms = vec![VmView {
            id: VmId(i as u64 * 10),
            kind: WorkloadKind::KMeans,
            state: VmState::Running,
            progress: 0.4,
        }];
        n
    }

    #[test]
    fn migrates_off_the_highest_throughput_node() {
        let mut p = BaatH::new();
        let v = view_of(vec![
            loaded(0, 300.0, 0.7), // most-cycled battery
            loaded(1, 50.0, 0.8),
            loaded(2, 40.0, 0.8),
        ]);
        let actions = p.control(&v, &ControlCtx::bootstrap());
        assert_eq!(actions.len(), 1);
        let Action::Migrate { vm, target } = actions[0] else {
            panic!("expected migration, got {actions:?}");
        };
        assert_eq!(vm, VmId(0));
        assert_ne!(target, 0);
    }

    #[test]
    fn target_ignores_everything_but_nat() {
        // Node 1 has the lowest throughput but a nearly drained battery;
        // node 2 is charged. NAT-only targeting still loads node 1 — the
        // low-efficiency migration the paper critiques.
        let mut p = BaatH::new();
        let v = view_of(vec![
            loaded(0, 300.0, 0.8),
            loaded(1, 20.0, 0.30),
            loaded(2, 60.0, 0.95),
        ]);
        let actions = p.control(&v, &ControlCtx::bootstrap());
        let Action::Migrate { target, .. } = actions[0] else {
            panic!("expected migration");
        };
        assert_eq!(target, 1, "NAT-only targeting ignores battery charge");
    }

    #[test]
    fn balanced_cluster_needs_no_migration() {
        let mut p = BaatH::new();
        let v = view_of(vec![
            loaded(0, 100.0, 0.7),
            loaded(1, 98.0, 0.7),
            loaded(2, 102.0, 0.7),
        ]);
        assert!(p.control(&v, &ControlCtx::bootstrap()).is_empty());
    }

    #[test]
    fn cooldown_rate_limits_migrations() {
        let mut p = BaatH::new();
        let v = view_of(vec![loaded(0, 300.0, 0.7), loaded(1, 10.0, 0.8)]);
        assert_eq!(p.control(&v, &ControlCtx::bootstrap()).len(), 1);
        assert!(
            p.control(&v, &ControlCtx::bootstrap()).is_empty(),
            "cooldown must suppress churn"
        );
    }

    #[test]
    fn no_movable_vm_means_no_action() {
        let mut p = BaatH::new();
        let mut worst = node(0, metrics(300.0, 0.7), 0.7, (8, 16));
        worst.vms.clear();
        let v = view_of(vec![worst, loaded(1, 10.0, 0.8)]);
        assert!(p.control(&v, &ControlCtx::bootstrap()).is_empty());
    }

    #[test]
    fn single_deep_node_without_imbalance_is_left_alone() {
        // Deep SoC alone is the slowdown scheme's business, not hiding's.
        let mut p = BaatH::new();
        let v = view_of(vec![loaded(0, 100.0, 0.1), loaded(1, 99.0, 0.9)]);
        assert!(p.control(&v, &ControlCtx::bootstrap()).is_empty());
    }

    #[test]
    fn placement_prefers_low_nat() {
        let mut p = BaatH::new();
        let v = view_of(vec![
            loaded(0, 200.0, 0.8),
            loaded(1, 10.0, 0.8),
            loaded(2, 100.0, 0.8),
        ]);
        assert_eq!(p.placement_order(WorkloadKind::KMeans, &v), vec![1, 2, 0]);
    }

    #[test]
    fn single_node_cluster_never_migrates() {
        let mut p = BaatH::new();
        let v = view_of(vec![loaded(0, 300.0, 0.2)]);
        assert!(p.control(&v, &ControlCtx::bootstrap()).is_empty());
    }
}
