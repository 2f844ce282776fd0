//! The full BAAT scheme (paper Table 4): "coordinate hiding and slowing
//! down techniques to dynamically manage battery aging", optionally with
//! planned aging (§IV.D).
//!
//! Each control interval BAAT:
//!
//! 1. runs the Fig 9 slowdown check per node — but, holding the holistic
//!    weighted-aging ranking, it *first* tries to migrate the heaviest
//!    movable VM to the least-aged viable node and only falls back to
//!    DVFS when no placement exists ("we preferentially use VM migration
//!    to reduce performance penalty");
//! 2. runs the Fig 8 aging-hiding balance — when the weighted-aging gap
//!    between the worst and best node exceeds a threshold, load moves
//!    from the fast-aging battery to the slow-aging one (rate-limited to
//!    avoid migration churn);
//! 3. under planned aging, substitutes `1 − DoD_goal` (Eq 7) for the
//!    40 % deep-discharge line so the battery is used exactly hard
//!    enough to wear out at the datacenter's end-of-life.

use baat_metrics::{dod_goal, PlannedAgingInputs};
use baat_obs::{Counter, Obs};
use baat_server::ServerPowerModel;
use baat_sim::{Action, ControlCtx, NodeView, PlacementSpec, Policy, SystemView};
use baat_units::{AmpHours, Soc};
use baat_workload::{DemandClass, EnergyDemand, PowerDemand, VmId, WorkloadKind};

use crate::policy::baat_s::SlowdownThresholds;
use crate::policy::common::{
    classify_workload, heaviest_movable_vm, rank_by_weighted_aging, AgingRank, ClassRanks,
};

/// Planned-aging configuration (§IV.D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedAging {
    /// Days from battery installation to the datacenter's end-of-life.
    pub service_days: f64,
    /// Prior for full cycles per operating day, used until the usage log
    /// holds at least a day of history; after that `Cycle_plan` is
    /// "estimated base on the battery usage log" (the paper's wording)
    /// from the observed Ah throughput.
    pub cycles_per_day: f64,
}

/// Configuration of the full BAAT policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BaatConfig {
    /// Slowdown thresholds (Fig 9).
    pub thresholds: SlowdownThresholds,
    /// Server class used for workload power profiling.
    pub server_power: ServerPowerModel,
    /// Relative weighted-aging gap (`worst/best − 1`) that triggers a
    /// balancing migration.
    pub balance_gap: f64,
    /// Control intervals between balancing migrations.
    pub balance_cooldown: u32,
    /// Minimum SoC a migration target must hold.
    pub min_target_soc: f64,
    /// Optional planned aging.
    pub planned: Option<PlannedAging>,
}

impl Default for BaatConfig {
    fn default() -> Self {
        Self {
            thresholds: SlowdownThresholds::default(),
            server_power: ServerPowerModel::prototype(),
            balance_gap: 0.12,
            balance_cooldown: 5,
            min_target_soc: 0.45,
            planned: None,
        }
    }
}

/// The demand class used for ranking when no specific workload is in
/// hand (balancing migrations).
const BALANCE_CLASS: DemandClass = DemandClass {
    power: PowerDemand::Large,
    energy: EnergyDemand::More,
};

/// Per-rule decision counters for full BAAT, inert unless attached to an
/// enabled [`Obs`].
#[derive(Debug, Clone, Default)]
struct BaatCounters {
    /// Fig 9 slowdown triggers answered with a migration.
    slowdown_migrations: Counter,
    /// Supply-following DVFS adjustments issued.
    dvfs_adjustments: Counter,
    /// Fig 8 balance migrations issued.
    balance_migrations: Counter,
    /// Migrations withheld for one interval because the engine rejected
    /// the same VM's move last interval (backoff on feedback).
    rejected_backoffs: Counter,
}

/// The coordinated BAAT policy.
#[derive(Debug, Clone, Default)]
pub struct Baat {
    config: BaatConfig,
    cooldown: u32,
    counters: BaatCounters,
    scratch: Scratch,
}

/// The buffers a control call fills, kept so that the next call reuses
/// them instead of allocating its own. They carry nothing from one call
/// to the next.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per-class Fig 8 rankings.
    ranks: [AgingRank; 4],
    /// VMs whose migration the engine rejected last interval.
    blocked: Vec<VmId>,
    /// VMs this call migrates.
    migrated: Vec<VmId>,
}

impl Baat {
    /// Creates the policy with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the policy with a custom configuration.
    pub fn with_config(config: BaatConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Attaches per-rule decision counters (`policy.baat.*`) to `obs`.
    /// Counting never changes what the policy decides.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.counters = BaatCounters {
            slowdown_migrations: obs.counter("policy.baat.slowdown_migrations"),
            dvfs_adjustments: obs.counter("policy.baat.dvfs_adjustments"),
            balance_migrations: obs.counter("policy.baat.balance_migrations"),
            rejected_backoffs: obs.counter("policy.baat.rejected_backoffs"),
        };
    }

    /// Creates the policy with planned aging enabled.
    pub fn with_planned_aging(planned: PlannedAging) -> Self {
        Self::with_config(BaatConfig {
            planned: Some(planned),
            ..BaatConfig::default()
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &BaatConfig {
        &self.config
    }

    /// Picks the fastest DVFS level whose predicted server power fits the
    /// node's estimated power supply: its solar share plus the remaining
    /// battery energy *rationed over the rest of the operating day*, so
    /// the battery neither trips the cutoff nor strands reserve (paper's
    /// 2-minute reserve rule [42] becomes a 5 % SoC margin).
    ///
    /// `total_demand` is `view.total_demand()`, summed once per control
    /// call by the caller.
    fn fit_dvfs_level(
        &self,
        view: &SystemView,
        total_demand: f64,
        node: &NodeView,
        defend_line: Option<Soc>,
    ) -> baat_server::DvfsLevel {
        use baat_server::DvfsLevel;
        let solar_share = if total_demand > 0.0 {
            view.solar.as_f64() * node.server_power.as_f64() / total_demand
        } else {
            view.solar.as_f64() / view.nodes.len().max(1) as f64
        };
        // Ration usable stored energy over the next stretch of the
        // operating day (the prototype day ends at 18:30). A 3-hour
        // horizon avoids over-throttling a full battery in the morning
        // while still tapering demand as the reserve shrinks.
        // Below the deep-discharge line the controller defends the line
        // itself (holding the battery just under it rations almost
        // nothing), spreading the few percent of slack over a long
        // horizon; above the line only the 2-minute emergency margin is
        // held back and the horizon stays short to keep throughput up.
        let (reserve, max_horizon) = match defend_line {
            Some(line) => (
                (line.value() - 0.13).max(node.soc_floor.value() + 0.05),
                7.0,
            ),
            None => (node.soc_floor.value() + 0.05, 3.0),
        };
        let hours_left = (18.5 - view.tod.as_fractional_hours()).clamp(0.5, max_horizon);
        let usable_soc = (node.soc.value() - reserve).max(0.0);
        let battery_budget = usable_soc * node.battery_capacity_wh / hours_left * 0.92;
        let supply = solar_share + battery_budget;
        let idle = self.config.server_power.idle().as_f64();
        let dynamic = self.config.server_power.peak().as_f64() - idle;
        let util = node.utilization.value();
        for level in DvfsLevel::ALL {
            let predicted = idle + dynamic * util * level.power_factor();
            if predicted <= supply {
                return level;
            }
        }
        DvfsLevel::P4
    }

    /// The deep-discharge SoC line for one node: the static threshold, or
    /// `1 − DoD_goal` under planned aging.
    fn deep_soc_for(&self, node: &NodeView, elapsed_days: f64) -> Soc {
        let Some(planned) = self.config.planned else {
            return self.config.thresholds.deep_soc;
        };
        let capacity = AmpHours::new(node.battery_capacity_ah * node.capacity_fraction.max(0.5));
        // Reconstruct throughputs from the lifetime NAT: NAT · CAP_nom.
        let lifetime_throughput = AmpHours::new(node.battery_lifetime_throughput_ah);
        let used = AmpHours::new(node.lifetime_metrics.nat * lifetime_throughput.as_f64());
        let remaining_days = (planned.service_days - elapsed_days).max(0.0);
        // Cycle_plan from the usage log once it has matured (≥ 1 day of
        // history and a plausible rate), else the configured prior.
        let observed = if elapsed_days >= 1.0 {
            Some(used.as_f64() / node.battery_capacity_ah / elapsed_days)
        } else {
            None
        };
        let cycles_per_day = observed
            .filter(|c| *c > 0.05)
            .unwrap_or(planned.cycles_per_day);
        let inputs = PlannedAgingInputs {
            total_throughput: lifetime_throughput,
            used_throughput: used,
            capacity,
            planned_cycles: remaining_days * cycles_per_day,
        };
        match dod_goal(&inputs) {
            Some(goal) => goal.to_soc(),
            None => self.config.thresholds.deep_soc,
        }
    }

    /// One control call's decisions, with `scratch` for its buffers.
    fn decide(
        &mut self,
        view: &SystemView,
        ctx: &ControlCtx<'_>,
        scratch: &mut Scratch,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let elapsed_days = view.now.day() as f64;
        let t = self.config.thresholds;
        // Back off VMs whose migration the engine rejected last interval
        // (failed target, VM already in flight): re-requesting the same
        // move would fail identically, so fall through to DVFS this round
        // and re-evaluate next interval.
        scratch.blocked.clear();
        scratch.blocked.extend(ctx.rejected_migrations());
        scratch.migrated.clear();
        // The view is immutable for the whole call: rank each demand class
        // at most once and sum the fleet demand once.
        let mut ranks = ClassRanks::new(view, &mut scratch.ranks);
        let total_demand = view.total_demand().as_f64();

        // Slowdown pass (Fig 9), migration-first.
        for node in &view.nodes {
            if !node.online {
                continue;
            }
            let deep_soc = self.deep_soc_for(node, elapsed_days);
            let ddt = node.window_metrics.ddt.value();
            let dr = node.window_metrics.dr.mean_c_rate;
            let triggered = node.soc < deep_soc && (ddt > t.ddt || dr > t.dr_c_rate);
            if triggered {
                let candidate = heaviest_movable_vm(node);
                let migration = candidate.and_then(|vm| {
                    if scratch.blocked.contains(&vm.id) {
                        self.counters.rejected_backoffs.inc();
                        return None;
                    }
                    let class = classify_workload(vm.kind, &self.config.server_power);
                    ranks
                        .migration_target(class, node.node, vm.kind, self.config.min_target_soc)
                        .map(|target| (vm.id, target))
                });
                if let Some((vm, target)) = migration {
                    self.counters.slowdown_migrations.inc();
                    scratch.migrated.push(vm);
                    actions.push(Action::Migrate { vm, target });
                }
            }
            // Supply-following power cap, applied continuously: pick the
            // fastest DVFS level whose predicted demand fits the node's
            // solar share plus a reserve-preserving battery draw —
            // throttle exactly as much as the shortfall requires, and
            // release as soon as supply returns. Below the deep line the
            // battery reserve is defended aggressively.
            let defend = (node.soc < deep_soc).then_some(deep_soc);
            let level = self.fit_dvfs_level(view, total_demand, node, defend);
            if level != node.dvfs {
                self.counters.dvfs_adjustments.inc();
                actions.push(Action::SetDvfs {
                    node: node.node,
                    level,
                });
            }
        }

        // Aging-hiding balance pass (Fig 8), rate-limited.
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if view.nodes.len() >= 2 {
            let Some(((_, best_w), (last, worst_w))) = ranks.get(BALANCE_CLASS).ends() else {
                return actions;
            };
            let worst = &view.nodes[last];
            let gap = if best_w > 1e-6 {
                worst_w / best_w - 1.0
            } else if worst_w > 0.02 {
                // A pristine best node and a measurably aged worst node is
                // the clearest imbalance of all.
                f64::INFINITY
            } else {
                0.0
            };
            if gap > self.config.balance_gap && worst.online {
                if let Some(vm) = heaviest_movable_vm(worst) {
                    if scratch.blocked.contains(&vm.id) {
                        self.counters.rejected_backoffs.inc();
                    } else if !scratch.migrated.contains(&vm.id) {
                        let class = classify_workload(vm.kind, &self.config.server_power);
                        if let Some(target) = ranks.migration_target(
                            class,
                            worst.node,
                            vm.kind,
                            self.config.min_target_soc,
                        ) {
                            self.counters.balance_migrations.inc();
                            actions.push(Action::Migrate { vm: vm.id, target });
                            self.cooldown = self.config.balance_cooldown;
                        }
                    }
                }
            }
        }

        actions
    }
}

impl Policy for Baat {
    fn name(&self) -> &'static str {
        "BAAT"
    }

    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let actions = self.decide(view, ctx, &mut scratch);
        self.scratch = scratch;
        actions
    }

    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        // Fig 8: profile the workload, rank nodes by Eq-6 weighted aging.
        let class = classify_workload(kind, &self.config.server_power);
        rank_by_weighted_aging(view, class)
    }

    fn placement_spec(&self) -> PlacementSpec {
        PlacementSpec::WeightedAging {
            server_power: self.config.server_power,
        }
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
    use crate::policy::common::tests_support::{metrics, node, plain_node, view_of};
    use baat_metrics::{AgingMetrics, DischargeRate, PartialCycling};
    use baat_server::DvfsLevel;
    use baat_sim::VmView;
    use baat_units::Fraction;
    use baat_workload::{VmId, VmState};

    fn stressed_metrics(ddt: f64, dr: f64) -> AgingMetrics {
        AgingMetrics {
            nat: 0.2,
            cf: Some(0.85),
            pc: PartialCycling {
                share_by_range: [0.0, 0.0, 0.2, 0.8],
            },
            ddt: Fraction::saturating(ddt),
            dr: DischargeRate {
                peak_c_rate: dr,
                mean_c_rate: dr,
            },
        }
    }

    fn stressed_loaded_node(i: usize) -> baat_sim::NodeView {
        let mut n = node(i, stressed_metrics(0.3, 0.4), 0.25, (8, 16));
        n.window_metrics = stressed_metrics(0.3, 0.4);
        n.vms = vec![VmView {
            id: VmId(42),
            kind: WorkloadKind::KMeans,
            state: VmState::Running,
            progress: 0.3,
        }];
        n
    }

    #[test]
    fn prefers_migration_over_dvfs() {
        let mut p = Baat::new();
        let v = view_of(vec![stressed_loaded_node(0), plain_node(1, 0.9)]);
        let actions = p.control(&v, &ControlCtx::bootstrap());
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Migrate {
                    vm: VmId(42),
                    target: 1
                }
            )),
            "expected migration first, got {actions:?}"
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, Action::SetDvfs { node: 0, .. })),
            "DVFS should be the fallback only"
        );
    }

    #[test]
    fn falls_back_to_dvfs_when_no_target() {
        let mut p = Baat::new();
        let mut stressed = stressed_loaded_node(0);
        // Night-time scarcity: no solar, battery nearly unable to deliver.
        stressed.battery_available = baat_units::Watts::new(40.0);
        let mut other = plain_node(1, 0.9);
        other.free_resources = (0, 0); // nowhere to go
        let mut v = view_of(vec![stressed, other]);
        v.solar = baat_units::Watts::ZERO;
        let actions = p.control(&v, &ControlCtx::bootstrap());
        assert!(
            actions.iter().any(
                |a| matches!(a, Action::SetDvfs { node: 0, level } if *level != DvfsLevel::P0)
            ),
            "expected a throttle, got {actions:?}"
        );
    }

    #[test]
    fn supply_aware_throttle_is_proportional() {
        // With generous supply the fitted level stays fast even while
        // triggered; with scarce supply it goes deep.
        let p = Baat::new();
        let mut rich = stressed_loaded_node(0);
        rich.battery_available = baat_units::Watts::new(400.0);
        let v_rich = view_of(vec![rich.clone(), plain_node(1, 0.9)]);
        let fast = p.fit_dvfs_level(&v_rich, v_rich.total_demand().as_f64(), &rich, None);

        let mut poor = rich;
        poor.battery_available = baat_units::Watts::new(10.0);
        let mut v_poor = view_of(vec![poor.clone(), plain_node(1, 0.9)]);
        v_poor.solar = baat_units::Watts::ZERO;
        let slow = p.fit_dvfs_level(
            &v_poor,
            v_poor.total_demand().as_f64(),
            &poor,
            Some(Soc::DEEP_DISCHARGE_THRESHOLD),
        );
        assert!(
            fast < slow,
            "fast {fast} should be a higher P-state than {slow}"
        );
    }

    #[test]
    fn balances_aging_variation_with_cooldown() {
        let mut p = Baat::new();
        let mut worst = node(0, metrics(400.0, 0.3), 0.8, (8, 16));
        worst.vms = vec![VmView {
            id: VmId(7),
            kind: WorkloadKind::DataAnalytics,
            state: VmState::Running,
            progress: 0.2,
        }];
        let best = plain_node(1, 0.95);
        let v = view_of(vec![worst, best]);
        let first = p.control(&v, &ControlCtx::bootstrap());
        assert!(first.iter().any(|a| matches!(
            a,
            Action::Migrate {
                vm: VmId(7),
                target: 1
            }
        )));
        // Cooldown suppresses immediate re-balancing.
        let second = p.control(&v, &ControlCtx::bootstrap());
        assert!(!second.iter().any(|a| matches!(a, Action::Migrate { .. })));
    }

    #[test]
    fn balanced_cluster_recovers_dvfs() {
        // Supply is plentiful: the supply-following cap releases the
        // throttle straight back to full speed.
        let mut p = Baat::new();
        let mut n = plain_node(0, 0.9);
        n.dvfs = DvfsLevel::P2;
        let v = view_of(vec![n, plain_node(1, 0.9)]);
        let actions = p.control(&v, &ControlCtx::bootstrap());
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetDvfs {
                node: 0,
                level: DvfsLevel::P0
            }
        )));
    }

    #[test]
    fn placement_ranks_by_weighted_aging() {
        let mut p = Baat::new();
        let v = view_of(vec![
            node(0, metrics(300.0, 0.3), 0.9, (8, 16)),
            node(1, metrics(10.0, 0.9), 0.9, (8, 16)),
        ]);
        let order = p.placement_order(WorkloadKind::SoftwareTesting, &v);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn planned_aging_deepens_the_threshold() {
        // A short service horizon yields a deep DoD goal, i.e. a *lower*
        // deep-SoC line than the default 40 %.
        let p = Baat::with_planned_aging(PlannedAging {
            service_days: 400.0,
            cycles_per_day: 1.0,
        });
        let n = plain_node(0, 0.5);
        let deep = p.deep_soc_for(&n, 0.0);
        assert!(
            deep.value() < 0.40,
            "planned deep line {deep} should sit below the static 40 %"
        );
    }

    #[test]
    fn planned_aging_tightens_near_end_of_horizon() {
        let p = Baat::with_planned_aging(PlannedAging {
            service_days: 1200.0,
            cycles_per_day: 1.0,
        });
        let n = plain_node(0, 0.5);
        let early = p.deep_soc_for(&n, 0.0);
        let late = p.deep_soc_for(&n, 1100.0);
        // Fewer remaining cycles → deeper allowed DoD → lower SoC line.
        assert!(late < early, "late {late} vs early {early}");
    }

    #[test]
    fn planned_cycles_follow_the_usage_log() {
        // Two nodes, same horizon, different observed cycling rates: the
        // heavier-cycled battery gets fewer remaining Ah per cycle, i.e.
        // a shallower DoD goal (higher deep-SoC line).
        let p = Baat::with_planned_aging(PlannedAging {
            service_days: 800.0,
            cycles_per_day: 1.0,
        });
        let light = node(0, metrics(2_000.0, 0.7), 0.5, (8, 16));
        let heavy = node(1, metrics(9_000.0, 0.7), 0.5, (8, 16));
        let elapsed = 100.0;
        let light_line = p.deep_soc_for(&light, elapsed);
        let heavy_line = p.deep_soc_for(&heavy, elapsed);
        assert!(
            heavy_line > light_line,
            "heavily cycled battery must be protected sooner: {heavy_line} vs {light_line}"
        );
    }

    #[test]
    fn exhausted_horizon_falls_back_to_static_threshold() {
        let p = Baat::with_planned_aging(PlannedAging {
            service_days: 10.0,
            cycles_per_day: 1.0,
        });
        let n = plain_node(0, 0.5);
        let deep = p.deep_soc_for(&n, 20.0);
        assert_eq!(deep, SlowdownThresholds::default().deep_soc);
    }
}
