//! Full BAAT's control pass ranks each demand class at most once per
//! call. This pins it, action for action, to a test-local copy of the
//! earlier loop, which re-sorted the whole fleet (scoring inside the
//! comparator) for every triggered node and again for the balance pass.
//!
//! The views are seeded and random, with degraded and offline nodes,
//! weighted-aging ties (nodes share a few metric templates), VMs blocked
//! by last interval's rejected migrations, and the balance cooldown both
//! at zero and above zero.

use baat_core::{
    classify_workload, heaviest_movable_vm, node_weighted_aging, Baat, BaatConfig, PlannedAging,
};
use baat_metrics::{dod_goal, AgingMetrics, DischargeRate, PartialCycling, PlannedAgingInputs};
use baat_server::DvfsLevel;
use baat_sim::{
    Action, ActionOutcome, ActionResult, ControlCtx, NodeView, Policy, RejectReason, SystemView,
    VmView,
};
use baat_solar::Weather;
use baat_units::{AmpHours, Fraction, SimInstant, Soc, TimeOfDay, Watts};
use baat_workload::{DemandClass, EnergyDemand, PowerDemand, VmId, VmState, WorkloadKind};

/// SplitMix64: enough randomness for view generation, reproducible by
/// seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

const BALANCE_CLASS: DemandClass = DemandClass {
    power: PowerDemand::Large,
    energy: EnergyDemand::More,
};

fn random_metrics(rng: &mut Rng) -> AgingMetrics {
    let low = rng.range(0.0, 1.0);
    AgingMetrics {
        nat: rng.range(0.0, 0.6),
        cf: rng.chance(0.8).then(|| rng.range(0.5, 1.3)),
        pc: PartialCycling {
            share_by_range: [1.0 - low, 0.0, 0.0, low],
        },
        ddt: Fraction::saturating(rng.range(0.0, 0.2)),
        dr: DischargeRate {
            peak_c_rate: rng.range(0.0, 0.5),
            mean_c_rate: rng.range(0.0, 0.4),
        },
    }
}

fn random_view(rng: &mut Rng) -> SystemView {
    let n = 2 + rng.below(40) as usize;
    // A few shared lifetime-metric templates make weighted-aging ties
    // common, so the tie order (by node index) is exercised.
    let templates: Vec<AgingMetrics> = (0..1 + rng.below(4)).map(|_| random_metrics(rng)).collect();
    let mut next_vm = 0u64;
    let nodes = (0..n)
        .map(|i| {
            let lifetime = if rng.chance(0.6) {
                templates[rng.below(templates.len() as u64) as usize]
            } else {
                random_metrics(rng)
            };
            let vms = (0..rng.below(4))
                .map(|_| {
                    next_vm += 1;
                    VmView {
                        id: VmId(next_vm),
                        kind: WorkloadKind::ALL[rng.below(6) as usize],
                        state: if rng.chance(0.85) {
                            VmState::Running
                        } else {
                            VmState::Paused
                        },
                        progress: rng.unit(),
                    }
                })
                .collect();
            NodeView {
                node: i,
                soc: Soc::saturating(rng.range(0.05, 1.0)),
                window_metrics: random_metrics(rng),
                lifetime_metrics: lifetime,
                damage: rng.range(0.0, 0.3),
                capacity_fraction: rng.range(0.6, 1.0),
                server_power: Watts::new(rng.range(40.0, 220.0)),
                utilization: Fraction::saturating(rng.unit()),
                dvfs: DvfsLevel::ALL[rng.below(5) as usize],
                online: rng.chance(0.85),
                degraded: rng.chance(0.15),
                free_resources: (rng.below(9) as u32, rng.below(17) as u32),
                vms,
                battery_available: Watts::new(rng.range(0.0, 400.0)),
                battery_capacity_wh: 840.0,
                battery_capacity_ah: 70.0,
                battery_lifetime_throughput_ah: 35_000.0,
                soc_floor: Soc::saturating(rng.range(0.0, 0.2)),
            }
        })
        .collect();
    let day = rng.below(400);
    let tod = TimeOfDay::from_hm(7 + rng.below(12) as u32, rng.below(60) as u32);
    SystemView {
        now: SimInstant::from_secs(day * 86_400 + u64::from(tod.as_secs())),
        tod,
        weather: Weather::Cloudy,
        solar: Watts::new(rng.range(0.0, 80.0 * n as f64)),
        nodes,
    }
}

/// Last interval's outcomes: some movable VMs' migrations were rejected
/// (blocked this interval), some were applied (not blocked).
fn random_outcomes(rng: &mut Rng, view: &SystemView) -> Vec<ActionOutcome> {
    view.nodes
        .iter()
        .flat_map(|node| node.vms.iter())
        .filter_map(|vm| {
            let result = match rng.below(10) {
                0..=1 => ActionResult::Rejected(RejectReason::TargetFull),
                2 => ActionResult::Applied,
                _ => return None,
            };
            let action = Action::Migrate {
                vm: vm.id,
                target: 0,
            };
            Some(ActionOutcome { action, result })
        })
        .collect()
}

/// What the reference loop did, so the test can prove it exercised the
/// interesting branches.
#[derive(Debug, Default)]
struct Coverage {
    slowdown_migrations: usize,
    balance_migrations: usize,
    blocked: usize,
    ranked_ties: usize,
}

/// The earlier control loop, verbatim in behaviour: one full-fleet sort
/// per migration-target search.
struct Reference {
    config: BaatConfig,
    cooldown: u32,
}

impl Reference {
    fn rank(view: &SystemView, class: DemandClass) -> Vec<usize> {
        let mut order: Vec<usize> = view.nodes.iter().map(|n| n.node).collect();
        order.sort_by(|&a, &b| {
            let (na, nb) = (&view.nodes[a], &view.nodes[b]);
            na.degraded
                .cmp(&nb.degraded)
                .then(node_weighted_aging(na, class).total_cmp(&node_weighted_aging(nb, class)))
        });
        order
    }

    fn target(
        &self,
        view: &SystemView,
        source: usize,
        kind: WorkloadKind,
        class: DemandClass,
    ) -> Option<usize> {
        let request = kind.resource_request();
        Self::rank(view, class).into_iter().find(|&candidate| {
            let node = &view.nodes[candidate];
            candidate != source
                && node.online
                && !node.degraded
                && node.soc.value() >= self.config.min_target_soc
                && node.free_resources.0 >= request.0
                && node.free_resources.1 >= request.1
        })
    }

    fn fit_dvfs_level(&self, view: &SystemView, node: &NodeView, defend: Option<Soc>) -> DvfsLevel {
        let total_demand = view.total_demand().as_f64();
        let solar_share = if total_demand > 0.0 {
            view.solar.as_f64() * node.server_power.as_f64() / total_demand
        } else {
            view.solar.as_f64() / view.nodes.len().max(1) as f64
        };
        let (reserve, max_horizon) = match defend {
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
        DvfsLevel::ALL
            .into_iter()
            .find(|level| idle + dynamic * util * level.power_factor() <= supply)
            .unwrap_or(DvfsLevel::P4)
    }

    fn deep_soc_for(&self, node: &NodeView, elapsed_days: f64) -> Soc {
        let Some(planned) = self.config.planned else {
            return self.config.thresholds.deep_soc;
        };
        let capacity = AmpHours::new(node.battery_capacity_ah * node.capacity_fraction.max(0.5));
        let lifetime_throughput = AmpHours::new(node.battery_lifetime_throughput_ah);
        let used = AmpHours::new(node.lifetime_metrics.nat * lifetime_throughput.as_f64());
        let remaining_days = (planned.service_days - elapsed_days).max(0.0);
        let observed =
            (elapsed_days >= 1.0).then(|| used.as_f64() / node.battery_capacity_ah / elapsed_days);
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

    fn control(
        &mut self,
        view: &SystemView,
        ctx: &ControlCtx<'_>,
        cov: &mut Coverage,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut migrated_vms = Vec::new();
        let elapsed_days = view.now.day() as f64;
        let t = self.config.thresholds;
        let blocked: Vec<VmId> = ctx.rejected_migrations().collect();
        for node in &view.nodes {
            if !node.online {
                continue;
            }
            let deep_soc = self.deep_soc_for(node, elapsed_days);
            let ddt = node.window_metrics.ddt.value();
            let dr = node.window_metrics.dr.mean_c_rate;
            if node.soc < deep_soc && (ddt > t.ddt || dr > t.dr_c_rate) {
                if let Some(vm) = heaviest_movable_vm(node) {
                    if blocked.contains(&vm.id) {
                        cov.blocked += 1;
                    } else {
                        let class = classify_workload(vm.kind, &self.config.server_power);
                        if let Some(target) = self.target(view, node.node, vm.kind, class) {
                            cov.slowdown_migrations += 1;
                            migrated_vms.push(vm.id);
                            actions.push(Action::Migrate { vm: vm.id, target });
                        }
                    }
                }
            }
            let defend = (node.soc < deep_soc).then_some(deep_soc);
            let level = self.fit_dvfs_level(view, node, defend);
            if level != node.dvfs {
                actions.push(Action::SetDvfs {
                    node: node.node,
                    level,
                });
            }
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if view.nodes.len() >= 2 {
            let ranked = Self::rank(view, BALANCE_CLASS);
            cov.ranked_ties += ranked
                .windows(2)
                .filter(|w| {
                    let (a, b) = (&view.nodes[w[0]], &view.nodes[w[1]]);
                    a.degraded == b.degraded
                        && node_weighted_aging(a, BALANCE_CLASS)
                            == node_weighted_aging(b, BALANCE_CLASS)
                })
                .count();
            let best = &view.nodes[ranked[0]];
            let worst = &view.nodes[ranked[ranked.len() - 1]];
            let worst_w = node_weighted_aging(worst, BALANCE_CLASS);
            let best_w = node_weighted_aging(best, BALANCE_CLASS);
            let gap = if best_w > 1e-6 {
                worst_w / best_w - 1.0
            } else if worst_w > 0.02 {
                f64::INFINITY
            } else {
                0.0
            };
            if gap > self.config.balance_gap && worst.online {
                if let Some(vm) = heaviest_movable_vm(worst) {
                    if blocked.contains(&vm.id) {
                        cov.blocked += 1;
                    } else if !migrated_vms.contains(&vm.id) {
                        let class = classify_workload(vm.kind, &self.config.server_power);
                        if let Some(target) = self.target(view, worst.node, vm.kind, class) {
                            cov.balance_migrations += 1;
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

fn configs() -> Vec<BaatConfig> {
    vec![
        BaatConfig::default(),
        BaatConfig {
            balance_gap: 0.0,
            balance_cooldown: 2,
            min_target_soc: 0.2,
            ..BaatConfig::default()
        },
        BaatConfig {
            planned: Some(PlannedAging {
                service_days: 900.0,
                cycles_per_day: 1.0,
            }),
            ..BaatConfig::default()
        },
    ]
}

#[test]
fn control_matches_the_per_node_sort_loop() {
    let mut cov = Coverage::default();
    let mut zero_cooldown_calls = 0;
    let mut held_cooldown_calls = 0;
    // One policy per config across every seed, so that each call reuses
    // buffers a call on another view filled.
    let mut policies: Vec<Baat> = configs().into_iter().map(Baat::with_config).collect();
    for seed in 0..400u64 {
        let mut rng = Rng(seed);
        for (config, policy) in configs().into_iter().zip(&mut policies) {
            let view = random_view(&mut rng);
            let outcomes = random_outcomes(&mut rng, &view);
            let ctx = ControlCtx {
                step_index: seed,
                now: view.now,
                last_outcomes: &outcomes,
            };
            let cooldown = [0, 0, 1, 3][rng.below(4) as usize];
            policy.load_state(&[u64::from(cooldown)]);
            let mut reference = Reference { config, cooldown };
            // Successive calls on one view walk the cooldown down and,
            // after a balance migration, back up.
            for call in 0..3 {
                if reference.cooldown == 0 {
                    zero_cooldown_calls += 1;
                } else {
                    held_cooldown_calls += 1;
                }
                let expected = reference.control(&view, &ctx, &mut cov);
                let actual = policy.control(&view, &ctx);
                assert_eq!(actual, expected, "seed {seed}, call {call}");
                assert_eq!(
                    policy.save_state(),
                    vec![u64::from(reference.cooldown)],
                    "seed {seed}, call {call}: cooldown diverged"
                );
            }
        }
    }
    assert!(
        cov.slowdown_migrations > 0,
        "no slowdown migration: {cov:?}"
    );
    assert!(cov.balance_migrations > 0, "no balance migration: {cov:?}");
    assert!(cov.blocked > 0, "no blocked VM was hit: {cov:?}");
    assert!(
        cov.ranked_ties > 0,
        "no weighted-aging tie was ranked: {cov:?}"
    );
    assert!(zero_cooldown_calls > 0 && held_cooldown_calls > 0);
}
