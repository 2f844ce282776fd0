//! Property-based tests for the aging metrics.

use baat_battery::UsageAccumulator;
use baat_metrics::{dod_goal, weighted_aging, AgingMetrics, BatteryRatings, PlannedAgingInputs};
use baat_testkit::prelude::*;
use baat_units::{AmpHours, Amperes, SimDuration, Soc, Volts, WattHours};
use baat_workload::{DemandClass, EnergyDemand, PowerDemand};

fn ratings() -> BatteryRatings {
    BatteryRatings {
        capacity: AmpHours::new(35.0),
        lifetime_throughput: AmpHours::new(17_500.0),
    }
}

fn record(acc: &mut UsageAccumulator, soc: f64, amps: f64, secs: u64) {
    let dt = SimDuration::from_secs(secs);
    let (dis, chg) = if amps >= 0.0 {
        (Amperes::new(amps) * dt, AmpHours::ZERO)
    } else {
        (AmpHours::ZERO, Amperes::new(-amps) * dt)
    };
    acc.record(
        Soc::new(soc).unwrap(),
        Amperes::new(amps),
        dis,
        chg,
        Volts::new(12.0) * Amperes::new(amps.max(0.0)) * dt,
        WattHours::ZERO,
        dt,
    );
}

fn class_strategy() -> impl Strategy<Value = DemandClass> {
    prop_oneof![
        Just(DemandClass {
            power: PowerDemand::Large,
            energy: EnergyDemand::More
        }),
        Just(DemandClass {
            power: PowerDemand::Large,
            energy: EnergyDemand::Less
        }),
        Just(DemandClass {
            power: PowerDemand::Small,
            energy: EnergyDemand::More
        }),
        Just(DemandClass {
            power: PowerDemand::Small,
            energy: EnergyDemand::Less
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weighted aging is non-negative, bounded by the sum of weights, and
    /// zero for an untouched battery.
    #[test]
    fn weighted_aging_bounded(
        steps in baat_testkit::collection::vec((0.0f64..1.0, -20.0f64..40.0, 60u64..3600), 0..30),
        class in class_strategy(),
    ) {
        let mut acc = UsageAccumulator::default();
        for (soc, amps, secs) in steps {
            record(&mut acc, soc, amps, secs);
        }
        let m = AgingMetrics::from_accumulator(&acc, &ratings());
        let w = weighted_aging(&m, class);
        prop_assert!(w >= 0.0);
        prop_assert!(w <= 1.5, "weights sum to ≤ 1.5, got {w}");
    }

    /// NAT is linear: doubling every discharge doubles NAT.
    #[test]
    fn nat_is_linear(amps in 1.0f64..30.0, secs in 600u64..7200) {
        let mut one = UsageAccumulator::default();
        record(&mut one, 0.5, amps, secs);
        let mut two = UsageAccumulator::default();
        record(&mut two, 0.5, amps, secs);
        record(&mut two, 0.5, amps, secs);
        let m1 = AgingMetrics::from_accumulator(&one, &ratings());
        let m2 = AgingMetrics::from_accumulator(&two, &ratings());
        prop_assert!((m2.nat - 2.0 * m1.nat).abs() < 1e-12);
    }

    /// PC's Eq-4 value lies in [0.25, 1] whenever anything was discharged.
    #[test]
    fn pc_range(socs in baat_testkit::collection::vec(0.0f64..1.0, 1..20)) {
        let mut acc = UsageAccumulator::default();
        for soc in socs {
            record(&mut acc, soc, 5.0, 600);
        }
        let m = AgingMetrics::from_accumulator(&acc, &ratings());
        let pc = m.pc.weighted_value();
        prop_assert!((0.25..=1.0 + 1e-12).contains(&pc), "pc {pc}");
        let shares: f64 = m.pc.share_by_range.iter().sum();
        prop_assert!((shares - 1.0).abs() < 1e-9);
    }

    /// The Eq-7 DoD goal, when defined, is within the clamp range and
    /// decreases (or holds) as more throughput has been used.
    #[test]
    fn dod_goal_monotone_in_usage(used1 in 0.0f64..10_000.0, used2 in 0.0f64..10_000.0, cycles in 50.0f64..5000.0) {
        prop_assume!(used1 < used2);
        let goal = |used: f64| dod_goal(&PlannedAgingInputs {
            total_throughput: AmpHours::new(17_500.0),
            used_throughput: AmpHours::new(used),
            capacity: AmpHours::new(35.0),
            planned_cycles: cycles,
        });
        let g1 = goal(used1).expect("remaining life");
        let g2 = goal(used2).expect("remaining life");
        prop_assert!((0.05..=0.90).contains(&g1.value()));
        prop_assert!(g2 <= g1);
    }
}
