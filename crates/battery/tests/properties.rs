//! Property-based tests for battery invariants.

use baat_battery::{
    AgingModel, AgingState, Battery, BatteryModel, BatteryOp, BatterySpec, Chemistry,
    DamageBreakdown, Manufacturer, MemoizedCycleLife, StepResult, StressSample,
};
use baat_testkit::prelude::*;
use baat_units::{AmpHours, Amperes, Celsius, Dod, SimDuration, SimInstant, Soc, Watts};

/// One step through the generic [`BatteryModel`] contract, the way the
/// engine's bank shards and the aging experiment drive their units.
fn step_through_trait<B: BatteryModel>(
    b: &mut B,
    op: BatteryOp,
    ambient: Celsius,
    now: SimInstant,
    dt: SimDuration,
) -> StepResult {
    b.try_step(op, ambient, now, dt)
        .expect("finite power request")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SoC stays in [0, 1] under any operation sequence.
    #[test]
    fn soc_always_bounded(ops in baat_testkit::collection::vec((0.0f64..400.0, 0u8..3), 1..200)) {
        let mut b = Battery::new(BatterySpec::prototype());
        let dt = SimDuration::from_minutes(5);
        let mut now = SimInstant::START;
        for (power, kind) in ops {
            let op = match kind {
                0 => BatteryOp::Discharge(Watts::new(power)),
                1 => BatteryOp::Charge(Watts::new(power)),
                _ => BatteryOp::Idle,
            };
            b.step(op, Celsius::new(25.0), now, dt);
            now += dt;
            let soc = b.soc().value();
            prop_assert!((0.0..=1.0).contains(&soc), "soc {soc}");
        }
    }

    /// Damage is monotone non-decreasing and capacity monotone
    /// non-increasing over any usage.
    #[test]
    fn aging_is_irreversible(ops in baat_testkit::collection::vec((0.0f64..400.0, 0u8..3), 1..100)) {
        let mut b = Battery::new(BatterySpec::prototype());
        let dt = SimDuration::from_minutes(5);
        let mut now = SimInstant::START;
        let mut last_damage = 0.0;
        let mut last_capacity = b.effective_capacity().as_f64();
        for (power, kind) in ops {
            let op = match kind {
                0 => BatteryOp::Discharge(Watts::new(power)),
                1 => BatteryOp::Charge(Watts::new(power)),
                _ => BatteryOp::Idle,
            };
            b.step(op, Celsius::new(25.0), now, dt);
            now += dt;
            let d = b.total_damage();
            let c = b.effective_capacity().as_f64();
            prop_assert!(d >= last_damage, "damage must not heal");
            prop_assert!(c <= last_capacity + 1e-12, "capacity must not grow");
            last_damage = d;
            last_capacity = c;
        }
    }

    /// Delivered power never exceeds the request, and accepted power never
    /// exceeds the offer.
    #[test]
    fn power_conservation_at_terminals(power in 0.0f64..500.0, soc0 in 0.05f64..1.0) {
        let mut b = Battery::new(BatterySpec::prototype());
        b.set_soc(Soc::new(soc0).unwrap());
        let dt = SimDuration::from_minutes(1);
        let d = b.step(BatteryOp::Discharge(Watts::new(power)), Celsius::new(25.0), SimInstant::START, dt);
        prop_assert!(d.delivered.as_f64() <= power + 1e-9);
        prop_assert!(d.accepted == Watts::ZERO);

        let mut b2 = Battery::new(BatterySpec::prototype());
        b2.set_soc(Soc::new(soc0 * 0.9).unwrap());
        let c = b2.step(BatteryOp::Charge(Watts::new(power)), Celsius::new(25.0), SimInstant::START, dt);
        prop_assert!(c.accepted.as_f64() <= power + 1e-9);
        prop_assert!(c.delivered == Watts::ZERO);
    }

    /// Cumulative telemetry equals the sum of per-step charge motion.
    #[test]
    fn telemetry_matches_integrated_current(steps in 1u64..100, power in 10.0f64..200.0) {
        let mut b = Battery::new(BatterySpec::prototype());
        let dt = SimDuration::from_minutes(2);
        let mut now = SimInstant::START;
        let mut expected = 0.0;
        for _ in 0..steps {
            let r = b.step(BatteryOp::Discharge(Watts::new(power)), Celsius::new(25.0), now, dt);
            if r.current.as_f64() > 0.0 {
                expected += r.current.as_f64() * dt.as_hours();
            }
            now += dt;
        }
        let recorded = b.telemetry().lifetime().ah_discharged.as_f64();
        prop_assert!((recorded - expected).abs() < 1e-6 * expected.max(1.0),
            "recorded {recorded} expected {expected}");
    }

    /// Cycle-life curves are monotone decreasing in DoD for every
    /// manufacturer.
    #[test]
    fn cycle_life_monotone(d1 in 0.01f64..1.0, d2 in 0.01f64..1.0) {
        prop_assume!(d1 < d2);
        for m in Manufacturer::ALL {
            let n1 = m.cycles_to_eol(Dod::new(d1).unwrap());
            let n2 = m.cycles_to_eol(Dod::new(d2).unwrap());
            prop_assert!(n1 > n2);
        }
    }

    /// Terminal voltage under discharge stays below OCV and above zero for
    /// feasible loads.
    #[test]
    fn discharge_voltage_bounded(power in 1.0f64..300.0, soc0 in 0.3f64..1.0) {
        let mut b = Battery::new(BatterySpec::prototype());
        b.set_soc(Soc::new(soc0).unwrap());
        let ocv = b.open_circuit_voltage();
        let r = b.step(
            BatteryOp::Discharge(Watts::new(power)),
            Celsius::new(25.0),
            SimInstant::START,
            SimDuration::from_secs(30),
        );
        if r.delivered.as_f64() > 0.0 {
            prop_assert!(r.terminal_voltage < ocv);
            prop_assert!(r.terminal_voltage.as_f64() > 0.0);
        }
    }

    /// Stored charge never exceeds effective capacity.
    #[test]
    fn stored_charge_within_capacity(soc0 in 0.0f64..=1.0) {
        let mut b = Battery::new(BatterySpec::prototype());
        b.set_soc(Soc::new(soc0).unwrap());
        prop_assert!(b.stored_charge() <= b.effective_capacity() + AmpHours::new(1e-9));
    }

    /// The memoized cycle-life curve is **bit-identical** to the direct
    /// `powf·exp` formula across the full DoD domain, for every
    /// manufacturer — including cache-hit queries. The pool/index
    /// encoding forces repeated DoDs, so both the miss path and the hit
    /// path are exercised on every case.
    #[test]
    fn memoized_cycle_life_is_bit_identical_to_direct(
        pool in baat_testkit::collection::vec(0.001f64..=1.0, 1..4),
        picks in baat_testkit::collection::vec(0usize..4, 1..40),
    ) {
        for m in Manufacturer::ALL {
            let curve = m.curve();
            let mut memo = MemoizedCycleLife::new(curve);
            for &p in &picks {
                let dod = Dod::new(pool[p % pool.len()]).unwrap();
                let memoized = memo.cycles_to_eol(dod);
                let direct = curve.cycles_to_eol(dod);
                prop_assert_eq!(
                    memoized.to_bits(),
                    direct.to_bits(),
                    "memo diverged at dod {} for {:?}: {} vs {}",
                    dod.value(), m, memoized, direct
                );
                prop_assert_eq!(
                    memo.lifetime_throughput(dod, AmpHours::new(35.0)),
                    curve.lifetime_throughput(dod, AmpHours::new(35.0))
                );
            }
        }
    }

    /// Damage integrated through the Arrhenius-memoizing [`AgingState`]
    /// is **bit-identical** to summing the direct per-sample formula
    /// ([`AgingModel::incremental_damage`], which evaluates the `powf`
    /// fresh every time) across the temperature domain. Temperatures are
    /// drawn from a small pool so consecutive repeats (the memo-hit path)
    /// occur alongside cold misses.
    #[test]
    fn memoized_arrhenius_aging_is_bit_identical_to_direct(
        temps in baat_testkit::collection::vec(-10.0f64..=60.0, 1..4),
        steps in baat_testkit::collection::vec((0usize..4, -20.0f64..20.0, 0.05f64..1.0), 1..60),
    ) {
        let model = AgingModel::new(17_500.0);
        let mut state = AgingState::new(model.clone());
        let mut direct_sum = DamageBreakdown::default();
        let dt = SimDuration::from_minutes(5);
        for &(t, amps, soc) in &steps {
            let current = Amperes::new(amps);
            let moved = AmpHours::new(amps.abs() * dt.as_hours());
            let s = StressSample {
                soc: Soc::new(soc).unwrap(),
                current,
                temperature: Celsius::new(temps[t % temps.len()]),
                dt,
                discharged: if amps > 0.0 { moved } else { AmpHours::ZERO },
                charged: if amps < 0.0 { moved } else { AmpHours::ZERO },
                overcharge: AmpHours::ZERO,
                capacity: AmpHours::new(35.0),
                hours_since_full: 4.0,
            };
            state.apply(&s);
            let inc = model.incremental_damage(&s);
            direct_sum.corrosion += inc.corrosion;
            direct_sum.shedding += inc.shedding;
            direct_sum.sulphation += inc.sulphation;
            direct_sum.water_loss += inc.water_loss;
            direct_sum.stratification += inc.stratification;
        }
        // DamageBreakdown equality is exact f64 equality per mechanism.
        prop_assert_eq!(state.breakdown(), &direct_sum);
        prop_assert_eq!(
            state.total_damage().to_bits(),
            direct_sum.total().to_bits()
        );
    }

    /// A lead-acid unit driven generically through [`BatteryModel::try_step`]
    /// is **bit-identical** to one driven by direct [`Battery::step`] calls,
    /// for every manufacturer's cycle-life curve, even when its spec is
    /// derived through [`BatterySpec::to_builder`] as the pack and the
    /// shared-pool bank derive theirs.
    #[test]
    fn lead_acid_through_trait_is_bit_identical_to_direct(
        ops in baat_testkit::collection::vec((0.0f64..400.0, 0u8..3, 0u8..200), 1..120),
    ) {
        for m in Manufacturer::ALL {
            let throughput =
                m.curve().lifetime_throughput(Dod::new(0.8).unwrap(), AmpHours::new(35.0));
            let spec = BatterySpec::builder()
                .lifetime_throughput(throughput)
                .build()
                .unwrap();
            let derived = spec.to_builder().build().unwrap();
            let mut direct = Battery::new(spec);
            let mut via_trait = Battery::new(derived);
            prop_assert_eq!(via_trait.chemistry(), Chemistry::LeadAcid);
            let dt = SimDuration::from_minutes(5);
            let mut now = SimInstant::START;
            for &(power, kind, ambient_q) in &ops {
                let op = match kind {
                    0 => BatteryOp::Discharge(Watts::new(power)),
                    1 => BatteryOp::Charge(Watts::new(power)),
                    _ => BatteryOp::Idle,
                };
                let ambient = Celsius::new(f64::from(ambient_q) * 0.25 - 5.0);
                let a = direct.step(op, ambient, now, dt);
                let b = step_through_trait(&mut via_trait, op, ambient, now, dt);
                prop_assert_eq!(a, b, "step result diverged for {:?}", m);
                now += dt;
            }
            prop_assert_eq!(direct.soc(), via_trait.soc());
            prop_assert_eq!(
                direct.total_damage().to_bits(),
                via_trait.total_damage().to_bits(),
                "damage diverged for {:?}", m
            );
            prop_assert_eq!(direct.aging_breakdown(), via_trait.aging_breakdown());
            prop_assert_eq!(direct.open_circuit_voltage(), via_trait.open_circuit_voltage());
            prop_assert_eq!(&direct, &via_trait);
        }
    }
}
