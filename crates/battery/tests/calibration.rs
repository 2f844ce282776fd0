//! Calibration-consistency tests: the damage-accumulation model and the
//! manufacturer cycle-life curves describe the same battery, so cycling
//! the dynamic model to end-of-life must land within shouting distance of
//! the Fig 10 curve (same order of magnitude, right DoD trend).

use baat_battery::{Battery, BatteryModel, BatteryOp, BatterySpec, Manufacturer};
use baat_units::{Celsius, Dod, SimDuration, SimInstant, Soc, Watts};

/// Cycles a fresh prototype battery at roughly the given DoD until
/// end-of-life; returns the number of completed cycles (capped).
fn cycles_to_eol(dod: f64, cap: u32) -> u32 {
    let mut battery = Battery::new(BatterySpec::prototype());
    let mut now = SimInstant::START;
    let dt = SimDuration::from_minutes(6);
    let floor = 1.0 - dod;
    for cycle in 0..cap {
        // Discharge at a gentle 0.15C until the target depth.
        for _ in 0..400 {
            if battery.soc().value() <= floor {
                break;
            }
            battery.step(
                BatteryOp::Discharge(Watts::new(60.0)),
                Celsius::new(20.0),
                now,
                dt,
            );
            now += dt;
        }
        // Recharge to full.
        for _ in 0..600 {
            if battery.soc().value() >= 0.995 {
                break;
            }
            battery.step(
                BatteryOp::Charge(Watts::new(100.0)),
                Celsius::new(20.0),
                now,
                dt,
            );
            now += dt;
        }
        if battery.is_end_of_life() {
            return cycle + 1;
        }
    }
    cap
}

#[test]
fn damage_model_agrees_with_cycle_life_curve_at_half_dod() {
    let measured = cycles_to_eol(0.5, 4000);
    let curve = Manufacturer::Trojan.cycles_to_eol(Dod::new(0.5).unwrap());
    // Same battery, two models fit from different data: agreement within
    // a factor of three is the calibration contract.
    assert!(
        (curve / 3.0..curve * 3.0).contains(&f64::from(measured)),
        "dynamic model {measured} cycles vs curve {curve:.0}"
    );
}

#[test]
fn deeper_cycling_reaches_eol_sooner() {
    let shallow = cycles_to_eol(0.3, 6000);
    let deep = cycles_to_eol(0.8, 6000);
    assert!(
        deep < shallow,
        "deep {deep} cycles should be fewer than shallow {shallow}"
    );
}

#[test]
fn pre_age_matches_organic_aging_observables() {
    // A battery pre-aged to damage 0.5 must look like one organically
    // cycled there: same capacity fraction and resistance factor mapping.
    let mut pre = Battery::new(BatterySpec::prototype());
    pre.pre_age(0.5);
    assert!(pre.total_damage() >= 0.5);
    assert!((pre.capacity_fraction() - (1.0 - 0.2 * pre.total_damage())).abs() < 1e-9);
    assert!(pre.effective_capacity().as_f64() < 35.0 * 0.92);
    assert!(!pre.is_end_of_life());
    // Pre-aging is idempotent at the target.
    let damage = pre.total_damage();
    pre.pre_age(0.4);
    assert_eq!(pre.total_damage(), damage);
}

#[test]
fn six_months_of_cyclic_use_stays_short_of_eol() {
    // The paper's instrumented battery lost ~14 % capacity in six months
    // of aggressive cycling — worn, but not yet at the 80 % line. Our
    // model must reproduce that head-room.
    let mut battery = Battery::new(BatterySpec::prototype());
    let mut now = SimInstant::START;
    let dt = SimDuration::from_minutes(10);
    for _day in 0..180 {
        for _ in 0..17 {
            battery.step(
                BatteryOp::Discharge(Watts::new(110.0)),
                Celsius::new(27.0),
                now,
                dt,
            );
            now += dt;
        }
        for _ in 0..48 {
            battery.step(
                BatteryOp::Charge(Watts::new(100.0)),
                Celsius::new(27.0),
                now,
                dt,
            );
            now += dt;
        }
        for _ in 0..79 {
            battery.step(BatteryOp::Idle, Celsius::new(27.0), now, dt);
            now += dt;
        }
    }
    let damage = battery.total_damage();
    assert!(
        (0.3..1.0).contains(&damage),
        "six aggressive months should wear substantially without EOL: {damage}"
    );
    let cap = battery.capacity_fraction();
    assert!((0.80..0.95).contains(&cap), "capacity fraction {cap}");
}

#[test]
fn temperature_accelerates_eol() {
    let cycles_at = |temp: f64| -> u32 {
        let mut battery = Battery::new(BatterySpec::prototype());
        let mut now = SimInstant::START;
        let dt = SimDuration::from_minutes(6);
        for cycle in 0..3000u32 {
            for _ in 0..400 {
                if battery.soc().value() <= 0.4 {
                    break;
                }
                battery.step(
                    BatteryOp::Discharge(Watts::new(60.0)),
                    Celsius::new(temp),
                    now,
                    dt,
                );
                now += dt;
            }
            for _ in 0..600 {
                if battery.soc().value() >= 0.995 {
                    break;
                }
                battery.step(
                    BatteryOp::Charge(Watts::new(100.0)),
                    Celsius::new(temp),
                    now,
                    dt,
                );
                now += dt;
            }
            if battery.is_end_of_life() {
                return cycle + 1;
            }
        }
        3000
    };
    let cool = cycles_at(20.0);
    let hot = cycles_at(35.0);
    // §III.E: +10 °C halves lifetime; +15 °C should cost well over 2×.
    assert!(
        f64::from(hot) < f64::from(cool) * 0.55,
        "hot {hot} vs cool {cool}"
    );
}

#[test]
fn soc_floor_of_model_matches_cutoff_behaviour() {
    // Discharging an empty battery delivers nothing but never panics or
    // goes negative.
    let mut battery = Battery::new(BatterySpec::prototype());
    battery.set_soc(Soc::EMPTY);
    let r = battery.step(
        BatteryOp::Discharge(Watts::new(100.0)),
        Celsius::new(25.0),
        SimInstant::START,
        SimDuration::from_minutes(1),
    );
    assert_eq!(r.delivered, Watts::ZERO);
    assert!(r.cutoff);
}
