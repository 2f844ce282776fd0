//! Battery forensics: drive one lead-acid unit through contrasting abuse
//! patterns and read back what the five aging mechanisms did — the §II.B
//! aging-mechanism story and the §III metrics, without the datacenter on
//! top.
//!
//! Run with: `cargo run --release --example battery_forensics`

use baat_repro::battery::{Battery, BatteryModel, BatteryOp, BatterySpec, Manufacturer};
use baat_repro::metrics::{AgingMetrics, BatteryRatings};
use baat_repro::units::{Celsius, Dod, SimDuration, SimInstant, Watts};

/// Applies `days` of a usage pattern and reports the damage breakdown.
fn abuse(label: &str, days: u32, pattern: impl Fn(&mut Battery, &mut SimInstant)) {
    let mut battery = Battery::new(BatterySpec::prototype());
    let mut now = SimInstant::START;
    for _ in 0..days {
        pattern(&mut battery, &mut now);
    }
    let ratings = BatteryRatings {
        capacity: battery.spec().capacity(),
        lifetime_throughput: battery.spec().lifetime_throughput(),
    };
    let metrics = AgingMetrics::from_accumulator(battery.telemetry().lifetime(), &ratings);
    println!("— {label} ({days} days) —");
    for (mechanism, damage) in battery.aging_breakdown().iter() {
        println!("  {mechanism:<15} {damage:>8.5}");
    }
    println!(
        "  total {:.4} → capacity {:.1}%, NAT {:.4}, CF {}, PC(Eq4) {:.2}, DDT {}",
        battery.total_damage(),
        battery.capacity_fraction() * 100.0,
        metrics.nat,
        metrics.cf.map_or("—".to_owned(), |v| format!("{v:.2}")),
        metrics.pc.weighted_value(),
        metrics.ddt,
    );
    println!();
}

fn steps(battery: &mut Battery, now: &mut SimInstant, op: BatteryOp, count: u32) {
    let dt = SimDuration::from_minutes(5);
    for _ in 0..count {
        battery.step(op, Celsius::new(27.0), *now, dt);
        *now += dt;
    }
}

fn main() {
    // Backup-style float service: barely used.
    abuse("float service (backup battery)", 60, |b, now| {
        steps(b, now, BatteryOp::Charge(Watts::new(20.0)), 288);
    });

    // Healthy shallow cycling: discharge to ~70 % SoC, recharge.
    abuse("shallow daily cycling", 60, |b, now| {
        steps(b, now, BatteryOp::Discharge(Watts::new(80.0)), 18);
        steps(b, now, BatteryOp::Charge(Watts::new(100.0)), 30);
        steps(b, now, BatteryOp::Idle, 240);
    });

    // The killer: deep discharge and late recharge (sulphation country).
    abuse("deep discharge, late recharge", 60, |b, now| {
        steps(b, now, BatteryOp::Discharge(Watts::new(110.0)), 40);
        steps(b, now, BatteryOp::Idle, 120); // sits discharged
        steps(b, now, BatteryOp::Charge(Watts::new(100.0)), 60);
        steps(b, now, BatteryOp::Idle, 68);
    });

    // What the manufacturers promise at different depths (Fig 10).
    println!("— manufacturer cycle-life curves (Fig 10) —");
    for dod in [0.25, 0.50, 0.80] {
        let d = Dod::new(dod).expect("static DoD");
        print!("  DoD {:>3.0}%:", dod * 100.0);
        for m in Manufacturer::ALL {
            print!("  {} {:>5.0} cycles", m, m.cycles_to_eol(d));
        }
        println!();
    }
}
