//! Figures 3–5: six months of measured battery degradation.
//!
//! The paper instruments one battery over six months of cyclic use and
//! reports: fully-charged terminal voltage −9 % (Fig 3) with the drop
//! *accelerating* (0.1 V/month early, 0.3 V/month late), per-cycle stored
//! energy −14 % (Fig 4), and round-trip efficiency −8 % (Fig 5). This
//! experiment reproduces the measurement protocol on the battery model:
//! one aggressive charge/discharge cycle per day, with monthly probes.

use baat_battery::{Battery, BatteryModel, BatteryOp, BatterySpec, Chemistry};
use baat_units::{Celsius, SimDuration, SimInstant, Volts, Watts};

/// One monthly probe of the instrumented battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthlyProbe {
    /// Month index (0 = new battery).
    pub month: usize,
    /// Fully-charged terminal voltage under the standard probe load.
    pub full_charge_voltage: Volts,
    /// Energy delivered by one full probe cycle (Wh).
    pub cycle_energy_wh: f64,
    /// Round-trip efficiency of the probe cycle.
    pub round_trip_efficiency: f64,
    /// Accumulated damage.
    pub damage: f64,
}

/// Result of the six-month aging measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingTrajectory {
    /// Monthly probes, starting with the new battery.
    pub probes: Vec<MonthlyProbe>,
}

impl AgingTrajectory {
    /// Relative fully-charged voltage drop from month 0 to the end.
    pub fn voltage_drop(&self) -> f64 {
        let first = self.probes.first().expect("probes non-empty");
        let last = self.probes.last().expect("probes non-empty");
        1.0 - last.full_charge_voltage.as_f64() / first.full_charge_voltage.as_f64()
    }

    /// Relative per-cycle energy drop (Fig 4).
    pub fn capacity_drop(&self) -> f64 {
        let first = self.probes.first().expect("probes non-empty");
        let last = self.probes.last().expect("probes non-empty");
        1.0 - last.cycle_energy_wh / first.cycle_energy_wh
    }

    /// Absolute round-trip efficiency drop (Fig 5).
    pub fn efficiency_drop(&self) -> f64 {
        let first = self.probes.first().expect("probes non-empty");
        let last = self.probes.last().expect("probes non-empty");
        first.round_trip_efficiency - last.round_trip_efficiency
    }

    /// Voltage loss rate (V/month) over the first and second halves —
    /// the paper observes the rate roughly tripling as the battery ages.
    pub fn voltage_rates(&self) -> (f64, f64) {
        let n = self.probes.len();
        let mid = n / 2;
        let v = |i: usize| self.probes[i].full_charge_voltage.as_f64();
        let early = (v(0) - v(mid)) / mid as f64;
        let late = (v(mid) - v(n - 1)) / (n - 1 - mid) as f64;
        (early, late)
    }
}

/// Probe-cycle parameters: the standard load used for monthly
/// measurements.
const PROBE_LOAD: Watts = Watts::new(150.0);
const AMBIENT: Celsius = Celsius::new(27.0);

/// Runs one full probe cycle (discharge to cutoff, recharge to full) and
/// returns (terminal voltage at full under load, delivered Wh, round-trip
/// efficiency).
fn probe_cycle(battery: &mut Battery, now: &mut SimInstant) -> (Volts, f64, f64) {
    let dt = SimDuration::from_minutes(2);
    // Measure full-charge terminal voltage under the probe load.
    let first = battery.step(BatteryOp::Discharge(PROBE_LOAD), AMBIENT, *now, dt);
    let full_voltage = first.terminal_voltage;
    let mut energy_out = (first.delivered * dt).as_f64();
    let mut energy_in = 0.0;
    // Discharge until the battery refuses.
    for _ in 0..1000 {
        *now += dt;
        let r = battery.step(BatteryOp::Discharge(PROBE_LOAD), AMBIENT, *now, dt);
        energy_out += (r.delivered * dt).as_f64();
        if r.cutoff || r.delivered.as_f64() <= 0.0 {
            break;
        }
    }
    // Recharge to full.
    for _ in 0..3000 {
        *now += dt;
        let r = battery.step(BatteryOp::Charge(Watts::new(120.0)), AMBIENT, *now, dt);
        energy_in += (r.accepted * dt).as_f64();
        if r.accepted.as_f64() <= 0.1 {
            break;
        }
    }
    let eff = if energy_in > 0.0 {
        energy_out / energy_in
    } else {
        0.0
    };
    (full_voltage, energy_out, eff)
}

/// One day of the prototype's aggressive cyclic usage between probes:
/// ~2.8 h of load shaving at 110 W (≈75 % DoD on a fresh unit, deeper as
/// capacity fades — which is what makes the degradation *accelerate*),
/// followed by a full recharge and idle rest.
fn daily_cycle(battery: &mut Battery, now: &mut SimInstant) {
    let dt = SimDuration::from_minutes(5);
    for _ in 0..34 {
        battery.step(BatteryOp::Discharge(Watts::new(110.0)), AMBIENT, *now, dt);
        *now += dt;
    }
    // Evening/overnight recharge to full.
    for _ in 0..96 {
        battery.step(BatteryOp::Charge(Watts::new(100.0)), AMBIENT, *now, dt);
        *now += dt;
    }
    // Rest of the day idle.
    for _ in 0..158 {
        battery.step(BatteryOp::Idle, AMBIENT, *now, dt);
        *now += dt;
    }
}

/// Runs the measurement protocol on one battery.
fn measure(battery: &mut Battery, months: usize, days_per_month: usize) -> AgingTrajectory {
    let mut now = SimInstant::START;
    let mut probes = Vec::with_capacity(months + 1);
    let (v0, e0, eff0) = probe_cycle(battery, &mut now);
    probes.push(MonthlyProbe {
        month: 0,
        full_charge_voltage: v0,
        cycle_energy_wh: e0,
        round_trip_efficiency: eff0,
        damage: battery.total_damage(),
    });
    for month in 1..=months {
        for _ in 0..days_per_month {
            daily_cycle(battery, &mut now);
        }
        let (v, e, eff) = probe_cycle(battery, &mut now);
        probes.push(MonthlyProbe {
            month,
            full_charge_voltage: v,
            cycle_energy_wh: e,
            round_trip_efficiency: eff,
            damage: battery.total_damage(),
        });
    }
    AgingTrajectory { probes }
}

/// The prototype unit spec for a chemistry.
fn spec_for(chemistry: Chemistry) -> BatterySpec {
    match chemistry {
        Chemistry::LeadAcid => BatterySpec::prototype(),
        Chemistry::LiIon => BatterySpec::li_ion_prototype(),
    }
}

/// Runs the six-month (or shorter) aging measurement on the paper's
/// lead-acid prototype unit.
pub fn run(months: usize, days_per_month: usize) -> AgingTrajectory {
    run_chemistry(Chemistry::LeadAcid, months, days_per_month)
}

/// [`run`] on an arbitrary chemistry's prototype unit — the measurement
/// protocol is identical, so trajectories are directly comparable.
pub fn run_chemistry(
    chemistry: Chemistry,
    months: usize,
    days_per_month: usize,
) -> AgingTrajectory {
    measure(
        &mut Battery::new(spec_for(chemistry)),
        months,
        days_per_month,
    )
}

/// The paper's configuration: six months at thirty days each.
pub fn run_paper() -> AgingTrajectory {
    run(6, 30)
}

/// Renders the monthly table plus the headline drops.
pub fn render(t: &AgingTrajectory) -> String {
    let rows: Vec<Vec<String>> = t
        .probes
        .iter()
        .map(|p| {
            vec![
                p.month.to_string(),
                format!("{:.3}", p.full_charge_voltage.as_f64()),
                format!("{:.1}", p.cycle_energy_wh),
                format!("{:.3}", p.round_trip_efficiency),
                format!("{:.3}", p.damage),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &[
            "month",
            "full-charge V (loaded)",
            "cycle Wh",
            "round-trip eff",
            "damage",
        ],
        &rows,
    );
    let (early, late) = t.voltage_rates();
    out.push_str(&format!(
        "\nvoltage drop {} (paper ~9%), capacity drop {} (paper ~14%), \
         efficiency drop {:.1} pts (paper ~8 pts), V-rate early {early:.3} → late {late:.3} V/month\n",
        crate::table::pct(t.voltage_drop()),
        crate::table::pct(t.capacity_drop()),
        t.efficiency_drop() * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_degrades_monotonically() {
        let t = run(2, 10);
        assert_eq!(t.probes.len(), 3);
        assert!(t.voltage_drop() > 0.0);
        assert!(t.capacity_drop() > 0.0);
        assert!(t.efficiency_drop() > 0.0);
        for pair in t.probes.windows(2) {
            assert!(pair[1].damage > pair[0].damage);
            assert!(pair[1].cycle_energy_wh <= pair[0].cycle_energy_wh);
        }
    }

    #[test]
    fn run_chemistry_reproduces_the_lead_acid_run_exactly() {
        // `run` is the paper's lead-acid measurement; the generic protocol
        // on the lead-acid prototype must reproduce it bit-for-bit.
        assert_eq!(run_chemistry(Chemistry::LeadAcid, 1, 5), run(1, 5));
    }

    #[test]
    fn li_ion_survives_the_protocol_with_less_fade() {
        let pb = run(2, 10);
        let li = run_chemistry(Chemistry::LiIon, 2, 10);
        assert_eq!(li.probes.len(), 3);
        let last = li.probes.last().unwrap();
        assert!(last.damage > 0.0, "li-ion must actually age");
        assert!(
            last.damage < pb.probes.last().unwrap().damage,
            "LFP cycling at this depth must out-live lead-acid: {} vs {}",
            last.damage,
            pb.probes.last().unwrap().damage
        );
        assert!(
            li.capacity_drop() < pb.capacity_drop(),
            "li-ion capacity fade {} should undercut lead-acid {}",
            li.capacity_drop(),
            pb.capacity_drop()
        );
    }

    #[test]
    fn probe_cycle_delivers_energy() {
        let mut b = Battery::new(BatterySpec::prototype());
        let mut now = SimInstant::START;
        let (v, e, eff) = probe_cycle(&mut b, &mut now);
        assert!(v.as_f64() > 11.0 && v.as_f64() < 13.0);
        assert!(
            e > 200.0,
            "a 420 Wh battery should deliver >200 Wh, got {e}"
        );
        assert!((0.5..1.0).contains(&eff), "round trip eff {eff}");
    }
}
