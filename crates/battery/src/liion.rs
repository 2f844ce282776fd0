//! Li-ion (LFP-flavoured) aging law: calendar + cycle damage.
//!
//! The li-ion chemistry of [`Battery`](crate::Battery) differs from
//! lead-acid in a handful of cell dynamics (its flat-plateau OCV curve,
//! a CC-CV knee at 95 % SoC, no Peukert loss and no gassing overcharge —
//! see the table in the `model` module) and in how it ages: two
//! mechanisms instead of lead-acid's five,
//!
//! * **calendar** — Arrhenius temperature and SoC-stress scaled time,
//! * **cycle** — Ah throughput weighted by the
//!   [`CycleLifeCurve::li_ion_lfp`] depth-of-discharge curve.
//!
//! [`LiIonAgingState`] integrates both. It reuses the workspace's exact
//! replay caches (the Arrhenius and cycle-life memos), so determinism and
//! memoization behaviour match the lead-acid law.

use baat_units::Scale;

use crate::aging::{ArrheniusMemo, StressSample};
use crate::chemistry::AgingBreakdown;
use crate::cycle_life::{CycleLifeCurve, MemoizedCycleLife};

/// Calendar life to end-of-life at 25 °C and 50 % SoC, in years.
const CALENDAR_EOL_YEARS: f64 = 10.0;
/// Calendar SoC stress: `base + gain · SoC` (1.0 at 50 % SoC; storage
/// near full ages faster).
const CALENDAR_SOC_STRESS_BASE: f64 = 0.6;
const CALENDAR_SOC_STRESS_GAIN: f64 = 0.8;
/// Capacity fraction lost per unit damage (damage 1.0 = 80 %, the same
/// end-of-life convention as lead-acid).
const CAPACITY_FADE_PER_DAMAGE: f64 = 0.20;
/// Relative resistance growth per unit damage (much gentler than
/// lead-acid's 1.2).
const RESISTANCE_GROWTH_PER_DAMAGE: f64 = 0.35;
/// Relative OCV sag per unit damage (Li-ion voltage barely sags).
const OCV_SAG_PER_DAMAGE: f64 = 0.03;

/// Calendar + cycle aging state of one Li-ion unit.
#[derive(Debug, Clone)]
pub struct LiIonAgingState {
    calendar: f64,
    cycle: f64,
    rate_multiplier: f64,
    arrhenius: ArrheniusMemo,
    cycle_life: MemoizedCycleLife,
}

/// Equality is semantic — accumulated damage and rate multiplier. The
/// Arrhenius and cycle-life memos are pure evaluation caches.
impl PartialEq for LiIonAgingState {
    fn eq(&self, other: &Self) -> bool {
        self.calendar == other.calendar
            && self.cycle == other.cycle
            && self.rate_multiplier == other.rate_multiplier
            && self.cycle_life == other.cycle_life
    }
}

impl LiIonAgingState {
    /// A brand-new unit with the given manufacturing aging-rate
    /// multiplier.
    pub fn new(rate_multiplier: Scale) -> Self {
        Self {
            calendar: 0.0,
            cycle: 0.0,
            rate_multiplier: rate_multiplier.value(),
            arrhenius: ArrheniusMemo::default(),
            cycle_life: MemoizedCycleLife::new(CycleLifeCurve::li_ion_lfp()),
        }
    }

    /// The unit-to-unit aging-rate multiplier.
    pub fn rate_multiplier(&self) -> f64 {
        self.rate_multiplier
    }

    /// Integrates one step of stress. `dt_days` must equal
    /// `s.dt.as_days()` (the caller's dt memo supplies it).
    pub fn apply(&mut self, s: &StressSample, dt_days: f64) {
        let arr = self.arrhenius.factor(s.temperature);
        let m = self.rate_multiplier * arr;
        // Calendar: Arrhenius-scaled shelf time, worse at high SoC.
        let soc_stress = CALENDAR_SOC_STRESS_BASE + CALENDAR_SOC_STRESS_GAIN * s.soc.value();
        self.calendar += m * soc_stress * dt_days / (CALENDAR_EOL_YEARS * 365.0);
        // Cycle: equivalent-full-cycle throughput costed by the
        // cycle-life curve at the present depth of discharge. A full
        // battery (DoD 0) cycles for free; the memo replays the exact
        // `powf·exp` result for repeated depths.
        let moved = (s.discharged + s.charged).as_f64();
        if moved > 0.0 {
            let cycles = self.cycle_life.cycles_to_eol(s.soc.to_dod());
            self.cycle += m * moved / (2.0 * s.capacity.as_f64()) / cycles;
        }
    }

    /// Overrides the accumulated calendar/cycle damage (checkpoint
    /// restore). The Arrhenius and cycle-life memos are untouched — both
    /// are exact replay caches.
    pub fn restore_damage(&mut self, calendar: f64, cycle: f64) {
        self.calendar = calendar;
        self.cycle = cycle;
    }

    /// Total accumulated damage (1.0 = end-of-life).
    pub fn total_damage(&self) -> f64 {
        self.calendar + self.cycle
    }

    /// Labelled calendar/cycle breakdown.
    pub fn breakdown(&self) -> AgingBreakdown {
        AgingBreakdown::from_pairs(&[("calendar", self.calendar), ("cycle", self.cycle)])
    }

    /// Remaining capacity as a fraction of initial capacity.
    pub fn capacity_fraction(&self) -> f64 {
        (1.0 - CAPACITY_FADE_PER_DAMAGE * self.total_damage()).max(0.5)
    }

    /// Internal-resistance multiplier relative to the new battery.
    pub fn resistance_factor(&self) -> f64 {
        1.0 + RESISTANCE_GROWTH_PER_DAMAGE * self.total_damage()
    }

    /// Open-circuit-voltage multiplier relative to the new battery.
    pub fn ocv_factor(&self) -> f64 {
        (1.0 - OCV_SAG_PER_DAMAGE * self.total_damage()).max(0.85)
    }
}

#[cfg(test)]
mod tests {
    use baat_units::{Celsius, SimDuration, SimInstant, Soc, Watts};

    use crate::chemistry::{BatteryModel, Chemistry};
    use crate::error::BatteryError;
    use crate::model::{Battery, BatteryOp, StepResult};
    use crate::spec::BatterySpec;

    fn battery() -> Battery {
        Battery::new(BatterySpec::li_ion_prototype())
    }

    fn run(b: &mut Battery, op: BatteryOp, steps: u64, dt_secs: u64) -> Vec<StepResult> {
        let mut now = SimInstant::START;
        let dt = SimDuration::from_secs(dt_secs);
        (0..steps)
            .map(|_| {
                let r = b.step(op, Celsius::new(25.0), now, dt);
                now += dt;
                r
            })
            .collect()
    }

    #[test]
    fn new_battery_is_full_and_healthy() {
        let b = battery();
        assert_eq!(b.soc(), Soc::FULL);
        assert_eq!(b.chemistry(), Chemistry::LiIon);
        assert!(!b.is_end_of_life());
        assert_eq!(b.cutoff_events(), 0);
        assert_eq!(b.total_damage(), 0.0);
    }

    #[test]
    fn discharge_reduces_soc_by_coulomb_count() {
        let mut b = battery();
        run(&mut b, BatteryOp::Discharge(Watts::new(60.0)), 360, 10);
        let soc = b.soc().value();
        // ~60 W at ~13 V ≈ 4.6 A for 1 h of a 35 Ah cell ≈ 13 %.
        assert!((0.82..0.94).contains(&soc), "soc {soc}");
    }

    #[test]
    fn charge_acceptance_tapers_only_near_full() {
        let mut b = battery();
        run(&mut b, BatteryOp::Discharge(Watts::new(150.0)), 360, 10);
        // Mid-SoC charging accepts the full request.
        let mid = run(&mut b, BatteryOp::Charge(Watts::new(100.0)), 1, 10)[0];
        assert!(mid.accepted.as_f64() > 95.0, "{:?}", mid.accepted);
        // Near-full charging tapers.
        b.set_soc(Soc::saturating(0.99));
        let top = run(&mut b, BatteryOp::Charge(Watts::new(100.0)), 1, 10)[0];
        assert!(top.accepted < mid.accepted);
    }

    #[test]
    fn deep_discharge_hits_cutoff_not_negative_soc() {
        let mut b = battery();
        let results = run(&mut b, BatteryOp::Discharge(Watts::new(400.0)), 2_000, 60);
        assert!(b.soc().value() >= 0.0);
        assert!(results.iter().any(|r| r.cutoff));
        assert!(b.cutoff_events() > 0);
    }

    #[test]
    fn aging_splits_into_calendar_and_cycle() {
        let mut b = battery();
        // A day of rest ages only the calendar mechanism...
        run(&mut b, BatteryOp::Idle, 24, 3_600);
        let rested = b.aging_breakdown();
        assert!(rested.get("calendar").unwrap() > 0.0);
        assert_eq!(rested.get("cycle").unwrap(), 0.0);
        // ...and cycling adds cycle damage.
        run(&mut b, BatteryOp::Discharge(Watts::new(150.0)), 120, 60);
        run(&mut b, BatteryOp::Charge(Watts::new(150.0)), 120, 60);
        let cycled = b.aging_breakdown();
        assert!(cycled.get("cycle").unwrap() > 0.0);
        assert_eq!(
            cycled.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            Chemistry::LiIon.aging_labels()
        );
    }

    #[test]
    fn li_ion_ages_slower_than_lead_acid_on_the_same_duty() {
        let mut li = battery();
        let mut pb = Battery::new(BatterySpec::prototype());
        let dt = SimDuration::from_minutes(5);
        let mut now = SimInstant::START;
        for i in 0..2_000u64 {
            let op = if i % 2 == 0 {
                BatteryOp::Discharge(Watts::new(120.0))
            } else {
                BatteryOp::Charge(Watts::new(120.0))
            };
            li.step(op, Celsius::new(25.0), now, dt);
            pb.step(op, Celsius::new(25.0), now, dt);
            now += dt;
        }
        assert!(
            li.total_damage() < pb.total_damage(),
            "li {} vs pb {}",
            li.total_damage(),
            pb.total_damage()
        );
    }

    #[test]
    fn pre_age_reaches_target_without_telemetry() {
        let mut b = battery();
        b.pre_age(0.55);
        assert!(b.total_damage() >= 0.55);
        assert_eq!(b.telemetry().lifetime().observed, SimDuration::ZERO);
        assert!(b.effective_capacity() < BatterySpec::li_ion_prototype().capacity());
    }

    #[test]
    fn non_finite_power_is_rejected_without_mutation() {
        let mut b = battery();
        let before = b.clone();
        let err = b
            .try_step(
                BatteryOp::Discharge(Watts::new(f64::NAN)),
                Celsius::new(25.0),
                SimInstant::START,
                SimDuration::from_minutes(1),
            )
            .unwrap_err();
        assert!(matches!(err, BatteryError::NonFinitePower { .. }));
        assert_eq!(b, before);
    }

    #[test]
    fn steps_replay_bit_identically() {
        let script: Vec<BatteryOp> = (0..500)
            .map(|i| match i % 3 {
                0 => BatteryOp::Discharge(Watts::new(40.0 + f64::from(i))),
                1 => BatteryOp::Charge(Watts::new(60.0)),
                _ => BatteryOp::Idle,
            })
            .collect();
        let play = |script: &[BatteryOp]| {
            let mut b = battery();
            let mut now = SimInstant::START;
            let dt = SimDuration::from_secs(30);
            for op in script {
                b.step(*op, Celsius::new(24.0), now, dt);
                now += dt;
            }
            b
        };
        assert_eq!(play(&script), play(&script));
    }
}
