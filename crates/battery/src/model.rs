//! The dynamic battery model: SoC dynamics, charge acceptance, Peukert
//! losses, cutoff behaviour, thermal coupling and aging integration,
//! for every chemistry.
//!
//! One [`Battery`] steps both chemistries. What differs between them is
//! small and closed, so the step branches on the unit's [`Aging`] law
//! only there:
//!
//! | | lead-acid | li-ion |
//! |---|---|---|
//! | OCV curve | [`open_circuit_voltage`] | [`li_ion_open_circuit_voltage`] |
//! | charge-taper knee | 0.90 SoC | 0.95 SoC |
//! | Peukert rate loss | yes | none |
//! | gassing overcharge | above 0.90 SoC | none |
//! | pre-age stress | 0.2 C at 55 % SoC | 0.5 C at 50 % SoC |
//! | aging law | [`AgingState`] (five mechanisms) | [`LiIonAgingState`] (calendar + cycle) |

use baat_units::{
    AmpHours, Amperes, Celsius, Ohms, Scale, SimDuration, SimInstant, Soc, Volts, WattHours, Watts,
};

use crate::aging::{AgingModel, AgingState, DamageBreakdown, StressSample};
use crate::chemistry::{AgingBreakdown, BatteryModel, Chemistry};
use crate::error::BatteryError;
use crate::liion::LiIonAgingState;
use crate::spec::BatterySpec;
use crate::state::BatteryUnitState;
use crate::telemetry::{SensorSample, TelemetryLog};
use crate::thermal::ThermalModel;
use crate::voltage::{
    charge_current_for_power, discharge_current_for_power, li_ion_open_circuit_voltage,
    open_circuit_voltage, terminal_voltage,
};

/// SoC at or above which the battery counts as fully recharged.
const FULL_SOC: f64 = 0.99;
/// Lead-acid: SoC above which accepted charge starts to gas (overcharge
/// region) and charge acceptance tapers.
const GASSING_SOC: f64 = 0.90;
/// Li-ion: SoC where constant-current charging hands over to the CV
/// taper.
const CV_KNEE_SOC: f64 = 0.95;
/// Peukert-style penalty gain: extra charge drawn per unit C-rate above
/// the knee.
const PEUKERT_GAIN: f64 = 0.12;
/// C-rate below which discharge is essentially loss-free.
const PEUKERT_KNEE: f64 = 0.05;

/// What the power infrastructure asks of the battery during one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatteryOp {
    /// Draw the given power from the battery terminals.
    Discharge(Watts),
    /// Push the given power into the battery terminals.
    Charge(Watts),
    /// Leave the battery disconnected (self-discharge only).
    Idle,
}

/// Outcome of one battery step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Power actually delivered to the load (≤ requested).
    pub delivered: Watts,
    /// Power actually absorbed from the charger (≤ offered).
    pub accepted: Watts,
    /// Terminal voltage during the step.
    pub terminal_voltage: Volts,
    /// Battery current during the step (positive = discharge).
    pub current: Amperes,
    /// `true` if the under-voltage/empty cutoff prevented (part of) the
    /// requested discharge.
    pub cutoff: bool,
}

impl StepResult {
    pub(crate) fn idle(voltage: Volts) -> Self {
        Self {
            delivered: Watts::ZERO,
            accepted: Watts::ZERO,
            terminal_voltage: voltage,
            current: Amperes::ZERO,
            cutoff: false,
        }
    }
}

/// Hour/day conversions of the step length, cached on the raw seconds.
///
/// Every step divides the same `dt` by 3600 and 86 400 several times
/// (coulomb counting, energy integration, self-discharge); simulations
/// step with a fixed `dt`, so the divides are re-evaluated only when the
/// step length changes. A hit replays the exact `f64` a fresh division
/// would produce, and the initial `(0, 0.0, 0.0)` triple is itself exact
/// (`0 / 3600 = 0 / 86 400 = 0.0`).
#[derive(Debug, Clone, Copy)]
struct DtMemo {
    dt_secs: u64,
    hours: f64,
    days: f64,
}

impl Default for DtMemo {
    fn default() -> Self {
        Self {
            dt_secs: 0,
            hours: 0.0,
            days: 0.0,
        }
    }
}

impl DtMemo {
    fn refresh(&mut self, dt: SimDuration) -> (f64, f64) {
        if dt.as_secs() != self.dt_secs {
            self.dt_secs = dt.as_secs();
            self.hours = dt.as_hours();
            self.days = dt.as_days();
        }
        (self.hours, self.days)
    }
}

/// A unit's aging law, chosen from its spec's chemistry when it is
/// built. The variant is also what the step branches on where the
/// chemistries differ.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Aging {
    /// The five §II.B lead-acid mechanisms.
    LeadAcid(AgingState),
    /// Li-ion calendar + cycle aging.
    LiIon(LiIonAgingState),
}

impl Aging {
    fn new(spec: &BatterySpec, rate: Scale) -> Self {
        match spec.chemistry() {
            Chemistry::LeadAcid => Aging::LeadAcid(AgingState::new(
                AgingModel::new(spec.lifetime_throughput().as_f64())
                    .with_rate_multiplier(rate.value()),
            )),
            Chemistry::LiIon => Aging::LiIon(LiIonAgingState::new(rate)),
        }
    }

    /// Integrates one step of stress; `dt_days` must equal
    /// `s.dt.as_days()`.
    fn apply(&mut self, s: &StressSample, dt_days: f64) {
        match self {
            Aging::LeadAcid(a) => a.apply(s),
            Aging::LiIon(a) => a.apply(s, dt_days),
        }
    }

    fn total_damage(&self) -> f64 {
        match self {
            Aging::LeadAcid(a) => a.total_damage(),
            Aging::LiIon(a) => a.total_damage(),
        }
    }

    fn capacity_fraction(&self) -> f64 {
        match self {
            Aging::LeadAcid(a) => a.capacity_fraction(),
            Aging::LiIon(a) => a.capacity_fraction(),
        }
    }

    fn resistance_factor(&self) -> f64 {
        match self {
            Aging::LeadAcid(a) => a.resistance_factor(),
            Aging::LiIon(a) => a.resistance_factor(),
        }
    }

    fn breakdown(&self) -> AgingBreakdown {
        match self {
            Aging::LeadAcid(a) => AgingBreakdown::from(a.breakdown()),
            Aging::LiIon(a) => a.breakdown(),
        }
    }

    /// Overrides the accumulated damage from a captured breakdown;
    /// mechanisms absent from it restore as zero damage.
    fn restore(&mut self, damage: &AgingBreakdown) {
        let get = |label| damage.get(label).unwrap_or(0.0);
        match self {
            Aging::LeadAcid(a) => a.restore_damage(DamageBreakdown {
                corrosion: get("corrosion"),
                shedding: get("shedding"),
                sulphation: get("sulphation"),
                water_loss: get("water_loss"),
                stratification: get("stratification"),
            }),
            Aging::LiIon(a) => a.restore_damage(get("calendar"), get("cycle")),
        }
    }
}

/// A single battery unit with aging, of either chemistry.
///
/// The spec's [`Chemistry`] picks the aging law and the few dynamics
/// that differ (see the module table); everything else — coulomb
/// counting, cutoff, self-discharge, the thermal model and the telemetry
/// obligations — is one code path. The cell is driven through
/// [`BatteryModel`].
///
/// # Examples
///
/// ```
/// use baat_battery::{Battery, BatteryModel, BatteryOp, BatterySpec};
/// use baat_units::{Celsius, SimDuration, SimInstant, Watts};
///
/// let mut battery = Battery::new(BatterySpec::prototype());
/// let result = battery.step(
///     BatteryOp::Discharge(Watts::new(60.0)),
///     Celsius::new(25.0),
///     SimInstant::START,
///     SimDuration::from_minutes(10),
/// );
/// assert!(result.delivered.as_f64() > 0.0);
/// assert!(battery.soc() < baat_units::Soc::FULL);
/// ```
#[derive(Debug, Clone)]
pub struct Battery {
    spec: BatterySpec,
    pub(crate) aging: Aging,
    thermal: ThermalModel,
    telemetry: TelemetryLog,
    soc: Soc,
    hours_since_full: f64,
    capacity_scale: f64,
    cutoff_events: u64,
    dt_memo: DtMemo,
}

/// Another name for [`Battery`], which steps every chemistry.
pub type AnyBattery = Battery;

/// Equality is semantic — spec, electrochemical state, telemetry and
/// usage history. The dt conversion memo is a pure evaluation cache and
/// never distinguishes two batteries.
impl PartialEq for Battery {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.aging == other.aging
            && self.thermal == other.thermal
            && self.telemetry == other.telemetry
            && self.soc == other.soc
            && self.hours_since_full == other.hours_since_full
            && self.capacity_scale == other.capacity_scale
            && self.cutoff_events == other.cutoff_events
    }
}

impl Battery {
    /// Creates a fully charged, brand-new battery of the spec's
    /// chemistry.
    pub fn new(spec: BatterySpec) -> Self {
        Self::with_variation(spec, Scale::ONE, Scale::ONE)
    }

    /// Creates a unit with manufacturing variation: an aging-rate
    /// multiplier and a capacity scale ([`Scale::ONE`] = nominal).
    pub fn with_variation(spec: BatterySpec, rate: Scale, capacity_scale: Scale) -> Self {
        let thermal = ThermalModel::new(
            spec.ambient(),
            spec.thermal_resistance(),
            spec.thermal_time_constant_s(),
        );
        Self {
            aging: Aging::new(&spec, rate),
            spec,
            thermal,
            telemetry: TelemetryLog::default(),
            soc: Soc::FULL,
            hours_since_full: 0.0,
            capacity_scale: capacity_scale.value(),
            cutoff_events: 0,
            dt_memo: DtMemo::default(),
        }
    }

    /// Captures the unit's dynamic state for checkpointing.
    ///
    /// The static side (spec, variation scales, aging model) is not
    /// included: a restore target is re-manufactured from configuration
    /// and seed, then [`Battery::restore_state`] overwrites the dynamic
    /// side. The aging breakdown carries the chemistry's mechanism
    /// labels. Evaluation memos are excluded by design — they are exact
    /// replay caches.
    pub fn capture_state(&self) -> BatteryUnitState {
        BatteryUnitState {
            soc: self.soc,
            hours_since_full: self.hours_since_full,
            cutoff_events: self.cutoff_events,
            temperature: self.thermal.temperature(),
            aging: self.aging.breakdown(),
            telemetry: self.telemetry.capture(),
        }
    }

    /// Re-applies a captured dynamic state onto this unit.
    ///
    /// The unit must have been manufactured from the same spec (so the
    /// same chemistry) and variation as the captured one; restoring then
    /// replays bit-identically to the original. Aging mechanisms absent
    /// from the captured breakdown restore as zero damage.
    pub fn restore_state(&mut self, state: &BatteryUnitState) {
        self.soc = state.soc;
        self.hours_since_full = state.hours_since_full;
        self.cutoff_events = state.cutoff_events;
        self.thermal.set_temperature(state.temperature);
        self.aging.restore(&state.aging);
        self.telemetry = TelemetryLog::restore(&state.telemetry);
    }

    /// [`BatteryModel::available_discharge_power`] with the present OCV
    /// and internal resistance supplied by the caller, so the step loop
    /// can reuse values it already derived.
    fn available_discharge_power_at(&self, ocv: Volts, r: Ohms) -> Watts {
        if self.soc == Soc::EMPTY {
            return Watts::ZERO;
        }
        // Current at which terminal voltage hits the cutoff.
        let i_cutoff = ((ocv - self.spec.cutoff_voltage()).as_f64() / r.as_f64()).max(0.0);
        let i_max = i_cutoff.min(self.spec.max_discharge_current().as_f64());
        let i = Amperes::new(i_max);
        let v = terminal_voltage(ocv, i, r);
        (i * v).max(Watts::ZERO)
    }

    /// Charge moved this step: `(discharged, charged, overcharge)`.
    fn step_charges(&self, result: &StepResult, dt_hours: f64) -> (AmpHours, AmpHours, AmpHours) {
        let i = result.current.as_f64();
        if i > 0.0 {
            (AmpHours::new(i * dt_hours), AmpHours::ZERO, AmpHours::ZERO)
        } else if i < 0.0 {
            let charged = AmpHours::new(-i * dt_hours);
            // Lead-acid charge pushed in past the gassing knee vents as
            // overcharge; gassing onsets quadratically toward full. The
            // li-ion charger's taper stops before any gassing region.
            let over = match self.aging {
                Aging::LeadAcid(_) if self.soc.value() >= GASSING_SOC => {
                    let frac = ((self.soc.value() - GASSING_SOC) / (1.0 - GASSING_SOC)).min(1.0);
                    charged * (frac * frac)
                }
                _ => AmpHours::ZERO,
            };
            (AmpHours::ZERO, charged, over)
        } else {
            (AmpHours::ZERO, AmpHours::ZERO, AmpHours::ZERO)
        }
    }

    fn apply_discharge(&mut self, power: Watts, ocv: Volts, r: Ohms, dt_hours: f64) -> StepResult {
        if power.as_f64() <= 0.0 {
            return StepResult::idle(ocv);
        }
        let available = self.available_discharge_power_at(ocv, r);
        let mut cutoff = false;
        let granted = if power > available {
            cutoff = true;
            self.cutoff_events += 1;
            available
        } else {
            power
        };
        if granted.as_f64() <= 0.0 {
            return StepResult {
                cutoff: true,
                ..StepResult::idle(ocv)
            };
        }
        let current = discharge_current_for_power(granted.as_f64(), ocv, r)
            .unwrap_or(self.spec.max_discharge_current());

        let drawn = match self.aging {
            // Peukert-style rate penalty: high C-rates drain extra charge.
            Aging::LeadAcid(_) => {
                let c_rate = current.as_f64() / self.spec.capacity().as_f64();
                let peukert =
                    1.0 + PEUKERT_GAIN * ((c_rate - PEUKERT_KNEE).max(0.0) / (1.0 - PEUKERT_KNEE));
                AmpHours::new(current.as_f64() * peukert * dt_hours)
            }
            // Li-ion capacity is essentially rate-independent at
            // datacenter C-rates.
            Aging::LiIon(_) => AmpHours::new(current.as_f64() * dt_hours),
        };

        let capacity = self.effective_capacity();
        let stored = capacity * self.soc.value();
        let (actual_drawn, delivered, current, cutoff) = if drawn > stored {
            // Battery runs empty mid-step: deliver the pro-rated fraction.
            let frac = stored / drawn;
            self.cutoff_events += 1;
            (
                stored,
                granted * frac,
                Amperes::new(current.as_f64() * frac),
                true,
            )
        } else {
            (drawn, granted, current, cutoff)
        };
        self.soc = Soc::saturating(self.soc.value() - actual_drawn / capacity);
        StepResult {
            delivered,
            accepted: Watts::ZERO,
            terminal_voltage: terminal_voltage(ocv, current, r),
            current,
            cutoff,
        }
    }

    fn apply_charge(&mut self, power: Watts, ocv: Volts, r: Ohms, dt_hours: f64) -> StepResult {
        if power.as_f64() <= 0.0 || self.soc.value() >= 1.0 {
            return StepResult::idle(ocv);
        }

        // Charge-acceptance taper: full current up to the knee, then a
        // linear taper to zero at 100 % SoC (lead-acid's gassing knee,
        // li-ion's CC-CV handover).
        let knee = match self.aging {
            Aging::LeadAcid(_) => GASSING_SOC,
            Aging::LiIon(_) => CV_KNEE_SOC,
        };
        let headroom = (1.0 - self.soc.value()) / (1.0 - knee);
        let taper = headroom.min(1.0);
        let i_limit = self.spec.max_charge_current().as_f64() * taper;
        if i_limit <= 0.0 {
            return StepResult::idle(ocv);
        }

        // Charging terminal voltage is above OCV: V = OCV + I·R.
        // Solve P = I·(OCV + I·R) for I, then clamp to the acceptance
        // limit. `try_step` already rejected non-finite power, so a
        // degenerate solve cannot occur; the limit is a safe fallback.
        let i_for_power =
            charge_current_for_power(power.as_f64(), ocv, r).map_or(i_limit, |a| a.as_f64());
        let i = i_for_power.min(i_limit);
        let current = Amperes::new(-i);
        let v_term = terminal_voltage(ocv, current, r);
        let accepted = Watts::new(i * v_term.as_f64());

        // Coulombic efficiency: a fraction of the charge becomes heat/gas.
        let stored_ah = i * dt_hours * self.spec.coulombic_efficiency().value();
        let capacity = self.effective_capacity();
        self.soc = Soc::saturating(self.soc.value() + stored_ah / capacity.as_f64());
        StepResult {
            delivered: Watts::ZERO,
            accepted,
            terminal_voltage: v_term,
            current,
            cutoff: false,
        }
    }
}

impl BatteryModel for Battery {
    fn chemistry(&self) -> Chemistry {
        self.spec.chemistry()
    }

    fn spec(&self) -> &BatterySpec {
        &self.spec
    }

    fn soc(&self) -> Soc {
        self.soc
    }

    fn set_soc(&mut self, soc: Soc) {
        self.soc = soc;
        if soc.value() >= FULL_SOC {
            self.hours_since_full = 0.0;
        }
    }

    fn effective_capacity(&self) -> AmpHours {
        self.spec.capacity() * (self.aging.capacity_fraction() * self.capacity_scale)
    }

    fn stored_charge(&self) -> AmpHours {
        self.effective_capacity() * self.soc.value()
    }

    fn internal_resistance(&self) -> Ohms {
        self.spec.internal_resistance() * self.aging.resistance_factor()
    }

    fn open_circuit_voltage(&self) -> Volts {
        let nominal = self.spec.nominal_voltage();
        match &self.aging {
            Aging::LeadAcid(a) => open_circuit_voltage(nominal, self.soc, a.ocv_factor()),
            Aging::LiIon(a) => li_ion_open_circuit_voltage(nominal, self.soc, a.ocv_factor()),
        }
    }

    fn temperature(&self) -> Celsius {
        self.thermal.temperature()
    }

    fn telemetry(&self) -> &TelemetryLog {
        &self.telemetry
    }

    fn telemetry_mut(&mut self) -> &mut TelemetryLog {
        &mut self.telemetry
    }

    fn cutoff_events(&self) -> u64 {
        self.cutoff_events
    }

    fn hours_since_full(&self) -> f64 {
        self.hours_since_full
    }

    fn total_damage(&self) -> f64 {
        self.aging.total_damage()
    }

    fn capacity_fraction(&self) -> f64 {
        self.aging.capacity_fraction()
    }

    fn aging_breakdown(&self) -> AgingBreakdown {
        self.aging.breakdown()
    }

    /// The quantity behind the paper's 2-minute emergency-reserve rule
    /// (§VI.E, Fig 9's `P_threshold`).
    fn reserve_duration(&self, power: Watts) -> Option<SimDuration> {
        if power.as_f64() <= 0.0 {
            return Some(SimDuration::from_days(36_500));
        }
        if power > self.available_discharge_power() {
            return None;
        }
        let ocv = self.open_circuit_voltage();
        let current = discharge_current_for_power(power.as_f64(), ocv, self.internal_resistance())?;
        if current.as_f64() <= 0.0 {
            return None;
        }
        let hours = self.stored_charge().as_f64() / current.as_f64();
        Some(SimDuration::from_secs((hours * 3600.0) as u64))
    }

    fn available_discharge_power(&self) -> Watts {
        self.available_discharge_power_at(self.open_circuit_voltage(), self.internal_resistance())
    }

    /// Applies a representative hour of stress until the damage reaches
    /// the target — cycling for lead-acid, storage plus cycling for
    /// li-ion. Used to start experiments from the paper's "old" battery
    /// stage (§VI.B runs the same comparison in April on new batteries
    /// and in October on aged ones).
    fn pre_age(&mut self, target_damage: f64) {
        let (soc, c_rate) = match self.aging {
            Aging::LeadAcid(_) => (0.55, 0.2),
            Aging::LiIon(_) => (0.5, 0.5),
        };
        let moved = self.spec.capacity().as_f64() * c_rate;
        let stress = StressSample {
            soc: Soc::saturating(soc),
            current: Amperes::new(moved),
            temperature: Celsius::new(27.0),
            dt: SimDuration::from_hours(1),
            discharged: AmpHours::new(moved),
            charged: AmpHours::ZERO,
            overcharge: AmpHours::ZERO,
            capacity: self.spec.capacity(),
            hours_since_full: 10.0,
        };
        let dt_days = stress.dt.as_days();
        let mut guard = 0u32;
        while self.aging.total_damage() < target_damage && guard < 1_000_000 {
            self.aging.apply(&stress, dt_days);
            guard += 1;
        }
    }

    fn try_step(
        &mut self,
        op: BatteryOp,
        ambient: Celsius,
        now: SimInstant,
        dt: SimDuration,
    ) -> Result<StepResult, BatteryError> {
        if let BatteryOp::Discharge(p) | BatteryOp::Charge(p) = op {
            if !p.as_f64().is_finite() {
                return Err(BatteryError::NonFinitePower {
                    requested_w: p.as_f64(),
                });
            }
        }
        let (dt_hours, dt_days) = self.dt_memo.refresh(dt);
        // OCV and internal resistance are pure functions of SoC and
        // aging, neither of which changes before the operation arms read
        // them — compute both once and share. The reported voltage is
        // still recomputed from post-step state at the end.
        let ocv = self.open_circuit_voltage();
        let r = self.internal_resistance();
        let mut result = match op {
            BatteryOp::Discharge(power) => self.apply_discharge(power, ocv, r, dt_hours),
            BatteryOp::Charge(power) => self.apply_charge(power, ocv, r, dt_hours),
            BatteryOp::Idle => StepResult::idle(ocv),
        };

        // Self-discharge applies regardless of operation.
        let leak = self.spec.self_discharge_per_day().value() * dt_days;
        self.soc = Soc::saturating(self.soc.value() - leak);

        // Thermal update feeds the aging temperature factor. The
        // operation arms never touch aging, so `r` is still current.
        let temp = self.thermal.step(result.current, r, ambient, dt);

        // Track recharge staleness.
        if self.soc.value() >= FULL_SOC {
            if self.hours_since_full > 0.0 {
                self.telemetry.record_full_charge();
            }
            self.hours_since_full = 0.0;
        } else {
            self.hours_since_full += dt_hours;
        }

        // Aging integration.
        let (discharged, charged, overcharge) = self.step_charges(&result, dt_hours);
        let stress = StressSample {
            soc: self.soc,
            current: result.current,
            temperature: temp,
            dt,
            discharged,
            charged,
            overcharge,
            capacity: self.spec.capacity(),
            hours_since_full: self.hours_since_full,
        };
        self.aging.apply(&stress, dt_days);

        // Telemetry: one accumulator record and one sensor sample.
        let energy_out = WattHours::new(result.delivered.as_f64() * dt_hours);
        let energy_in = WattHours::new(result.accepted.as_f64() * dt_hours);
        self.telemetry.record(
            self.soc,
            result.current,
            discharged,
            charged,
            energy_out,
            energy_in,
            dt,
        );
        self.telemetry.push_sample(SensorSample {
            at: now,
            voltage: result.terminal_voltage,
            current: result.current,
            temperature: temp,
            soc: self.soc,
        });

        // Recompute voltage with post-step SoC for reporting accuracy.
        result.terminal_voltage = terminal_voltage(
            self.open_circuit_voltage(),
            result.current,
            self.internal_resistance(),
        );
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery() -> Battery {
        Battery::new(BatterySpec::prototype())
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
    fn non_finite_power_is_a_typed_error_and_leaves_state_untouched() {
        let mut b = battery();
        let before = b.clone();
        for p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for op in [
                BatteryOp::Discharge(Watts::new(p)),
                BatteryOp::Charge(Watts::new(p)),
            ] {
                let err = b
                    .try_step(
                        op,
                        Celsius::new(25.0),
                        SimInstant::START,
                        SimDuration::from_minutes(1),
                    )
                    .unwrap_err();
                assert!(
                    matches!(err, crate::BatteryError::NonFinitePower { requested_w } if !requested_w.is_finite())
                );
            }
        }
        assert_eq!(b, before, "a rejected step must not mutate the battery");
    }

    #[test]
    fn new_battery_is_full_and_healthy() {
        let b = battery();
        assert_eq!(b.soc(), Soc::FULL);
        assert!((b.effective_capacity().as_f64() - 35.0).abs() < 1e-9);
        assert!(!b.is_end_of_life());
        assert_eq!(b.cutoff_events(), 0);
    }

    #[test]
    fn discharge_reduces_soc_by_coulomb_count() {
        let mut b = battery();
        // ~60 W at ~12.5 V ≈ 4.8 A for 1 h ≈ 4.9 Ah of 35 Ah ≈ 14 %.
        run(&mut b, BatteryOp::Discharge(Watts::new(60.0)), 360, 10);
        let soc = b.soc().value();
        assert!((0.80..0.92).contains(&soc), "soc {soc}");
    }

    #[test]
    fn charge_restores_soc_with_efficiency_loss() {
        let mut b = battery();
        run(&mut b, BatteryOp::Discharge(Watts::new(100.0)), 360, 10);
        let low = b.soc().value();
        run(&mut b, BatteryOp::Charge(Watts::new(100.0)), 720, 10);
        assert!(b.soc().value() > low);
        // Energy in exceeds energy out for a full round trip.
        let acc = b.telemetry().lifetime();
        assert!(acc.energy_in.as_f64() > acc.energy_out.as_f64() * 0.8);
    }

    #[test]
    fn deep_discharge_hits_cutoff_not_negative_soc() {
        let mut b = battery();
        let results = run(&mut b, BatteryOp::Discharge(Watts::new(300.0)), 2000, 10);
        assert!(b.soc().value() >= 0.0);
        assert!(results.iter().any(|r| r.cutoff));
        assert!(b.cutoff_events() > 0);
        // Once empty, nothing more is delivered.
        let last = results.last().unwrap();
        assert_eq!(last.delivered, Watts::ZERO);
    }

    #[test]
    fn terminal_voltage_sags_under_load() {
        let mut b = battery();
        let idle_v = b.open_circuit_voltage();
        let r = run(&mut b, BatteryOp::Discharge(Watts::new(150.0)), 1, 10);
        assert!(r[0].terminal_voltage < idle_v);
    }

    #[test]
    fn charging_voltage_rises_above_ocv() {
        let mut b = battery();
        b.set_soc(Soc::new(0.5).unwrap());
        let ocv = b.open_circuit_voltage();
        let r = run(&mut b, BatteryOp::Charge(Watts::new(100.0)), 1, 10);
        assert!(r[0].terminal_voltage > ocv);
        assert!(r[0].current.as_f64() < 0.0);
    }

    #[test]
    fn charge_acceptance_tapers_near_full() {
        let mut b = battery();
        b.set_soc(Soc::new(0.5).unwrap());
        let mid = run(&mut b, BatteryOp::Charge(Watts::new(200.0)), 1, 10)[0].accepted;
        b.set_soc(Soc::new(0.97).unwrap());
        let near_full = run(&mut b, BatteryOp::Charge(Watts::new(200.0)), 1, 10)[0].accepted;
        assert!(near_full < mid * 0.5, "mid {mid} near_full {near_full}");
    }

    #[test]
    fn full_battery_accepts_nothing() {
        let mut b = battery();
        let r = run(&mut b, BatteryOp::Charge(Watts::new(100.0)), 1, 10);
        assert_eq!(r[0].accepted, Watts::ZERO);
    }

    #[test]
    fn idle_battery_self_discharges_slowly() {
        let mut b = battery();
        run(&mut b, BatteryOp::Idle, 24 * 6, 600); // one day in 10-min steps
        let soc = b.soc().value();
        assert!(soc < 1.0 && soc > 0.995, "soc {soc}");
    }

    #[test]
    fn sustained_cycling_ages_the_battery() {
        let mut b = battery();
        // 30 aggressive full-ish cycles.
        for _ in 0..30 {
            run(&mut b, BatteryOp::Discharge(Watts::new(200.0)), 90, 60);
            run(&mut b, BatteryOp::Charge(Watts::new(200.0)), 150, 60);
        }
        assert!(b.total_damage() > 0.01);
        assert!(b.effective_capacity() < AmpHours::new(35.0));
        assert!(b.internal_resistance() > BatterySpec::prototype().internal_resistance());
    }

    #[test]
    fn hours_since_full_resets_on_full_recharge() {
        let mut b = battery();
        run(&mut b, BatteryOp::Discharge(Watts::new(100.0)), 60, 60);
        assert!(b.hours_since_full() > 0.0);
        run(&mut b, BatteryOp::Charge(Watts::new(150.0)), 600, 60);
        assert_eq!(b.hours_since_full(), 0.0);
        assert!(b.telemetry().lifetime().full_charge_events >= 1);
    }

    #[test]
    fn reserve_duration_tracks_charge_and_power() {
        let mut b = battery();
        // A full 35 Ah battery at ~60 W (≈5 A) lasts ~7 h.
        let full = b.reserve_duration(Watts::new(60.0)).unwrap();
        assert!((6.0..8.5).contains(&full.as_hours()), "{full}");
        // Half charge → roughly half the reserve.
        b.set_soc(Soc::new(0.5).unwrap());
        let half = b.reserve_duration(Watts::new(60.0)).unwrap();
        assert!(half < full);
        assert!((half.as_hours() * 2.0 - full.as_hours()).abs() < 1.0);
        // Nearly empty at high power: beyond the 2-minute rule.
        b.set_soc(Soc::new(0.01).unwrap());
        // Cutoff may refuse the draw entirely (None) — also fine.
        if let Some(d) = b.reserve_duration(Watts::new(150.0)) {
            assert!(d < SimDuration::from_minutes(10), "{d}");
        }
        // Zero draw: effectively unbounded.
        assert!(b.reserve_duration(Watts::ZERO).unwrap() > SimDuration::from_days(1000));
    }

    #[test]
    fn undeliverable_power_has_no_reserve() {
        let b = battery();
        assert!(b.reserve_duration(Watts::new(50_000.0)).is_none());
    }

    #[test]
    fn available_power_drops_with_soc() {
        let mut b = battery();
        let full = b.available_discharge_power();
        b.set_soc(Soc::new(0.2).unwrap());
        let low = b.available_discharge_power();
        assert!(low < full);
        b.set_soc(Soc::EMPTY);
        assert_eq!(b.available_discharge_power(), Watts::ZERO);
    }

    #[test]
    fn aged_battery_stores_less_energy_per_cycle() {
        // Fig 4's mechanism: effective capacity fades with damage.
        let spec = BatterySpec::prototype();
        let mut aged = AgingState::new(AgingModel::new(spec.lifetime_throughput().as_f64()));
        let stress = StressSample {
            soc: Soc::new(0.3).unwrap(),
            current: Amperes::new(10.0),
            temperature: Celsius::new(30.0),
            dt: SimDuration::from_hours(1),
            discharged: AmpHours::new(10.0),
            charged: AmpHours::ZERO,
            overcharge: AmpHours::ZERO,
            capacity: AmpHours::new(35.0),
            hours_since_full: 12.0,
        };
        for _ in 0..400 {
            aged.apply(&stress);
        }
        let mut b = Battery::new(spec);
        b.aging = Aging::LeadAcid(aged);
        assert!(b.effective_capacity().as_f64() < 35.0 * 0.95);
    }
}
