//! Battery chemistry: the [`Chemistry`] choice and the [`BatteryModel`]
//! contract every consumer programs against.
//!
//! BAAT's measurements are taken on sealed lead-acid units (§V.A), but
//! battery-model choice materially changes datacenter-level conclusions,
//! so the energy-storage substrate is configurable: a spec's
//! [`Chemistry`] selects the OCV curve, charge taper, rate and gassing
//! losses and the aging law of one [`Battery`](crate::Battery) cell, and
//! every consumer (engine, policies, cost model, figures) drives that
//! cell through [`BatteryModel`].
//!
//! # Determinism contract
//!
//! The model is a pure state machine over its inputs: given
//! the same construction parameters and the same op/ambient/time/dt
//! sequence, every observable (SoC, terminal voltage, aging, telemetry)
//! must replay bit-identically, on any thread. Internal caches
//! (dt conversions, Arrhenius factors, cycle-life memos) must be exact
//! replay caches — a hit returns the same `f64` a fresh evaluation would
//! — and must be excluded from `PartialEq`.

use baat_units::{AmpHours, Celsius, Ohms, SimDuration, SimInstant, Soc, Volts, Watts};

use crate::error::BatteryError;
use crate::model::{BatteryOp, StepResult};
use crate::spec::BatterySpec;
use crate::telemetry::TelemetryLog;

/// Maximum number of aging mechanisms any chemistry reports.
///
/// Lead-acid uses all five (§II.B); Li-ion uses two (calendar + cycle).
pub const MAX_AGING_MECHANISMS: usize = 5;

/// The battery chemistries the workspace can simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Chemistry {
    /// Sealed (VRLA) lead-acid — the paper's prototype hardware.
    #[default]
    LeadAcid,
    /// Li-ion (LFP-flavoured) equivalent-circuit model with calendar +
    /// cycle aging.
    LiIon,
}

impl Chemistry {
    /// Every supported chemistry, lead-acid first.
    pub const ALL: [Chemistry; 2] = [Chemistry::LeadAcid, Chemistry::LiIon];

    /// Stable lowercase name, used in CLI flags and run metadata.
    pub fn name(self) -> &'static str {
        match self {
            Chemistry::LeadAcid => "lead-acid",
            Chemistry::LiIon => "li-ion",
        }
    }

    /// Parses the [`Chemistry::name`] form (`lead-acid` / `li-ion`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lead-acid" | "lead_acid" | "pb" => Some(Chemistry::LeadAcid),
            "li-ion" | "li_ion" | "liion" => Some(Chemistry::LiIon),
            _ => None,
        }
    }

    /// Aging-mechanism labels this chemistry reports, in breakdown order.
    pub fn aging_labels(self) -> &'static [&'static str] {
        match self {
            Chemistry::LeadAcid => &[
                "corrosion",
                "shedding",
                "sulphation",
                "water_loss",
                "stratification",
            ],
            Chemistry::LiIon => &["calendar", "cycle"],
        }
    }

    /// Fully-qualified gauge names for [`crate::AgingObs`], matching
    /// [`Chemistry::aging_labels`] element-for-element.
    pub(crate) fn aging_gauge_names(self) -> &'static [&'static str] {
        match self {
            Chemistry::LeadAcid => &[
                "battery.aging.corrosion",
                "battery.aging.shedding",
                "battery.aging.sulphation",
                "battery.aging.water_loss",
                "battery.aging.stratification",
            ],
            Chemistry::LiIon => &["battery.aging.calendar", "battery.aging.cycle"],
        }
    }
}

impl core::fmt::Display for Chemistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Chemistry-agnostic per-mechanism damage breakdown: up to
/// [`MAX_AGING_MECHANISMS`] labelled damage totals.
///
/// Lead-acid reports the five §II.B mechanisms in
/// [`crate::DamageBreakdown::iter`] order; Li-ion reports
/// `calendar`/`cycle`. The default value is empty (no mechanisms) and
/// acts as the identity for [`AgingBreakdown::accumulate`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AgingBreakdown {
    len: usize,
    labels: [&'static str; MAX_AGING_MECHANISMS],
    values: [f64; MAX_AGING_MECHANISMS],
}

impl AgingBreakdown {
    /// Builds a breakdown from `(label, damage)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_AGING_MECHANISMS`] pairs are given.
    pub fn from_pairs(pairs: &[(&'static str, f64)]) -> Self {
        assert!(
            pairs.len() <= MAX_AGING_MECHANISMS,
            "at most {MAX_AGING_MECHANISMS} aging mechanisms"
        );
        let mut out = Self::default();
        for &(label, value) in pairs {
            out.labels[out.len] = label;
            out.values[out.len] = value;
            out.len += 1;
        }
        out
    }

    /// Number of mechanisms reported.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no mechanisms are reported (the default value).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over `(mechanism label, damage)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.labels[..self.len]
            .iter()
            .copied()
            .zip(self.values[..self.len].iter().copied())
    }

    /// The damage values, in label order.
    pub fn values(&self) -> &[f64] {
        &self.values[..self.len]
    }

    /// Total damage across all mechanisms.
    pub fn total(&self) -> f64 {
        self.values[..self.len].iter().sum()
    }

    /// Damage for one labelled mechanism, if present.
    pub fn get(&self, label: &str) -> Option<f64> {
        self.iter().find(|(l, _)| *l == label).map(|(_, v)| v)
    }

    /// Adds `other`'s per-mechanism damage into `self`. An empty `self`
    /// adopts `other`'s labels; otherwise the label sets must match
    /// (aggregation is only meaningful within one chemistry).
    pub fn accumulate(&mut self, other: &AgingBreakdown) {
        if self.len == 0 {
            *self = *other;
            return;
        }
        debug_assert_eq!(
            self.labels[..self.len],
            other.labels[..other.len],
            "cannot aggregate breakdowns across chemistries"
        );
        for (v, o) in self.values[..self.len]
            .iter_mut()
            .zip(other.values[..other.len].iter())
        {
            *v += *o;
        }
    }

    /// Per-mechanism difference `self − earlier` (same label set).
    pub fn delta(&self, earlier: &AgingBreakdown) -> AgingBreakdown {
        debug_assert_eq!(self.labels[..self.len], earlier.labels[..earlier.len]);
        let mut out = *self;
        for (v, e) in out.values[..out.len]
            .iter_mut()
            .zip(earlier.values[..earlier.len].iter())
        {
            *v -= *e;
        }
        out
    }
}

impl From<&crate::aging::DamageBreakdown> for AgingBreakdown {
    fn from(d: &crate::aging::DamageBreakdown) -> Self {
        let mut out = Self::default();
        for (label, value) in d.iter() {
            out.labels[out.len] = label;
            out.values[out.len] = value;
            out.len += 1;
        }
        out
    }
}

/// The pluggable battery-model contract: step dynamics, OCV/terminal
/// voltage, charge acceptance, aging integration and telemetry
/// obligations behind one deterministic interface.
///
/// [`Battery`](crate::Battery) implements it for every chemistry and
/// upholds the module-level determinism contract. Telemetry obligations:
/// every successful [`BatteryModel::try_step`] records exactly one
/// usage-accumulator entry and pushes exactly one
/// [`crate::SensorSample`], so downstream NAT/CF metrics and sensor
/// views behave identically across chemistries.
pub trait BatteryModel: Clone + PartialEq {
    /// Which chemistry this model implements.
    fn chemistry(&self) -> Chemistry;

    /// The static specification the unit was built from.
    fn spec(&self) -> &BatterySpec;

    /// Current state of charge (relative to the *effective* capacity).
    fn soc(&self) -> Soc;

    /// Overrides the state of charge.
    fn set_soc(&mut self, soc: Soc);

    /// Effective capacity after aging and manufacturing variation.
    fn effective_capacity(&self) -> AmpHours;

    /// Charge currently stored.
    fn stored_charge(&self) -> AmpHours;

    /// Present internal resistance (grows with aging).
    fn internal_resistance(&self) -> Ohms;

    /// Present open-circuit voltage.
    fn open_circuit_voltage(&self) -> Volts;

    /// Battery surface temperature.
    fn temperature(&self) -> Celsius;

    /// Telemetry log (sensor samples + usage accumulators).
    fn telemetry(&self) -> &TelemetryLog;

    /// Mutable telemetry access (for window resets by the controller).
    fn telemetry_mut(&mut self) -> &mut TelemetryLog;

    /// Number of discharge requests (partially) refused by the cutoff.
    fn cutoff_events(&self) -> u64;

    /// Hours since the battery last reached full charge.
    fn hours_since_full(&self) -> f64;

    /// Total accumulated aging damage (1.0 = end-of-life).
    fn total_damage(&self) -> f64;

    /// Remaining capacity as a fraction of initial capacity.
    fn capacity_fraction(&self) -> f64;

    /// Labelled per-mechanism damage breakdown.
    fn aging_breakdown(&self) -> AgingBreakdown;

    /// `true` once the end-of-life criterion (80 % capacity) is reached.
    fn is_end_of_life(&self) -> bool {
        self.total_damage() >= 1.0
    }

    /// How long the battery could sustain `power` before running empty.
    fn reserve_duration(&self, power: Watts) -> Option<SimDuration>;

    /// Maximum power deliverable right now without tripping the cutoff
    /// or the discharge-current limit.
    fn available_discharge_power(&self) -> Watts;

    /// Synthetically ages the unit to approximately `target_damage`
    /// without touching telemetry.
    fn pre_age(&mut self, target_damage: f64);

    /// Advances the battery one simulation step, rejecting degenerate
    /// requests with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::NonFinitePower`] for NaN/infinite power
    /// requests; state is untouched on error.
    fn try_step(
        &mut self,
        op: BatteryOp,
        ambient: Celsius,
        now: SimInstant,
        dt: SimDuration,
    ) -> Result<StepResult, BatteryError>;

    /// Advances one step, panicking on non-finite power requests.
    fn step(
        &mut self,
        op: BatteryOp,
        ambient: Celsius,
        now: SimInstant,
        dt: SimDuration,
    ) -> StepResult {
        self.try_step(op, ambient, now, dt)
            .expect("power request must be finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Battery;

    #[test]
    fn chemistry_names_round_trip() {
        for c in Chemistry::ALL {
            assert_eq!(Chemistry::parse(c.name()), Some(c));
        }
        assert_eq!(Chemistry::parse("unobtainium"), None);
        assert_eq!(Chemistry::default(), Chemistry::LeadAcid);
    }

    #[test]
    fn aging_labels_match_gauge_names() {
        for c in Chemistry::ALL {
            let labels = c.aging_labels();
            let gauges = c.aging_gauge_names();
            assert_eq!(labels.len(), gauges.len());
            for (label, gauge) in labels.iter().zip(gauges) {
                assert_eq!(*gauge, format!("battery.aging.{label}"));
            }
        }
    }

    #[test]
    fn breakdown_accumulate_and_delta() {
        let a = AgingBreakdown::from_pairs(&[("calendar", 0.1), ("cycle", 0.3)]);
        let b = AgingBreakdown::from_pairs(&[("calendar", 0.05), ("cycle", 0.15)]);
        let mut agg = AgingBreakdown::default();
        agg.accumulate(&a);
        agg.accumulate(&b);
        assert!((agg.total() - 0.6).abs() < 1e-12);
        assert!((agg.get("calendar").unwrap() - 0.15).abs() < 1e-12);
        let d = a.delta(&b);
        assert!((d.get("cycle").unwrap() - 0.15).abs() < 1e-12);
        assert!(AgingBreakdown::default().is_empty());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn lead_acid_breakdown_converts_in_paper_order() {
        let got: Vec<&str> = AgingBreakdown::from(&crate::aging::DamageBreakdown::default())
            .iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(got, Chemistry::LeadAcid.aging_labels());
    }

    #[test]
    fn any_battery_constructs_the_spec_chemistry() {
        let pb = Battery::new(BatterySpec::prototype());
        assert_eq!(pb.chemistry(), Chemistry::LeadAcid);
        assert_eq!(pb.aging_breakdown().len(), 5);
        let li = Battery::new(BatterySpec::li_ion_prototype());
        assert_eq!(li.chemistry(), Chemistry::LiIon);
        assert_eq!(li.aging_breakdown().len(), 2);
        assert!(li.available_discharge_power() > Watts::ZERO);
    }
}
