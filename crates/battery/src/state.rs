//! Checkpointable dynamic state of one battery unit.
//!
//! A battery's behaviour is the product of static parameters (the
//! [`BatterySpec`](crate::BatterySpec), the manufacturing variation
//! scales, the aging model) and dynamic state accumulated while
//! stepping. The static side is reproduced bit-identically by
//! re-manufacturing the unit from its configuration and seed, so a
//! checkpoint only needs to carry the dynamic side: that is what
//! [`BatteryUnitState`] holds, for every chemistry, via
//! [`Battery::capture_state`](crate::Battery::capture_state) and
//! [`Battery::restore_state`](crate::Battery::restore_state).
//!
//! Evaluation caches (dt conversions, Arrhenius factors, cycle-life
//! memos) are deliberately absent: they are exact replay caches, so a
//! restored unit starting from cold caches produces bit-identical
//! results.

use baat_units::{Celsius, Soc};

use crate::chemistry::AgingBreakdown;
use crate::telemetry::{SensorSample, UsageAccumulator};

/// Dynamic state of one battery unit, chemistry-agnostic.
///
/// Captured by `capture_state` and re-applied with `restore_state` onto
/// a freshly manufactured unit of the same spec and variation. The aging
/// damage travels as the chemistry-canonical labelled breakdown
/// ([`AgingBreakdown`]), so the same container round-trips lead-acid's
/// five mechanisms and Li-ion's calendar/cycle pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryUnitState {
    /// State of charge.
    pub soc: Soc,
    /// Hours since the unit last reached full charge.
    pub hours_since_full: f64,
    /// Number of discharge requests (partially) refused by the cutoff.
    pub cutoff_events: u64,
    /// Battery surface temperature.
    pub temperature: Celsius,
    /// Per-mechanism accumulated aging damage, chemistry-labelled.
    pub aging: AgingBreakdown,
    /// Telemetry contents (latest sample + usage accumulators).
    pub telemetry: TelemetryState,
}

/// Checkpointable contents of a [`TelemetryLog`](crate::TelemetryLog).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryState {
    /// Most samples the history may hold (the log's configured
    /// capacity).
    pub max_samples: usize,
    /// The latest sensor sample, if any. The sample history a
    /// checkpoint carries is retained by whoever steps the unit, not by
    /// the unit itself.
    pub latest: Option<SensorSample>,
    /// Lifetime usage counters.
    pub lifetime: UsageAccumulator,
    /// Current-window usage counters.
    pub window: UsageAccumulator,
}
