//! Battery electrochemistry, aging mechanisms and cycle-life models —
//! the energy-storage substrate of the BAAT reproduction.
//!
//! The paper's prototype (§V.A) uses twelve 12 V 35 Ah sealed lead-acid
//! batteries, one per server. This crate models such units from first
//! principles, and offers a Li-ion alternative chosen by one spec field:
//!
//! * [`BatterySpec`] — static parameters (chemistry, capacity,
//!   resistance, cutoff, manufacturer cycle-life curve), built with a
//!   validating builder;
//! * [`Battery`] — the one dynamic cell, driven through the
//!   [`BatteryModel`] trait: coulomb-counted SoC, Shepherd-style terminal
//!   voltage, charge-acceptance taper, under-voltage cutoff, first-order
//!   thermal model. The spec's [`Chemistry`] picks what differs: the OCV
//!   curve, the taper knee, lead-acid's Peukert rate loss and gassing
//!   overcharge, and the aging law;
//! * [`AgingState`] / [`AgingModel`] — lead-acid damage accumulation
//!   across the five aging mechanisms of paper §II.B (grid corrosion,
//!   active-mass shedding, sulphation, water loss, electrolyte
//!   stratification), mapped onto capacity fade, resistance growth and
//!   OCV sag;
//! * [`LiIonAgingState`] — the li-ion law: calendar + cycle aging;
//! * [`Manufacturer`] / [`CycleLifeCurve`] — the Fig 10 cycle-life-vs-DoD
//!   curves used by planned aging (Eq 7);
//! * [`TelemetryLog`] — the latest Table 2 sensor sample plus the usage
//!   accumulators the five aging metrics are computed from;
//! * [`BatteryPack`] — groups of units with seeded manufacturing
//!   variation (the source of aging variation that BAAT-h hides).
//!
//! # Examples
//!
//! Cycle a battery for an hour and inspect its telemetry:
//!
//! ```
//! use baat_battery::{Battery, BatteryModel, BatteryOp, BatterySpec};
//! use baat_units::{Celsius, SimDuration, SimInstant, Watts};
//!
//! let mut battery = Battery::new(BatterySpec::prototype());
//! let dt = SimDuration::from_minutes(1);
//! let mut now = SimInstant::START;
//! for _ in 0..60 {
//!     battery.step(BatteryOp::Discharge(Watts::new(80.0)), Celsius::new(25.0), now, dt);
//!     now += dt;
//! }
//! let used = battery.telemetry().lifetime();
//! assert!(used.ah_discharged.as_f64() > 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aging;
mod chemistry;
mod cycle_life;
mod error;
mod liion;
mod model;
mod obs;
mod pack;
mod spec;
mod state;
mod telemetry;
mod thermal;
mod voltage;

pub use aging::{
    ActiveMassShedding, AgingModel, AgingState, DamageBreakdown, GridCorrosion, Mechanism,
    SharedStress, Stratification, StressSample, Sulphation, WaterLoss,
};
pub use chemistry::{AgingBreakdown, BatteryModel, Chemistry, MAX_AGING_MECHANISMS};
pub use cycle_life::{CycleLifeCurve, Manufacturer, MemoizedCycleLife};
pub use error::BatteryError;
pub use liion::LiIonAgingState;
pub use model::{AnyBattery, Battery, BatteryOp, StepResult};
pub use obs::AgingObs;
pub use pack::{BatteryPack, VariationParams};
pub use spec::{BatterySpec, BatterySpecBuilder};
pub use state::{BatteryUnitState, TelemetryState};
pub use telemetry::{SensorSample, TelemetryLog, UsageAccumulator, SOC_HISTOGRAM_BINS};
pub use thermal::ThermalModel;
pub use voltage::{
    charge_current_for_power, discharge_current_for_power, li_ion_open_circuit_voltage,
    open_circuit_voltage, terminal_voltage,
};
