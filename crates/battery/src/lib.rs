//! Battery electrochemistry, aging mechanisms and cycle-life models —
//! the energy-storage substrate of the BAAT reproduction.
//!
//! The paper's prototype (§V.A) uses twelve 12 V 35 Ah sealed lead-acid
//! batteries, one per server. This crate models such units from first
//! principles, behind a pluggable [`BatteryModel`] trait:
//!
//! * [`BatteryModel`] / [`AnyBattery`] / [`Chemistry`] — the chemistry
//!   seam: lead-acid and Li-ion behind one deterministic contract;
//! * [`LiIonBattery`] — an LFP-flavoured equivalent-circuit alternative
//!   with calendar + cycle aging;
//! * [`BatterySpec`] — static parameters (capacity, resistance, cutoff,
//!   manufacturer cycle-life curve), built with a validating builder;
//! * [`Battery`] — the dynamic model: coulomb-counted SoC, Shepherd-style
//!   terminal voltage, charge-acceptance taper, Peukert rate losses,
//!   under-voltage cutoff, first-order thermal model;
//! * [`AgingState`] / [`AgingModel`] — damage accumulation across the five
//!   aging mechanisms of paper §II.B (grid corrosion, active-mass
//!   shedding, sulphation, water loss, electrolyte stratification), mapped
//!   onto capacity fade, resistance growth and OCV sag;
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
//! use baat_battery::{Battery, BatteryOp, BatterySpec};
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
pub use chemistry::{AgingBreakdown, AnyBattery, BatteryModel, Chemistry, MAX_AGING_MECHANISMS};
pub use cycle_life::{CycleLifeCurve, Manufacturer, MemoizedCycleLife};
pub use error::BatteryError;
pub use liion::{LiIonAgingState, LiIonBattery};
pub use model::{Battery, BatteryOp, StepResult};
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
