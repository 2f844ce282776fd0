//! The five BAAT battery-aging metrics and the derived decision values.
//!
//! Paper §III formulates five metrics that "quantitatively reflect battery
//! aging progresses" from sensor telemetry:
//!
//! | Metric | Equation | Function |
//! |--------|----------|----------|
//! | NAT — normalized Ah throughput | Eq 1 | [`normalized_ah_throughput`] |
//! | CF — charge factor | Eq 2 | [`charge_factor`] |
//! | PC — partial cycling | Eqs 3–4 | [`PartialCycling`] |
//! | DDT — deep discharge time | Eq 5 | [`deep_discharge_time`] |
//! | DR — discharge rate | §III.E | [`DischargeRate`] |
//!
//! On top of the raw metrics sit the decision values BAAT's policies use:
//!
//! * [`weighted_aging`] — the Eq-6 weighted aging value with Table-3
//!   demand-class sensitivities, whose ascending order is the Fig 8
//!   placement order;
//! * [`dod_goal`] — the Eq-7 planned-aging DoD target.
//!
//! # Examples
//!
//! ```
//! use baat_battery::{Battery, BatteryModel, BatteryOp, BatterySpec};
//! use baat_metrics::{AgingMetrics, BatteryRatings};
//! use baat_units::{Celsius, SimDuration, SimInstant, Watts};
//!
//! let mut battery = Battery::new(BatterySpec::prototype());
//! battery.step(
//!     BatteryOp::Discharge(Watts::new(120.0)),
//!     Celsius::new(25.0),
//!     SimInstant::START,
//!     SimDuration::from_hours(1),
//! );
//! let ratings = BatteryRatings {
//!     capacity: battery.spec().capacity(),
//!     lifetime_throughput: battery.spec().lifetime_throughput(),
//! };
//! let metrics = AgingMetrics::from_accumulator(battery.telemetry().lifetime(), &ratings);
//! assert!(metrics.nat > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod five;
mod planned;
mod weighted;

pub use five::{
    charge_factor, deep_discharge_time, normalized_ah_throughput, AgingMetrics, BatteryRatings,
    DischargeRate, PartialCycling, CHARGE_FACTOR_HEALTHY,
};
pub use planned::{
    dod_goal, observed_cycles_per_day, planned_cycles, PlannedAgingInputs, DOD_GOAL_RANGE,
};
pub use weighted::{
    class_index, table3_sensitivities, weighted_aging, weighted_aging_all, AgingScores,
    MetricSensitivities, Sensitivity, DEMAND_CLASSES,
};
