//! Power infrastructure — switcher, charger, sensors and power tables —
//! the plumbing between solar supply, batteries and servers in the BAAT
//! reproduction.
//!
//! Models the prototype's power module (§V.A): IPDU server metering, the
//! PLC/relay/inverter power switcher, the controllable battery charger,
//! and the per-battery sensor front-ends whose rows (Table 2) feed the
//! BAAT controller's power tables.
//!
//! * [`PowerSwitcher`] — routes solar/battery power to a node with
//!   inverter losses, reporting unserved demand and curtailment;
//! * [`Charger`] — three-stage (bulk/absorption/float) lead-acid charging;
//! * [`BatterySensor`] — noisy voltage/current/temperature sampling;
//! * [`PowerTable`] — the controller-facing per-node history logs;
//! * [`Journal`] — the append-only per-key history they are kept in, and
//!   [`History`], the shared view of it a checkpoint carries.
//!
//! # Examples
//!
//! ```
//! use baat_power::PowerSwitcher;
//! use baat_units::Watts;
//!
//! let switcher = PowerSwitcher::prototype();
//! let routing = switcher.route(
//!     Watts::new(100.0), // server demand
//!     Watts::new(60.0),  // solar share
//!     Watts::new(400.0), // battery can deliver
//!     Watts::new(110.0), // charger would accept
//! );
//! assert_eq!(routing.unserved, Watts::ZERO);
//! assert!(routing.battery_to_load.as_f64() > 40.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod charger;
mod error;
mod journal;
mod sensors;
mod switcher;
mod table;

pub use charger::{ChargeStage, Charger, StageTracker};
pub use error::PowerError;
pub use journal::{History, Journal};
pub use sensors::{BatterySensor, NoiseSpec};
pub use switcher::{PowerSwitcher, Routing};
pub use table::{NodeLog, PowerTable, ServerPowerRecord};
