//! Discrete-time green-datacenter simulation engine for the BAAT
//! reproduction.
//!
//! The engine substitutes for the paper's physical prototype (Fig 11): a
//! PV array, six servers with per-server batteries, chargers, sensors,
//! power switchers, a workload stream, and a pluggable battery-management
//! [`Policy`] invoked every control interval — exactly the control
//! surface the BAAT controller has on real hardware (observe power
//! tables; actuate DVFS, VM migration, discharge limits).
//!
//! * [`SimConfig`] — validated configuration (prototype defaults);
//! * [`Simulation`] / [`run_simulation`] — the engine;
//! * [`Policy`] / [`Action`] — the controller interface the Table-4
//!   schemes implement (in `baat-core`);
//! * [`SystemView`] — the per-interval observation handed to policies;
//! * [`SimReport`] — per-node aging, metrics, SoC histograms, throughput,
//!   availability inputs, traces and events.
//!
//! # Examples
//!
//! ```
//! use baat_sim::{run_simulation, RoundRobinPolicy, SimConfig};
//! use baat_solar::Weather;
//!
//! let config = SimConfig::prototype_day(Weather::Cloudy, 1);
//! let report = run_simulation(config, &mut RoundRobinPolicy::new())?;
//! assert!(report.total_work > 0.0);
//! # Ok::<(), baat_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod events;
mod fallback;
mod fleet;
mod pending;
mod policy;
mod recorder;
mod report;
mod snapshot;
mod view;

/// The fault-injection vocabulary, re-exported so consumers can build
/// [`SimConfig`] fault plans without depending on `baat-faults` directly.
pub use baat_faults::{
    FaultError, FaultKind, FaultMix, FaultPlan, FaultSpec, DEFAULT_STALENESS_LIMIT,
};
pub use config::{
    li_ion_node_battery, prototype_node_battery, BatteryTopology, ChemistrySpec, EngineThreads,
    SimConfig, SimConfigBuilder,
};
pub use engine::{availability, run_simulation, run_simulation_observed, Simulation};
pub use error::SimError;
pub use events::{Event, EventLog, TimedEvent};
pub use fallback::{FallbackInput, FallbackScheme, FALLBACK_DVFS, FALLBACK_SOC_FLOOR};
pub use fleet::PlacementSpec;
pub use pending::PendingQueue;
pub use policy::{
    Action, ActionOutcome, ActionResult, ControlCtx, Policy, RejectReason, RoundRobinPolicy,
    ScratchPlacement,
};
pub use recorder::{Recorder, TraceRow};
pub use report::{NodeReport, SimReport};
pub use snapshot::{
    config_hash, crc64, fnv1a, PolicyState, SimSnapshot, SimState, SnapshotError, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use view::{NodeView, SystemView, VmView};
