//! Virtualized server models — the compute substrate of the BAAT
//! reproduction.
//!
//! The paper's prototype runs six servers (three IBM x330, three HP
//! ProLiant) under Xen 4.1.2, with per-server batteries; BAAT actuates
//! DVFS and VM migration through a software driver (§IV.A, §V). This
//! crate provides:
//!
//! * [`ServerPowerModel`] — idle/peak utilization-linear power with DVFS
//!   scaling;
//! * [`DvfsLevel`] — the five-state frequency ladder (speed vs `f^2.5`
//!   power);
//! * [`Host`] — a hypervisor: VM admission by CPU/memory, execution,
//!   checkpoint on power-off;
//! * [`Cluster`] — multiple hosts with live migration (memory-
//!   proportional transfer time, capacity reservation, stop-and-copy
//!   downtime).
//!
//! # Examples
//!
//! ```
//! use baat_server::Cluster;
//! use baat_units::{SimDuration, SimInstant, TimeOfDay};
//! use baat_workload::{Vm, VmId, WorkloadKind};
//!
//! let mut cluster = Cluster::prototype();
//! cluster
//!     .host_mut(0)?
//!     .admit(Vm::new(VmId(0), WorkloadKind::KMeans))?;
//! cluster.step(
//!     SimInstant::from_secs(10),
//!     TimeOfDay::NOON,
//!     SimDuration::from_secs(10),
//!     |_| {},
//! );
//! assert!(cluster.host(0)?.work_done() > 0.0);
//! # Ok::<(), baat_server::ServerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod dvfs;
mod error;
mod hypervisor;
mod power_model;

pub use cluster::{Cluster, ClusterState, InFlightState, MigrationSpec};
pub use dvfs::DvfsLevel;
pub use error::{MigrationBlock, ServerError};
pub use hypervisor::{Host, HostState, ServerCapacity, ServerId, BOOT_DELAY};
pub use power_model::ServerPowerModel;
