//! The simulation event log.

use baat_faults::FaultKind;
use baat_obs::json::JsonLine;
use baat_server::DvfsLevel;
use baat_units::{SimInstant, Soc};
use baat_workload::VmId;

use crate::policy::{Action, ActionOutcome, ActionResult};

/// A discrete event the engine records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A server was shut down after sustained unserved demand (checkpoint).
    ServerShutdown {
        /// Affected node.
        node: usize,
    },
    /// A server came back after power recovered.
    ServerRestart {
        /// Affected node.
        node: usize,
    },
    /// A policy changed a server's DVFS level.
    DvfsChanged {
        /// Affected node.
        node: usize,
        /// New level.
        level: DvfsLevel,
    },
    /// A policy started a VM migration.
    MigrationStarted {
        /// The VM in flight.
        vm: VmId,
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
    },
    /// A policy action was processed (applied or rejected with a typed
    /// reason).
    Action {
        /// The action and its result.
        outcome: ActionOutcome,
    },
    /// A battery refused (part of) a discharge request.
    BatteryCutoff {
        /// Affected node.
        node: usize,
    },
    /// A policy changed a node's SoC floor.
    SocFloorChanged {
        /// Affected node.
        node: usize,
        /// New floor.
        floor: Soc,
    },
    /// A workload arrival could not be placed anywhere.
    PlacementFailed {
        /// The node count at the time (for context).
        node: usize,
    },
    /// A planned fault entered force.
    FaultInjected {
        /// The fault now active.
        fault: FaultKind,
    },
    /// A planned fault left force.
    FaultCleared {
        /// The fault that cleared.
        fault: FaultKind,
    },
    /// A node crossed the telemetry staleness bound (entering degraded
    /// mode) or recovered fresh telemetry (leaving it).
    DegradedMode {
        /// Affected node.
        node: usize,
        /// `true` on entry, `false` on exit.
        active: bool,
    },
}

impl Event {
    /// Stable snake-case kind name used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ServerShutdown { .. } => "server_shutdown",
            Event::ServerRestart { .. } => "server_restart",
            Event::DvfsChanged { .. } => "dvfs_changed",
            Event::MigrationStarted { .. } => "migration_started",
            Event::Action { .. } => "action",
            Event::BatteryCutoff { .. } => "battery_cutoff",
            Event::SocFloorChanged { .. } => "soc_floor_changed",
            Event::PlacementFailed { .. } => "placement_failed",
            Event::FaultInjected { .. } => "fault_injected",
            Event::FaultCleared { .. } => "fault_cleared",
            Event::DegradedMode { .. } => "degraded_mode",
        }
    }
}

fn fault_fields(line: &mut JsonLine, fault: &FaultKind) {
    line.str_field("fault", fault.name());
    if let Some(target) = fault.target() {
        line.u64_field("target", target as u64);
    }
    if let Some(param) = fault.param() {
        line.f64_field("param", param);
    }
}

fn action_fields(line: &mut JsonLine, action: &Action) {
    match action {
        Action::SetDvfs { node, level } => {
            line.str_field("action", "set_dvfs")
                .u64_field("node", *node as u64)
                .str_field("level", level.name());
        }
        Action::Migrate { vm, target } => {
            line.str_field("action", "migrate")
                .u64_field("vm", vm.0)
                .u64_field("target", *target as u64);
        }
        Action::SetSocFloor { node, floor } => {
            line.str_field("action", "set_soc_floor")
                .u64_field("node", *node as u64)
                .f64_field("floor", floor.value());
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// When the event happened.
    pub at: SimInstant,
    /// What happened.
    pub event: Event,
}

impl TimedEvent {
    /// Serializes the event as one JSON object line.
    pub fn to_json(&self) -> String {
        let mut line = JsonLine::new();
        line.u64_field("at_s", self.at.as_secs())
            .str_field("kind", self.event.kind());
        match &self.event {
            Event::ServerShutdown { node }
            | Event::ServerRestart { node }
            | Event::BatteryCutoff { node }
            | Event::PlacementFailed { node } => {
                line.u64_field("node", *node as u64);
            }
            Event::DvfsChanged { node, level } => {
                line.u64_field("node", *node as u64)
                    .str_field("level", level.name());
            }
            Event::MigrationStarted { vm, from, to } => {
                line.u64_field("vm", vm.0)
                    .u64_field("from", *from as u64)
                    .u64_field("to", *to as u64);
            }
            Event::Action { outcome } => {
                action_fields(&mut line, &outcome.action);
                match outcome.result {
                    ActionResult::Applied => {
                        line.str_field("result", "applied");
                    }
                    ActionResult::Rejected(reason) => {
                        line.str_field("result", "rejected")
                            .str_field("reason", reason.name());
                    }
                }
            }
            Event::SocFloorChanged { node, floor } => {
                line.u64_field("node", *node as u64)
                    .f64_field("floor", floor.value());
            }
            Event::FaultInjected { fault } | Event::FaultCleared { fault } => {
                fault_fields(&mut line, fault);
            }
            Event::DegradedMode { node, active } => {
                line.u64_field("node", *node as u64)
                    .bool_field("active", *active);
            }
        }
        line.finish()
    }
}

/// Append-only event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<TimedEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log from captured events, oldest first, in one
    /// allocation.
    pub fn restore(events: &[TimedEvent]) -> Self {
        Self {
            events: events.to_vec(),
        }
    }

    /// Appends an event.
    pub fn push(&mut self, at: SimInstant, event: Event) {
        self.events.push(TimedEvent { at, event });
    }

    /// All events in time order.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts events matching a predicate.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.event)).count()
    }

    /// Renders the log as JSONL (one event per line, time order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_ordered_and_countable() {
        let mut log = EventLog::new();
        log.push(SimInstant::from_secs(1), Event::ServerShutdown { node: 0 });
        log.push(SimInstant::from_secs(5), Event::ServerRestart { node: 0 });
        log.push(SimInstant::from_secs(9), Event::ServerShutdown { node: 1 });
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(|e| matches!(e, Event::ServerShutdown { .. })), 2);
        let times: Vec<u64> = log.iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![1, 5, 9]);
    }

    #[test]
    fn empty_log() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.count(|_| true), 0);
    }
}
