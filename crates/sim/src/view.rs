//! The read-only system view handed to policies.

use baat_metrics::AgingMetrics;
use baat_server::DvfsLevel;
use baat_solar::Weather;
use baat_units::{Fraction, SimInstant, Soc, TimeOfDay, Watts};
use baat_workload::{VmId, VmState, WorkloadKind};

/// Snapshot of one VM for policy decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmView {
    /// The VM's identifier.
    pub id: VmId,
    /// The hosted workload.
    pub kind: WorkloadKind,
    /// Lifecycle state.
    pub state: VmState,
    /// Completed fraction of nominal work.
    pub progress: f64,
}

/// Snapshot of one server/battery node for policy decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// Node index (server and battery share it).
    pub node: usize,
    /// Battery state of charge.
    pub soc: Soc,
    /// Metrics over the current control window.
    pub window_metrics: AgingMetrics,
    /// Metrics since installation.
    pub lifetime_metrics: AgingMetrics,
    /// Accumulated aging damage (1.0 = end-of-life).
    pub damage: f64,
    /// Effective capacity as a fraction of nominal.
    pub capacity_fraction: f64,
    /// Server electrical power right now.
    pub server_power: Watts,
    /// Server CPU utilization.
    pub utilization: Fraction,
    /// Current DVFS level.
    pub dvfs: DvfsLevel,
    /// `true` if the server is powered on.
    pub online: bool,
    /// `true` while the node's telemetry is stale past the configured
    /// bound and the engine is in degraded (conservative fallback) mode
    /// for it. Policies should treat this node's battery readings as
    /// last-known-good, not current.
    pub degraded: bool,
    /// Free schedulable resources (cores, memory GiB).
    pub free_resources: (u32, u32),
    /// Hosted VMs.
    pub vms: Vec<VmView>,
    /// Power the battery could deliver right now (respecting the SoC
    /// floor).
    pub battery_available: Watts,
    /// Effective battery energy capacity right now (Wh), after aging.
    pub battery_capacity_wh: f64,
    /// Nominal battery charge capacity (Ah).
    pub battery_capacity_ah: f64,
    /// Nominal life-long Ah throughput (`CAP_nom` in Eq 1).
    pub battery_lifetime_throughput_ah: f64,
    /// The policy-set SoC floor currently in force.
    pub soc_floor: Soc,
}

/// Snapshot of the whole system at a control instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemView {
    /// Simulation time.
    pub now: SimInstant,
    /// Wall-clock time of day.
    pub tod: TimeOfDay,
    /// Today's weather class.
    pub weather: Weather,
    /// Total solar power this instant.
    pub solar: Watts,
    /// Per-node snapshots, indexed by node id.
    pub nodes: Vec<NodeView>,
}

impl SystemView {
    /// Nodes that are online, sorted by index.
    pub fn online_nodes(&self) -> impl Iterator<Item = &NodeView> {
        self.nodes.iter().filter(|n| n.online)
    }

    /// Total server power demand right now.
    pub fn total_demand(&self) -> Watts {
        self.nodes.iter().map(|n| n.server_power).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_metrics::{AgingMetrics, BatteryRatings};
    use baat_units::AmpHours;

    fn metrics() -> AgingMetrics {
        AgingMetrics::from_accumulator(
            &baat_battery::UsageAccumulator::default(),
            &BatteryRatings {
                capacity: AmpHours::new(35.0),
                lifetime_throughput: AmpHours::new(17_500.0),
            },
        )
    }

    fn node(i: usize, soc: f64, online: bool) -> NodeView {
        NodeView {
            node: i,
            soc: Soc::new(soc).unwrap(),
            window_metrics: metrics(),
            lifetime_metrics: metrics(),
            damage: 0.0,
            capacity_fraction: 1.0,
            server_power: Watts::new(100.0),
            utilization: Fraction::HALF,
            dvfs: DvfsLevel::P0,
            online,
            degraded: false,
            free_resources: (8, 16),
            vms: Vec::new(),
            battery_available: Watts::new(300.0),
            battery_capacity_wh: 840.0,
            battery_capacity_ah: 70.0,
            battery_lifetime_throughput_ah: 35_000.0,
            soc_floor: Soc::EMPTY,
        }
    }

    #[test]
    fn online_nodes_and_total_demand() {
        let view = SystemView {
            now: SimInstant::START,
            tod: TimeOfDay::NOON,
            weather: Weather::Sunny,
            solar: Watts::new(500.0),
            nodes: vec![node(0, 0.9, true), node(1, 0.2, true), node(2, 0.5, false)],
        };
        assert_eq!(view.online_nodes().count(), 2);
        assert_eq!(view.total_demand(), Watts::new(300.0));
    }

    #[test]
    fn empty_view_has_no_demand() {
        let view = SystemView {
            now: SimInstant::START,
            tod: TimeOfDay::NOON,
            weather: Weather::Sunny,
            solar: Watts::ZERO,
            nodes: vec![],
        };
        assert_eq!(view.online_nodes().count(), 0);
        assert_eq!(view.total_demand(), Watts::ZERO);
    }
}
