//! The per-node power table (paper Table 2 + Fig 7).
//!
//! "Each group of batteries has a power table which records the battery
//! utilization history logs … collected from corresponding sensor of each
//! battery and sent to [the] BAAT controller", which also reads server
//! power through the IPDU (§IV.A). The [`PowerTable`] is that
//! controller-facing data layer: per-node battery sensor rows and server
//! power rows.

use std::collections::VecDeque;

use baat_battery::{ring, SensorSample};
use baat_units::{SimInstant, Watts};

/// One IPDU server-power reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerRecord {
    /// Reading timestamp.
    pub at: SimInstant,
    /// Server power at the outlet.
    pub power: Watts,
}

/// History log for one server/battery node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeLog {
    battery: VecDeque<SensorSample>,
    server: VecDeque<ServerPowerRecord>,
}

/// Retention limit per node and per channel.
const MAX_ROWS: usize = 8_192;

impl NodeLog {
    /// The most recent battery row.
    pub fn latest_battery(&self) -> Option<&SensorSample> {
        self.battery.back()
    }

    /// The most recent server power row.
    pub fn latest_server(&self) -> Option<&ServerPowerRecord> {
        self.server.back()
    }
}

/// One node's rows for a checkpoint: `(battery rows, server rows)`,
/// oldest first.
pub type NodeRows = (Vec<SensorSample>, Vec<ServerPowerRecord>);

/// The monitoring architecture: one [`NodeLog`] per server/battery node.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTable {
    nodes: Vec<NodeLog>,
}

impl PowerTable {
    /// Creates a table for `nodes` server/battery pairs.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes: (0..nodes).map(|_| NodeLog::default()).collect(),
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a battery sensor row for a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn record_battery(&mut self, node: usize, row: SensorSample) {
        ring::push(&mut self.nodes[node].battery, row, MAX_ROWS);
    }

    /// Records an IPDU server power row for a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn record_server(&mut self, node: usize, row: ServerPowerRecord) {
        ring::push(&mut self.nodes[node].server, row, MAX_ROWS);
    }

    /// The log of one node, or `None` if out of range.
    pub fn node(&self, node: usize) -> Option<&NodeLog> {
        self.nodes.get(node)
    }

    /// Iterates over all node logs.
    pub fn iter(&self) -> impl Iterator<Item = &NodeLog> {
        self.nodes.iter()
    }

    /// Captures every node's rows for a checkpoint, copied by slice.
    pub fn capture(&self) -> Vec<NodeRows> {
        self.nodes
            .iter()
            .map(|log| (ring::rows(&log.battery), ring::rows(&log.server)))
            .collect()
    }

    /// Rebuilds a table from captured rows, one entry per node. Each
    /// ring is rebuilt in bulk and keeps the newest rows within the
    /// retention limit, exactly as recording the rows one by one would.
    pub fn restore(nodes: &[NodeRows]) -> Self {
        Self {
            nodes: nodes
                .iter()
                .map(|(battery, server)| NodeLog {
                    battery: ring::restore(battery, MAX_ROWS),
                    server: ring::restore(server, MAX_ROWS),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_units::{Amperes, Celsius, Soc, Volts};

    fn sample(at: u64) -> SensorSample {
        SensorSample {
            at: SimInstant::from_secs(at),
            voltage: Volts::new(12.3),
            current: Amperes::new(2.0),
            temperature: Celsius::new(26.0),
            soc: Soc::new(0.8).unwrap(),
        }
    }

    #[test]
    fn records_are_retrievable_per_node() {
        let mut t = PowerTable::new(3);
        t.record_battery(1, sample(10));
        t.record_server(
            1,
            ServerPowerRecord {
                at: SimInstant::from_secs(10),
                power: Watts::new(90.0),
            },
        );
        let rows = t.capture();
        assert_eq!(rows[1].0.len(), 1);
        assert_eq!(rows[0].0.len(), 0);
        assert_eq!(
            t.node(1).unwrap().latest_server().unwrap().power,
            Watts::new(90.0)
        );
        assert!(t.node(7).is_none());
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut t = PowerTable::new(1);
        for i in 0..(MAX_ROWS as u64 + 5) {
            t.record_battery(0, sample(i));
        }
        let rows = &t.capture()[0].0;
        assert_eq!(rows.len(), MAX_ROWS);
        assert_eq!(rows[0].at, SimInstant::from_secs(5));
    }

    #[test]
    fn empty_log_defaults() {
        let t = PowerTable::new(1);
        let log = t.node(0).unwrap();
        assert!(log.latest_battery().is_none());
        assert!(log.latest_server().is_none());
    }

    #[test]
    fn restore_matches_recording_row_by_row() {
        let mut recorded = PowerTable::new(2);
        for i in 0..(MAX_ROWS as u64 + 5) {
            recorded.record_battery(0, sample(i));
            recorded.record_server(
                1,
                ServerPowerRecord {
                    at: SimInstant::from_secs(i),
                    power: Watts::new(i as f64),
                },
            );
        }
        let captured = recorded.capture();
        assert_eq!(captured[0].0.len(), MAX_ROWS);
        assert_eq!(captured[1].1.len(), MAX_ROWS);
        assert_eq!(PowerTable::restore(&captured), recorded);
        // Over-long rows keep the newest, as recording them would.
        let mut long = captured.clone();
        long[0].0.splice(0..0, (0..3).map(sample));
        let mut restored = PowerTable::restore(&long);
        assert_eq!(restored, recorded);
        restored.record_battery(0, sample(1 << 20));
        recorded.record_battery(0, sample(1 << 20));
        assert_eq!(restored, recorded);
    }
}
