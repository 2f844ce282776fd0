//! The per-node power table (paper Table 2 + Fig 7).
//!
//! "Each group of batteries has a power table which records the battery
//! utilization history logs … collected from corresponding sensor of each
//! battery and sent to [the] BAAT controller", which also reads server
//! power through the IPDU (§IV.A). The [`PowerTable`] is that
//! controller-facing data layer: per-node battery sensor rows and server
//! power rows.
//!
//! The controller reads only each node's latest rows, which
//! [`NodeLog`] keeps at hand. The history behind them is retained, the
//! newest 8,192 rows per node and channel, in two [`Journal`]s keyed by
//! node, and is read back whole only for a checkpoint.

use baat_battery::SensorSample;
use baat_units::{SimInstant, Watts};

use crate::Journal;

/// One IPDU server-power reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerRecord {
    /// Reading timestamp.
    pub at: SimInstant,
    /// Server power at the outlet.
    pub power: Watts,
}

/// The latest rows of one server/battery node.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeLog {
    battery: Option<SensorSample>,
    server: Option<ServerPowerRecord>,
}

/// Retention limit per node and per channel.
const MAX_ROWS: usize = 8_192;

impl NodeLog {
    /// The most recent battery row.
    pub fn latest_battery(&self) -> Option<&SensorSample> {
        self.battery.as_ref()
    }

    /// The most recent server power row.
    pub fn latest_server(&self) -> Option<&ServerPowerRecord> {
        self.server.as_ref()
    }
}

/// One node's rows for a checkpoint: `(battery rows, server rows)`,
/// oldest first.
pub type NodeRows = (Vec<SensorSample>, Vec<ServerPowerRecord>);

/// The monitoring architecture: one [`NodeLog`] per server/battery node
/// plus the retained history of both channels.
#[derive(Debug, Clone)]
pub struct PowerTable {
    nodes: Vec<NodeLog>,
    battery: Journal<SensorSample>,
    server: Journal<ServerPowerRecord>,
}

impl PowerTable {
    /// Creates a table for `nodes` server/battery pairs.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes: vec![NodeLog::default(); nodes],
            battery: Journal::new(nodes, MAX_ROWS),
            server: Journal::new(nodes, MAX_ROWS),
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
        self.nodes[node].battery = Some(row);
        self.battery.push(node, row);
    }

    /// Records an IPDU server power row for a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn record_server(&mut self, node: usize, row: ServerPowerRecord) {
        self.nodes[node].server = Some(row);
        self.server.push(node, row);
    }

    /// The log of one node, or `None` if out of range.
    pub fn node(&self, node: usize) -> Option<&NodeLog> {
        self.nodes.get(node)
    }

    /// Iterates over all node logs.
    pub fn iter(&self) -> impl Iterator<Item = &NodeLog> {
        self.nodes.iter()
    }

    /// Captures every node's retained rows for a checkpoint.
    pub fn capture(&self) -> Vec<NodeRows> {
        self.battery
            .capture()
            .into_iter()
            .zip(self.server.capture())
            .collect()
    }

    /// Rebuilds a table from captured rows, one entry per node. Each
    /// channel keeps the newest rows within the retention limit, exactly
    /// as recording the rows one by one would.
    pub fn restore(nodes: &[NodeRows]) -> Self {
        Self {
            nodes: nodes
                .iter()
                .map(|(battery, server)| NodeLog {
                    battery: battery.last().copied(),
                    server: server.last().copied(),
                })
                .collect(),
            battery: Journal::restore(nodes.iter().map(|(b, _)| &b[..]), MAX_ROWS),
            server: Journal::restore(nodes.iter().map(|(_, s)| &s[..]), MAX_ROWS),
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
    fn empty_log_defaults() {
        let t = PowerTable::new(1);
        let log = t.node(0).unwrap();
        assert!(log.latest_battery().is_none());
        assert!(log.latest_server().is_none());
    }

    #[test]
    fn restore_rebuilds_latest_rows_and_history() {
        let mut recorded = PowerTable::new(2);
        let rows = MAX_ROWS as u64 + 5;
        for i in 0..rows {
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
        assert_eq!(captured[0].0[0].at, SimInstant::from_secs(5));
        assert_eq!(captured[1].1.len(), MAX_ROWS);
        let restored = PowerTable::restore(&captured);
        assert_eq!(restored.capture(), captured);
        assert!(restored.iter().eq(recorded.iter()));
        assert_eq!(
            restored.node(0).unwrap().latest_battery(),
            Some(&sample(rows - 1))
        );
    }
}
