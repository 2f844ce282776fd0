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
//! newest [`PowerTable::MAX_ROWS`] rows per node and channel, in two
//! [`Journal`]s keyed by node. A checkpoint captures each channel as a
//! [`History`] that shares the journal's rows, and a restore adopts the
//! histories' rows the same way, so neither copies the history.

use baat_battery::SensorSample;
use baat_units::{SimInstant, Watts};

use crate::{History, Journal};

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

/// The monitoring architecture: one [`NodeLog`] per server/battery node
/// plus the retained history of both channels.
#[derive(Debug, Clone)]
pub struct PowerTable {
    nodes: Vec<NodeLog>,
    battery: Journal<SensorSample>,
    server: Journal<ServerPowerRecord>,
}

impl PowerTable {
    /// Rows retained per node and per channel.
    pub const MAX_ROWS: usize = 8_192;

    /// Creates a table for `nodes` server/battery pairs.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes: vec![NodeLog::default(); nodes],
            battery: Journal::new(nodes, Self::MAX_ROWS),
            server: Journal::new(nodes, Self::MAX_ROWS),
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

    /// Captures every node's retained rows for a checkpoint: the battery
    /// and the server channel, each sharing its journal's rows.
    pub fn capture(&self) -> (History<SensorSample>, History<ServerPowerRecord>) {
        (self.battery.capture(), self.server.capture())
    }

    /// Rebuilds a table from captured channels, one key per node, each
    /// adopted at its own retention limit; every node's latest rows are
    /// the newest its histories retain.
    ///
    /// # Panics
    ///
    /// Panics if the channels cover different numbers of nodes.
    pub fn restore(battery: &History<SensorSample>, server: &History<ServerPowerRecord>) -> Self {
        assert_eq!(battery.keys(), server.keys(), "channels cover the nodes");
        Self {
            nodes: (0..battery.keys())
                .map(|node| NodeLog {
                    battery: battery.last(node).copied(),
                    server: server.last(node).copied(),
                })
                .collect(),
            battery: Journal::restore(battery),
            server: Journal::restore(server),
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
        let (battery, _) = t.capture();
        assert_eq!(battery.len(1), 1);
        assert_eq!(battery.len(0), 0);
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
        let rows = PowerTable::MAX_ROWS as u64 + 5;
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
        let (battery, server) = recorded.capture();
        assert_eq!(battery.len(0), PowerTable::MAX_ROWS);
        assert_eq!(battery.to_rows()[0][0].at, SimInstant::from_secs(5));
        assert_eq!(server.len(1), PowerTable::MAX_ROWS);
        let restored = PowerTable::restore(&battery, &server);
        assert_eq!(restored.capture(), (battery, server));
        assert!(restored.iter().eq(recorded.iter()));
        assert_eq!(
            restored.node(0).unwrap().latest_battery(),
            Some(&sample(rows - 1))
        );
    }
}
