//! Pins how fast a fleet's checkpoint grows with simulated time.
//!
//! A checkpoint carries, besides the fleet's state, the per-node sensor
//! and power history the engine retains, about 10 KB per node-hour of a
//! fleet day. Nothing reads that history but the checkpoint itself, so
//! nothing else would notice it growing: this test holds a 24-node
//! BAAT fleet day's final snapshot to its measured bytes per node-hour,
//! plus 2 %. When the history is deleted, tighten the pin to what is
//! left.

use baat_bench::runner::fleet_config;
use baat_core::Scheme;
use baat_sim::Simulation;
use baat_solar::Weather;

/// Bytes per node-hour of the day-end snapshot below: 6,057,575 bytes
/// after 24 hours of 24 nodes measure 10,516.6.
const BYTES_PER_NODE_HOUR: f64 = 10_516.6;

/// Headroom over [`BYTES_PER_NODE_HOUR`].
const SLACK: f64 = 1.02;

#[test]
fn fleet_day_snapshot_grows_within_its_pinned_rate() {
    let nodes = 24;
    let config = fleet_config(nodes, Weather::Cloudy, 7);
    let hours = config.days() as f64 * 24.0;
    let mut sim = Simulation::new(config).expect("fleet config is valid");
    let mut policy = Scheme::Baat.build();
    let steps = sim.total_steps();
    sim.run_steps(&mut policy, steps).expect("the day runs");
    let bytes = sim.snapshot_with_policy(&policy).to_bytes().len();
    let rate = bytes as f64 / (nodes as f64 * hours);
    println!("{bytes} bytes after {hours} h of {nodes} nodes: {rate:.1} bytes per node-hour");
    assert!(
        rate <= BYTES_PER_NODE_HOUR * SLACK,
        "{rate:.1} bytes per node-hour, over the pinned {BYTES_PER_NODE_HOUR} + 2 %"
    );
}
