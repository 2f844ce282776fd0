//! Pins the run that outlives the engine's history retention.
//!
//! The per-bank telemetry history keeps the newest 4,096 samples and
//! the power table keeps the newest 8,192 battery and server rows per
//! node; every row still retained is part of the snapshot and of the
//! state hash. The thread matrix and the golden checkpoint stop long
//! before either limit, so this four-day run (11,520 steps) is the one
//! that pins eviction: its final state hash was recorded from the
//! engine that kept each history in a per-node `VecDeque` ring.
//!
//! The shared-pool topology makes one bank's samples land in several
//! nodes' rows, and the heavy fault plan's sensor dropout and stuck-at
//! windows make those rows ragged (withheld) and perturbed, so the
//! retained windows of different nodes start at different instants.

use baat_sim::{
    BatteryTopology, FaultKind, FaultMix, FaultPlan, Policy, RoundRobinPolicy, SimConfig,
    SimSnapshot, Simulation,
};
use baat_solar::Weather;
use baat_units::SimDuration;

/// Final state hash of the four-day run, recorded before the ring
/// storage was replaced.
const EVICTION_HASH: u64 = 0x4cb9_7a83_c97b_b5d2;

const NODES: usize = 6;
const POOLS: usize = 2;
const SEED: u64 = 2;

fn plan() -> FaultPlan {
    FaultPlan::generate(SEED, 4, NODES, POOLS, &FaultMix::heavy())
}

fn config(threads: usize) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![
        Weather::Cloudy,
        Weather::Sunny,
        Weather::Rainy,
        Weather::Cloudy,
    ])
    .nodes(NODES)
    .workload_mix(NODES, 60)
    .topology(BatteryTopology::SharedPool { pools: POOLS })
    .dt(SimDuration::from_secs(30))
    .control_interval(SimDuration::from_secs(300))
    .sample_every(40)
    .seed(SEED)
    .faults(plan())
    .threads(threads);
    b.build().expect("eviction config is valid")
}

fn total_steps(config: &SimConfig) -> u64 {
    config.days() as u64 * 86_400 / config.dt.as_secs()
}

#[test]
fn plan_withholds_and_perturbs_sensor_rows() {
    let plan = plan();
    let has = |f: fn(&FaultKind) -> bool| plan.faults().iter().any(|s| f(&s.kind));
    assert!(has(|k| matches!(k, FaultKind::SensorDropout { .. })));
    assert!(has(|k| matches!(k, FaultKind::SensorStuckAt { .. })));
    assert_eq!(total_steps(&config(1)), 11_520);
}

#[test]
fn four_day_run_past_retention_matches_its_pin() {
    for threads in [1, 2] {
        let config = config(threads);
        let steps = total_steps(&config);
        let mut sim = Simulation::new(config).expect("sim builds");
        let mut policy = RoundRobinPolicy::new();
        sim.run_steps(&mut policy, steps).expect("run completes");
        let state = sim.snapshot().state;
        for bank in 0..state.batteries.len() {
            assert_eq!(state.telemetry.len(bank), 4_096);
        }
        // Every node's battery rows are at the limit, but the dropout
        // withheld rows from one pool's nodes, so their retained window
        // reaches further back.
        let rows = state.battery_rows.to_rows();
        let oldest: Vec<_> = rows.iter().map(|b| b[0].at).collect();
        assert!(rows.iter().all(|b| b.len() == 8_192));
        assert!(oldest.iter().any(|&at| at != oldest[0]), "{oldest:?}");
        assert_eq!(
            sim.state_hash(),
            EVICTION_HASH,
            "state hash moved off its pin at {threads} threads"
        );
    }
}

/// A checkpoint taken at the end of day 2 (telemetry already evicting,
/// power-table rows not yet) restores and finishes exactly like the
/// straight run, through the power table's first evictions.
#[test]
fn day_two_checkpoint_resumes_through_eviction() {
    let config = config(1);
    let steps = total_steps(&config);
    let split = steps / 2;
    let mut sim = Simulation::new(config.clone()).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, split).expect("prefix runs");
    let bytes = sim.snapshot_with_policy(&policy).to_bytes();
    sim.run_steps(&mut policy, steps - split)
        .expect("suffix runs");
    let straight_hash = sim.state_hash();
    let straight = sim.into_report(policy.name()).expect("report builds");

    let snapshot = SimSnapshot::from_bytes(&bytes).expect("bytes parse back");
    let mut resumed = Simulation::restore(config, &snapshot).expect("snapshot restores");
    let mut fresh = RoundRobinPolicy::new();
    assert!(snapshot.apply_policy_state(&mut fresh));
    resumed
        .run_steps(&mut fresh, steps - split)
        .expect("resumed run completes");
    assert_eq!(resumed.state_hash(), straight_hash);
    assert_eq!(resumed.state_hash(), EVICTION_HASH);
    let report = resumed.into_report(fresh.name()).expect("report builds");
    assert_eq!(report, straight);
}

/// A fork shares its original's history: stepping a clone past both
/// limits retires chunks and edits bases the original still holds, and
/// must copy them rather than change the original's rows. The clone is
/// taken on day 1 (before either limit) and at the end of day 2, when
/// telemetry retirement has already moved the lagging pool's rows into
/// the base.
#[test]
fn a_clone_stepped_past_both_limits_leaves_its_original_unchanged() {
    let config = config(1);
    let steps = total_steps(&config);
    for split in [steps / 4, steps / 2] {
        let mut sim = Simulation::new(config.clone()).expect("sim builds");
        let mut policy = RoundRobinPolicy::new();
        sim.run_steps(&mut policy, split).expect("prefix runs");
        let captured = sim.snapshot();
        let bytes = captured.to_bytes();
        let hash = sim.state_hash();

        let mut fork = sim.clone();
        let mut fork_policy = RoundRobinPolicy::new();
        fork_policy.load_state(&policy.save_state());
        fork.run_steps(&mut fork_policy, steps - split)
            .expect("fork runs");
        assert_eq!(fork.state_hash(), EVICTION_HASH, "fork at step {split}");

        assert_eq!(sim.state_hash(), hash, "original moved at step {split}");
        assert_eq!(sim.snapshot(), captured, "original moved at step {split}");
        assert_eq!(captured.to_bytes(), bytes, "capture moved at step {split}");
    }
}
