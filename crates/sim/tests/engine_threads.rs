//! Shard-count invariance for the parallel stepping engine.
//!
//! The engine shards the hot per-bank stages across a worker pool when
//! `SimConfig::threads` is above one, merging shard results in bank
//! order. The contract is *bit-identity*: any thread count produces the
//! same simulated state, the same serialized artifacts, and the same
//! state hash as the 1-thread run. These tests pin that
//! contract over a matrix of shard counts, chemistries and fault plans,
//! and across a snapshot taken mid-parallel-run and resumed at a
//! *different* thread count.
//!
//! Every thread count runs the same routing kernel (inline at one
//! thread, per shard with a pool), so comparing thread counts with each
//! other cannot catch a change the kernel makes to all of them at once.
//! The final state hashes are therefore also pinned to constants
//! recorded from the engine that still had a separate sequential
//! routing path.

use baat_battery::Chemistry;
use baat_obs::Obs;
use baat_sim::{
    BatteryTopology, ChemistrySpec, FaultMix, FaultPlan, Policy, RoundRobinPolicy, SimConfig,
    SimReport, SimSnapshot, Simulation,
};
use baat_solar::Weather;
use baat_units::SimDuration;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Pinned final state hashes of the matrix cells, keyed by
/// (chemistry, light faults).
const MATRIX_HASHES: [(Chemistry, bool, u64); 4] = [
    (Chemistry::LeadAcid, false, 0xfe6f_3f0c_8a34_8ef5),
    (Chemistry::LeadAcid, true, 0x0c4a_1cef_e8a8_2f92),
    (Chemistry::LiIon, false, 0x594b_eab2_a5cb_98be),
    (Chemistry::LiIon, true, 0xd16e_389f_049e_3c37),
];

/// Pinned final state hash of the shared-pool topology run.
const SHARED_POOL_HASH: u64 = 0x2505_28a8_af8c_a2d3;

/// A 12-node per-server fleet (12 banks — enough for uneven shard
/// splits at every count in the matrix) on a coarse timestep.
fn matrix_config(chemistry: Chemistry, light_faults: bool, threads: usize) -> SimConfig {
    let nodes = 12;
    let mut b = SimConfig::builder();
    b.weather_plan(vec![Weather::Cloudy])
        .nodes(nodes)
        .workload_mix(nodes, 60)
        .dt(SimDuration::from_secs(120))
        .control_interval(SimDuration::from_secs(600))
        .sample_every(4)
        .seed(97)
        .chemistry(ChemistrySpec::new(chemistry))
        .threads(threads);
    if light_faults {
        b.faults(FaultPlan::generate(97, 1, nodes, nodes, &FaultMix::light()));
    }
    b.build().expect("matrix config is valid")
}

fn total_steps(config: &SimConfig) -> u64 {
    config.days() as u64 * 86_400 / config.dt.as_secs()
}

/// Runs to completion, returning the final state hash alongside the
/// report (the report alone does not pin RNG tails and scratch state).
fn run_hashed(config: SimConfig) -> (u64, SimReport) {
    let steps = total_steps(&config);
    let mut sim = Simulation::new(config).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, steps).expect("run completes");
    let hash = sim.state_hash();
    let report = sim.into_report(policy.name()).expect("report builds");
    (hash, report)
}

/// 1/2/4/8 shards × lead-acid/li-ion × clean/light-faults: byte-identical
/// JSONL artifacts against the 1-thread run, and every thread count's
/// state hash equal to the pinned one.
#[test]
fn shard_count_invariance_matrix() {
    for (chemistry, light_faults, pinned) in MATRIX_HASHES {
        let (_, reference) = run_hashed(matrix_config(chemistry, light_faults, 1));
        let ref_events = reference.events.to_jsonl();
        let ref_trace = reference.recorder.to_jsonl();
        for threads in SHARD_COUNTS {
            let (hash, report) = run_hashed(matrix_config(chemistry, light_faults, threads));
            assert_eq!(
                hash, pinned,
                "state hash moved off its pin at {threads} threads ({chemistry:?}, light_faults={light_faults})"
            );
            assert_eq!(
                report.events.to_jsonl(),
                ref_events,
                "event JSONL diverged at {threads} threads ({chemistry:?}, light_faults={light_faults})"
            );
            assert_eq!(
                report.recorder.to_jsonl(),
                ref_trace,
                "trace JSONL diverged at {threads} threads ({chemistry:?}, light_faults={light_faults})"
            );
            assert_eq!(
                report, reference,
                "report diverged at {threads} threads ({chemistry:?}, light_faults={light_faults})"
            );
        }
    }
}

/// Observed runs are thread-invariant too, including the metric
/// export: every metric except the `exec.*` pool-introspection family
/// (wall-clock figures, registered only when a pool exists) is
/// byte-identical across 1/2/8 threads, and sharded runs do expose the
/// `exec.*` family while sequential runs register none of it — so the
/// CI OpenMetrics golden stays byte-stable at any `--threads`.
#[test]
fn observed_runs_export_identical_metrics_at_any_thread_count() {
    let run_observed = |threads: usize| {
        let config = matrix_config(Chemistry::LeadAcid, true, threads);
        let steps = total_steps(&config);
        let obs = Obs::enabled();
        let mut sim = Simulation::with_obs(config, obs.clone()).expect("sim builds");
        let mut policy = RoundRobinPolicy::new();
        sim.run_steps(&mut policy, steps).expect("run completes");
        (sim.state_hash(), obs)
    };
    let non_exec_metrics = |obs: &Obs| -> String {
        obs.metrics_jsonl()
            .lines()
            .filter(|l| !l.contains("\"name\":\"exec."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (ref_hash, ref_obs) = run_observed(1);
    assert!(
        !ref_obs
            .snapshot()
            .iter()
            .any(|s| s.name.starts_with("exec.")),
        "a sequential run must register no exec.* metrics"
    );
    let reference = non_exec_metrics(&ref_obs);
    for threads in [2, 8] {
        let (hash, obs) = run_observed(threads);
        assert_eq!(hash, ref_hash, "state hash diverged at {threads} threads");
        assert_eq!(
            non_exec_metrics(&obs),
            reference,
            "metric export (minus exec.*) diverged at {threads} threads"
        );
        let snapshot = obs.snapshot();
        for required in [
            "exec.pool.threads",
            "exec.pool.batches",
            "exec.pool.wall_ns",
        ] {
            assert!(
                snapshot.iter().any(|s| s.name == required),
                "sharded run at {threads} threads is missing {required}"
            );
        }
        assert!(
            snapshot
                .iter()
                .any(|s| s.name.starts_with("exec.worker.") && s.name.ends_with(".busy_ns")),
            "sharded run at {threads} threads exports no per-worker meters"
        );
    }
}

/// Shared pools shard too (fewer banks than threads clamps the shard
/// count; banks stay the independence boundary).
#[test]
fn shared_pool_topology_is_thread_invariant() {
    let build = |threads: usize| {
        let mut b = SimConfig::builder();
        b.weather_plan(vec![Weather::Sunny])
            .nodes(12)
            .workload_mix(12, 60)
            .topology(BatteryTopology::SharedPool { pools: 4 })
            .dt(SimDuration::from_secs(120))
            .control_interval(SimDuration::from_secs(600))
            .sample_every(4)
            .seed(31)
            .threads(threads);
        b.build().expect("shared-pool config is valid")
    };
    let (_, reference) = run_hashed(build(1));
    for threads in [1, 2, 8] {
        let (hash, report) = run_hashed(build(threads));
        assert_eq!(
            hash, SHARED_POOL_HASH,
            "state hash moved off its pin at {threads} threads"
        );
        assert_eq!(report, reference, "report diverged at {threads} threads");
    }
}

/// A snapshot taken in the middle of a parallel (4-thread) run restores
/// and finishes identically at *any* thread count: the thread knob is
/// invisible to config identity, so checkpoints move freely between
/// sequential and sharded engines.
#[test]
fn mid_parallel_snapshot_resumes_at_any_thread_count() {
    let parallel = matrix_config(Chemistry::LeadAcid, true, 4);
    let steps = total_steps(&parallel);
    let split = steps / 3;

    let mut sim = Simulation::new(parallel.clone()).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, split).expect("prefix runs");
    let bytes = sim.snapshot_with_policy(&policy).to_bytes();
    sim.run_steps(&mut policy, steps - split)
        .expect("suffix runs");
    let straight_hash = sim.state_hash();
    let straight = sim.into_report(policy.name()).expect("report builds");

    let snapshot = SimSnapshot::from_bytes(&bytes).expect("bytes parse back");
    for resume_threads in SHARD_COUNTS {
        let config = matrix_config(Chemistry::LeadAcid, true, resume_threads);
        let mut resumed = Simulation::restore(config, &snapshot).expect("snapshot restores");
        let mut fresh = RoundRobinPolicy::new();
        assert!(snapshot.apply_policy_state(&mut fresh));
        resumed
            .run_steps(&mut fresh, steps - split)
            .expect("resumed run completes");
        assert_eq!(
            resumed.state_hash(),
            straight_hash,
            "resume at {resume_threads} threads diverged from the 4-thread run"
        );
        let report = resumed.into_report(fresh.name()).expect("report builds");
        assert_eq!(
            report.events.to_jsonl(),
            straight.events.to_jsonl(),
            "event JSONL diverged resuming at {resume_threads} threads"
        );
        assert_eq!(
            report, straight,
            "report diverged resuming at {resume_threads} threads"
        );
    }
}
