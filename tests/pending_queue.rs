//! Pins runs whose job queue holds hundreds of VMs.
//!
//! Every control interval retries the whole pending queue, so a run
//! where servers draw heavily on small batteries (fig15's 10 W/Ah
//! shape) with rainy days in the plan keeps a long queue for most of
//! the run. These tests pin the final state of such a run under each
//! declarative placement spec, at one and two engine threads, and check
//! that a checkpoint taken while the queue is long resumes to the same
//! end. The pinned hashes were recorded from the engine that retried
//! the queue as a single arrival-ordered `VecDeque`.

use baat_repro::battery::BatterySpec;
use baat_repro::core::Scheme;
use baat_repro::server::ServerPowerModel;
use baat_repro::sim::{Policy, RoundRobinPolicy, SimConfig, SimSnapshot, Simulation};
use baat_repro::solar::Weather;
use baat_repro::units::{AmpHours, Amperes, Ohms, SimDuration, Watts};

const NODES: usize = 6;
const SEED: u64 = 11;

/// The queue length every run must reach, and the checkpoint must hold.
const MIN_QUEUE: usize = 100;

/// Pinned final state hashes, one per placement spec.
const PINS: [(&str, u64); 4] = [
    ("e-buff", 0xcc2d_d458_6b62_c05c),
    ("baat", 0xf04a_1cfe_a9c5_e459),
    ("baat-h", 0x70eb_5f1f_0e5b_8c2c),
    ("round-robin", 0xa4f8_8c2c_6846_ce59),
];

/// Six nodes whose 700 W peak servers sit on 70 Ah banks, under a
/// workload mix far beyond what they can host.
fn config(threads: usize) -> SimConfig {
    let battery_ah = 70.0;
    let peak = 10.0 * battery_ah;
    let mut spec = BatterySpec::builder();
    spec.capacity(AmpHours::new(battery_ah))
        .internal_resistance(Ohms::new(0.006))
        .max_charge_current(Amperes::new(battery_ah / 4.0))
        .max_discharge_current(Amperes::new(battery_ah));
    let mut b = SimConfig::builder();
    b.weather_plan(vec![
        Weather::Sunny,
        Weather::Rainy,
        Weather::Cloudy,
        Weather::Sunny,
    ])
    .nodes(NODES)
    .workload_mix(6, 60)
    .dt(SimDuration::from_secs(300))
    .control_interval(SimDuration::from_secs(300))
    .sample_every(4)
    .seed(SEED)
    .battery_spec(spec.build().expect("spec is valid"))
    .server_power(
        ServerPowerModel::new(Watts::new(peak * 0.29), Watts::new(peak)).expect("powers are valid"),
    )
    .threads(threads);
    b.build().expect("pending-queue config is valid")
}

fn total_steps(config: &SimConfig) -> u64 {
    config.days() as u64 * 86_400 / config.dt.as_secs()
}

/// A fresh policy for the spec named `name`.
fn policy(name: &str) -> Box<dyn Policy> {
    match name {
        "e-buff" => Scheme::EBuff.build(),
        "baat" => Scheme::Baat.build(),
        "baat-h" => Scheme::BaatH.build(),
        "round-robin" => Box::new(RoundRobinPolicy::new()),
        other => panic!("no policy named {other}"),
    }
}

fn queued(sim: &Simulation) -> usize {
    sim.snapshot().state.pending.len()
}

#[test]
fn long_queue_runs_match_their_pins_at_one_and_two_threads() {
    for (name, pin) in PINS {
        for threads in [1, 2] {
            let config = config(threads);
            let steps = total_steps(&config);
            let mut sim = Simulation::new(config).expect("sim builds");
            let mut policy = policy(name);
            let mut longest = 0;
            for _ in 0..steps {
                sim.step(&mut policy).expect("step runs");
                longest = longest.max(queued(&sim));
            }
            assert!(
                longest >= MIN_QUEUE,
                "{name}: queue peaked at {longest} VMs"
            );
            assert_eq!(
                sim.state_hash(),
                pin,
                "{name}: state hash moved off its pin at {threads} threads"
            );
        }
    }
}

/// A checkpoint taken at the start of the last day, with the queue
/// long, decodes, restores and finishes exactly like the straight run.
#[test]
fn checkpoint_with_a_long_queue_resumes_to_the_straight_run() {
    let config = config(1);
    let steps = total_steps(&config);
    let split = steps * 3 / 4;
    for (name, pin) in PINS {
        let mut sim = Simulation::new(config.clone()).expect("sim builds");
        let mut policy = policy(name);
        sim.run_steps(&mut policy, split).expect("prefix runs");
        let held = queued(&sim);
        assert!(held >= MIN_QUEUE, "{name}: only {held} VMs queued");
        let bytes = sim.snapshot_with_policy(&policy).to_bytes();
        sim.run_steps(&mut policy, steps - split)
            .expect("suffix runs");
        assert_eq!(sim.state_hash(), pin, "{name}: straight run off its pin");
        let straight = sim.into_report(policy.name()).expect("report builds");

        let snapshot = SimSnapshot::from_bytes(&bytes).expect("bytes parse back");
        assert_eq!(snapshot.state.pending.len(), held);
        let mut resumed = Simulation::restore(config.clone(), &snapshot).expect("restores");
        let mut fresh = self::policy(name);
        assert!(
            snapshot.apply_policy_state(&mut fresh),
            "{name}: policy state"
        );
        resumed
            .run_steps(&mut fresh, steps - split)
            .expect("resumed run completes");
        assert_eq!(resumed.state_hash(), pin, "{name}: resumed run off its pin");
        let report = resumed.into_report(fresh.name()).expect("report builds");
        assert_eq!(report, straight, "{name}: resumed report differs");
    }
}
