//! Property-based tests for engine-level invariants, run on coarse
//! timesteps to keep the case count affordable.

use baat_metrics::weighted_aging;
use baat_obs::Obs;
use baat_sim::{
    run_simulation, Action, ControlCtx, FaultMix, FaultPlan, PlacementSpec, Policy,
    RoundRobinPolicy, ScratchPlacement, SimConfig, SimReport, Simulation, SystemView,
};
use baat_solar::Weather;
use baat_testkit::prelude::*;
use baat_units::SimDuration;
use baat_workload::WorkloadKind;

fn weather_strategy() -> impl Strategy<Value = Weather> {
    prop_oneof![
        Just(Weather::Sunny),
        Just(Weather::Cloudy),
        Just(Weather::Rainy),
    ]
}

fn coarse_config(weather: Weather, seed: u64, nodes: usize) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .nodes(nodes)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(seed);
    b.build().expect("coarse config is valid")
}

/// The coarse config plus a seeded heavy fault plan over its topology.
fn faulted_config(weather: Weather, seed: u64, nodes: usize) -> SimConfig {
    let plan = FaultPlan::generate(seed, 1, nodes, nodes, &FaultMix::heavy());
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .nodes(nodes)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(seed)
        .faults(plan);
    b.build().expect("faulted config is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SoC traces stay in [0, 1] for any weather/seed/fleet size.
    #[test]
    fn soc_always_bounded(weather in weather_strategy(), seed in 0u64..500, nodes in 1usize..8) {
        let report = run_simulation(
            coarse_config(weather, seed, nodes),
            &mut RoundRobinPolicy::new(),
        ).expect("simulation runs");
        for row in report.recorder.rows() {
            for &soc in &row.soc {
                prop_assert!((0.0..=1.0).contains(&soc), "soc {soc}");
            }
        }
    }

    /// Damage is non-negative, monotone with usage, and every node report
    /// is internally consistent.
    #[test]
    fn reports_are_consistent(weather in weather_strategy(), seed in 0u64..500) {
        let report = run_simulation(
            coarse_config(weather, seed, 6),
            &mut RoundRobinPolicy::new(),
        ).expect("simulation runs");
        for node in &report.nodes {
            prop_assert!(node.damage >= 0.0);
            prop_assert!((0.5..=1.0).contains(&node.capacity_fraction));
            prop_assert!(node.deep_discharge_time <= node.observed);
            let hist_total: u64 = node.soc_histogram.iter().map(|d| d.as_secs()).sum();
            prop_assert_eq!(hist_total, node.observed.as_secs());
            prop_assert!(node.work_done >= 0.0);
        }
        prop_assert!(report.unserved_energy.as_f64() >= 0.0);
        prop_assert!(report.curtailed_energy.as_f64() >= 0.0);
        prop_assert!(report.grid_charge_energy.as_f64() >= 0.0);
        let node_work: f64 = report.nodes.iter().map(|n| n.work_done).sum();
        prop_assert!((node_work - report.total_work).abs() < 1e-6);
    }

    /// Determinism: the same config twice gives the same report skeleton.
    #[test]
    fn runs_are_deterministic(weather in weather_strategy(), seed in 0u64..500) {
        let a = run_simulation(coarse_config(weather, seed, 6), &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        let b = run_simulation(coarse_config(weather, seed, 6), &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        prop_assert_eq!(a.total_work, b.total_work);
        prop_assert_eq!(a.completed_jobs, b.completed_jobs);
        prop_assert_eq!(a.events.len(), b.events.len());
    }

    /// An explicitly-set empty fault plan is bit-identical to the
    /// fault-free default: installing the subsystem perturbs nothing.
    #[test]
    fn empty_fault_plan_is_bit_identical(weather in weather_strategy(), seed in 0u64..500) {
        let baseline = run_simulation(coarse_config(weather, seed, 6), &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        let mut b = SimConfig::builder();
        b.weather_plan(vec![weather])
            .nodes(6)
            .dt(SimDuration::from_secs(300))
            .control_interval(SimDuration::from_secs(300))
            .sample_every(2)
            .seed(seed)
            .faults(FaultPlan::new());
        let with_empty_plan = run_simulation(
            b.build().expect("config valid"),
            &mut RoundRobinPolicy::new(),
        ).expect("simulation runs");
        prop_assert_eq!(baseline, with_empty_plan);
    }

    /// Snapshot-forked runs are bit-identical to from-scratch runs: a
    /// clean prefix advanced once, cloned, and finished per variant
    /// (with or without a fault plan installed at the fork point) must
    /// reproduce the monolithic run byte for byte.
    #[test]
    fn forked_runs_are_bit_identical_to_from_scratch(weather in weather_strategy(), seed in 0u64..500) {
        let clean_cfg = coarse_config(weather, seed, 6);
        let faulted_cfg = faulted_config(weather, seed, 6);
        let plan = faulted_cfg.faults.clone();
        let dt_secs = clean_cfg.dt.as_secs();

        // Shared warm-up: stop before the window opens and before the
        // earliest fault arms.
        let mut prefix = Simulation::new(clean_cfg.clone()).expect("sim builds");
        let earliest = plan
            .faults()
            .iter()
            .map(|s| s.start.as_secs() / dt_secs)
            .min()
            .unwrap_or(u64::MAX);
        let fork = prefix.policy_free_prefix_steps().min(earliest);
        prefix.run_steps(&mut RoundRobinPolicy::new(), fork).expect("prefix runs");

        let clean_fork = prefix.clone().run_remaining(&mut RoundRobinPolicy::new())
            .expect("clean fork runs");
        let mut faulted_fork_sim = prefix.clone();
        faulted_fork_sim.install_fault_plan(plan).expect("plan installs at fork");
        let faulted_fork = faulted_fork_sim.run_remaining(&mut RoundRobinPolicy::new())
            .expect("faulted fork runs");

        let clean_scratch = run_simulation(clean_cfg, &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        let faulted_scratch = run_simulation(faulted_cfg, &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        prop_assert_eq!(clean_fork, clean_scratch);
        prop_assert_eq!(faulted_fork, faulted_scratch);
    }

    /// The incremental placement ranker is unobservable: a policy served
    /// by the engine's dirty-set fleet ranker ([`RoundRobinPolicy`]
    /// declares a placement spec) must produce bit-identical reports to
    /// the same policy masked behind [`ScratchPlacement`], which forces
    /// the legacy recompute-from-`SystemView` path — across clean runs,
    /// arbitrary fleet sizes, and heavy fault plans (degraded nodes,
    /// host failures, mode switches all invalidating mid-run).
    #[test]
    fn incremental_placement_matches_scratch(
        weather in weather_strategy(),
        seed in 0u64..500,
        nodes in 1usize..8,
    ) {
        let clean_fast = run_simulation(
            coarse_config(weather, seed, nodes),
            &mut RoundRobinPolicy::new(),
        ).expect("fast clean run");
        let clean_scratch = run_simulation(
            coarse_config(weather, seed, nodes),
            &mut ScratchPlacement(RoundRobinPolicy::new()),
        ).expect("scratch clean run");
        prop_assert_eq!(clean_fast, clean_scratch);

        let faulted_fast = run_simulation(
            faulted_config(weather, seed, nodes),
            &mut RoundRobinPolicy::new(),
        ).expect("fast faulted run");
        let faulted_scratch = run_simulation(
            faulted_config(weather, seed, nodes),
            &mut ScratchPlacement(RoundRobinPolicy::new()),
        ).expect("scratch faulted run");
        prop_assert_eq!(faulted_fast, faulted_scratch);
    }

    /// Engine invariants survive arbitrary generated fault plans: SoC
    /// traces stay in [0, 1], reports stay internally consistent, and
    /// the perturbed run is byte-for-byte replayable from its seed.
    #[test]
    fn invariants_hold_under_faults(weather in weather_strategy(), seed in 0u64..500) {
        let report = run_simulation(
            faulted_config(weather, seed, 6),
            &mut RoundRobinPolicy::new(),
        ).expect("faulted simulation runs");
        for row in report.recorder.rows() {
            for &soc in &row.soc {
                prop_assert!((0.0..=1.0).contains(&soc), "soc {soc}");
            }
        }
        for node in &report.nodes {
            prop_assert!(node.damage >= 0.0);
            prop_assert!(node.work_done >= 0.0);
        }
        let replay = run_simulation(
            faulted_config(weather, seed, 6),
            &mut RoundRobinPolicy::new(),
        ).expect("faulted simulation runs");
        prop_assert_eq!(report.events.to_jsonl(), replay.events.to_jsonl());
    }
}

/// A fork must happen before the earliest fault arms: installing a plan
/// whose first window has already opened would skip its transition, so
/// the engine rejects it with a typed error.
#[test]
fn installing_a_plan_past_its_onset_is_rejected() {
    use baat_sim::FaultKind;
    use baat_units::{SimDuration as Dur, SimInstant};

    let mut sim = Simulation::new(coarse_config(Weather::Sunny, 7, 6)).expect("sim builds");
    sim.run_steps(&mut RoundRobinPolicy::new(), 10)
        .expect("prefix runs");
    let mut plan = FaultPlan::new();
    plan.push(baat_sim::FaultSpec {
        kind: FaultKind::PvOutage,
        start: SimInstant::from_secs(60),
        duration: Dur::from_secs(600),
    });
    let err = sim
        .install_fault_plan(plan)
        .expect_err("onset predates fork");
    assert!(err.to_string().contains("fork"), "got: {err}");
}

/// The same faulted seed produces a byte-identical event log no matter
/// how many runs execute concurrently: fault injection shares no state
/// across simulations and never consults thread identity.
#[test]
fn faulted_event_logs_are_thread_invariant() {
    let reference = run_simulation(
        faulted_config(Weather::Cloudy, 77, 6),
        &mut RoundRobinPolicy::new(),
    )
    .expect("simulation runs")
    .events
    .to_jsonl();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                run_simulation(
                    faulted_config(Weather::Cloudy, 77, 6),
                    &mut RoundRobinPolicy::new(),
                )
                .expect("simulation runs")
                .events
                .to_jsonl()
            })
        })
        .collect();
    for handle in handles {
        let jsonl = handle.join().expect("thread completes");
        assert_eq!(jsonl, reference, "event log must not depend on threading");
    }
}

/// A control-free policy whose `placement_order` is exactly what its
/// declarative spec describes, so `ScratchPlacement` can replay the spec
/// from a fresh view: ascending index, Eq-6 weighted aging (degraded
/// last, ties by index) or lifetime NAT (ties by index).
#[derive(Debug, Clone)]
struct SpecPolicy(PlacementSpec);

impl Policy for SpecPolicy {
    fn name(&self) -> &'static str {
        "spec"
    }

    fn control(&mut self, _view: &SystemView, _ctx: &ControlCtx<'_>) -> Vec<Action> {
        Vec::new()
    }

    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        let mut order: Vec<usize> = (0..view.nodes.len()).collect();
        match self.0 {
            PlacementSpec::WeightedAging { server_power } => {
                let class = kind
                    .profile()
                    .classify(server_power.idle(), server_power.peak());
                let score = |i: usize| weighted_aging(&view.nodes[i].lifetime_metrics, class);
                order.sort_by(|&a, &b| {
                    view.nodes[a]
                        .degraded
                        .cmp(&view.nodes[b].degraded)
                        .then(score(a).total_cmp(&score(b)))
                });
            }
            PlacementSpec::LifetimeNat => order.sort_by(|&a, &b| {
                let nat = |i: usize| view.nodes[i].lifetime_metrics.nat;
                nat(a).total_cmp(&nat(b))
            }),
            _ => {}
        }
        order
    }

    fn placement_spec(&self) -> PlacementSpec {
        self.0
    }
}

/// Four hosts under two rainy days with far more service VMs and batch
/// jobs than they can hold: batteries drain, hosts shut down, and most
/// arrivals and pending retries find no host.
fn oversubscribed_config(seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![Weather::Rainy, Weather::Rainy])
        .nodes(4)
        .workload_mix(12, 160)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(seed);
    b.build().expect("oversubscribed config is valid")
}

/// Runs `policy` on the fast path and behind [`ScratchPlacement`], each
/// observed; returns both reports and the fast run's carried-over
/// placement failures.
fn fast_and_scratch<P: Policy + Clone>(
    policy: P,
    config: &SimConfig,
) -> (SimReport, SimReport, u64) {
    let obs = Obs::enabled();
    let fast = Simulation::with_obs(config.clone(), obs.clone())
        .expect("sim builds")
        .run(&mut policy.clone())
        .expect("fast run");
    let scratch = Simulation::with_obs(config.clone(), Obs::enabled())
        .expect("sim builds")
        .run(&mut ScratchPlacement(policy))
        .expect("scratch run");
    (fast, scratch, obs.counter("sim.placement.failures").get())
}

/// The per-pass failed-request memo skips host walks for requests no
/// host can take. On a fleet where most walks fail, every declarative
/// spec must still produce the report the scratch path produces, which
/// walks every host for every VM.
#[test]
fn placement_memo_matches_scratch_on_an_oversubscribed_fleet() {
    for seed in [3, 17] {
        let config = oversubscribed_config(seed);
        let server_power = config.server_power;
        let cells: [(&str, (SimReport, SimReport, u64)); 4] = [
            (
                "first-fit",
                fast_and_scratch(SpecPolicy(PlacementSpec::FirstFit), &config),
            ),
            (
                "round-robin",
                fast_and_scratch(RoundRobinPolicy::new(), &config),
            ),
            (
                "weighted-aging",
                fast_and_scratch(
                    SpecPolicy(PlacementSpec::WeightedAging { server_power }),
                    &config,
                ),
            ),
            (
                "lifetime-nat",
                fast_and_scratch(SpecPolicy(PlacementSpec::LifetimeNat), &config),
            ),
        ];
        for (name, (fast, scratch, failures)) in cells {
            assert_eq!(
                fast, scratch,
                "{name}/seed {seed}: memo diverged from scratch"
            );
            assert!(
                failures > 20,
                "{name}/seed {seed}: only {failures} jobs carried over; not over-subscribed"
            );
        }
    }
}
