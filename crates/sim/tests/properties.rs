//! Property-based tests for engine-level invariants, run on coarse
//! timesteps to keep the case count affordable.

use std::collections::VecDeque;

use baat_metrics::weighted_aging;
use baat_obs::Obs;
use baat_rng::StdRng;
use baat_sim::{
    run_simulation, Action, ControlCtx, FaultMix, FaultPlan, PendingQueue, PlacementSpec, Policy,
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

/// The engine's rank equals the scratch sort over a fresh view right
/// after a mid-run `pre_age_bank` and `pre_age_batteries`, with no step
/// in between, for both ranked specs and every workload kind.
#[test]
fn placement_rank_matches_scratch_right_after_pre_aging() {
    let config = faulted_config(Weather::Cloudy, 7, 6);
    let server_power = config.server_power;
    let specs = [
        PlacementSpec::WeightedAging { server_power },
        PlacementSpec::LifetimeNat,
    ];
    let mut sim = Simulation::new(config).expect("sim builds");
    let assert_ranks_match = |sim: &mut Simulation, when: &str| {
        let view = sim.build_view().expect("view builds");
        for spec in specs {
            for kind in WorkloadKind::ALL {
                let rank = sim.placement_rank(spec, kind).expect("rank computes");
                let scratch = SpecPolicy(spec).placement_order(kind, &view);
                assert_eq!(rank, scratch, "{spec:?}/{kind:?} {when}");
            }
        }
    };
    // 12:30 at dt = 300 s: the batteries have cycled and aged unevenly.
    sim.run_steps(&mut SpecPolicy(specs[0]), 150)
        .expect("prefix runs");
    assert_ranks_match(&mut sim, "before pre-aging");
    sim.pre_age_bank(2, 0.6).expect("bank exists");
    assert_ranks_match(&mut sim, "after pre_age_bank");
    sim.pre_age_batteries(0.7);
    assert_ranks_match(&mut sim, "after pre_age_batteries");
}

/// How one queue retry orders the hosts, mirroring the four declarative
/// placement specs: first-fit walks from host 0, round-robin from its
/// start, and the two ranked specs walk a ranking (weighted aging ranks
/// per demand class, lifetime NAT one order for every kind).
#[derive(Debug, Clone)]
enum Walk {
    FirstFit,
    RoundRobin,
    Ranked {
        mode_of: [usize; WorkloadKind::ALL.len()],
        orders: Vec<Vec<usize>>,
    },
}

/// One queue-retry case: hosts, their walk, and the queued VMs
/// (`(id, kind)` in arrival order).
#[derive(Debug, Clone)]
struct RetryCase {
    online: Vec<bool>,
    free: Vec<(u32, u32)>,
    walk: Walk,
    cursor: usize,
    queue: Vec<(u64, WorkloadKind)>,
}

/// What one pass did: every host walk as `(id, start)`, every admission
/// as `(id, host)`, in order.
#[derive(Debug, Default, PartialEq)]
struct PassLog {
    walks: Vec<(u64, usize)>,
    admissions: Vec<(u64, usize)>,
}

impl RetryCase {
    fn generate(rng: &mut StdRng) -> Self {
        let nodes = rng.random_range(1..=8usize);
        let online = (0..nodes).map(|_| rng.random_range(0..4u32) > 0).collect();
        let free = (0..nodes)
            .map(|_| (rng.random_range(0..=12u32), rng.random_range(0..=16u32)))
            .collect();
        let permutation = |rng: &mut StdRng| {
            let mut order: Vec<usize> = (0..nodes).collect();
            for i in (1..nodes).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            order
        };
        let walk = match rng.random_range(0..4u32) {
            0 => Walk::FirstFit,
            1 => Walk::RoundRobin,
            2 => Walk::Ranked {
                mode_of: std::array::from_fn(|_| rng.random_range(0..3usize)),
                orders: (0..3).map(|_| permutation(rng)).collect(),
            },
            _ => Walk::Ranked {
                mode_of: [0; WorkloadKind::ALL.len()],
                orders: vec![permutation(rng)],
            },
        };
        // A cursor that may sit past the node count, as a restored one can.
        let cursor = rng.random_range(0..3 * nodes);
        let kinds = Self::queue_kinds(rng);
        let len = rng.random_range(0..48usize);
        let queue = (0..len as u64)
            .map(|id| (id, kinds[rng.random_range(0..kinds.len())]))
            .collect();
        Self {
            online,
            free,
            walk,
            cursor,
            queue,
        }
    }

    /// The kinds one queue draws from: all six, a single kind, only the
    /// requests that dominate another kind's, or a random subset (the
    /// remaining kinds' FIFOs stay empty).
    fn queue_kinds(rng: &mut StdRng) -> Vec<WorkloadKind> {
        let all = WorkloadKind::ALL;
        match rng.random_range(0..4u32) {
            0 => all.to_vec(),
            1 => vec![all[rng.random_range(0..all.len())]],
            2 => all
                .iter()
                .copied()
                .filter(|k| {
                    let (c, m) = k.resource_request();
                    all.iter().any(|o| {
                        let (oc, om) = o.resource_request();
                        o != k && c >= oc && m >= om
                    })
                })
                .collect(),
            _ => {
                let subset: Vec<_> = all.iter().copied().filter(|_| rng.random()).collect();
                if subset.is_empty() {
                    vec![all[0]]
                } else {
                    subset
                }
            }
        }
    }

    fn nodes(&self) -> usize {
        self.online.len()
    }

    /// Walks the hosts for one VM from `start` and admits it to the
    /// first online host with room.
    fn place(&mut self, id: u64, kind: WorkloadKind, start: usize, log: &mut PassLog) -> bool {
        let n = self.nodes();
        let (cores, memory) = kind.resource_request();
        log.walks.push((id, start));
        for r in 0..n {
            let node = match &self.walk {
                Walk::FirstFit => r,
                Walk::RoundRobin => (start + r) % n,
                Walk::Ranked { mode_of, orders } => orders[mode_of[kind as usize]][r],
            };
            let free = &mut self.free[node];
            if self.online[node] && free.0 >= cores && free.1 >= memory {
                free.0 -= cores;
                free.1 -= memory;
                log.admissions.push((id, node));
                return true;
            }
        }
        false
    }

    /// Today's scan, kept here as the oracle: every queued VM in order,
    /// each advancing the round-robin cursor, skipping a VM whose request
    /// dominates one that already failed this pass.
    fn scan(&mut self, queue: &mut VecDeque<(u64, WorkloadKind)>, log: &mut PassLog) {
        let n = self.nodes();
        let mut failed: Vec<(u32, u32)> = Vec::new();
        let mut left = VecDeque::new();
        for (id, kind) in queue.drain(..) {
            let start = match self.walk {
                Walk::RoundRobin => {
                    let start = self.cursor % n;
                    self.cursor = (self.cursor + 1) % n;
                    start
                }
                _ => 0,
            };
            let request = kind.resource_request();
            let skip = failed
                .iter()
                .any(|&(c, m)| request.0 >= c && request.1 >= m);
            if skip {
                left.push_back((id, kind));
            } else if !self.place(id, kind, start, log) {
                failed.push(request);
                left.push_back((id, kind));
            }
        }
        *queue = left;
    }

    /// The per-kind queue's retry over the same hosts.
    fn retry(&mut self, queue: &mut PendingQueue<u64>, log: &mut PassLog) {
        let n = self.nodes();
        let mut cursor = self.cursor;
        let round_robin = matches!(self.walk, Walk::RoundRobin);
        queue
            .retry(&mut cursor, n, |id, kind, start| {
                let start = if round_robin { start } else { 0 };
                Ok::<_, ()>((!self.place(id, kind, start, log)).then_some(id))
            })
            .expect("placement never fails");
        if round_robin {
            self.cursor = cursor;
        }
    }
}

/// The per-kind queue's retry against a copy of the single-queue scan it
/// replaced: over random hosts, walks and queues (mixed, single-kind,
/// only dominating requests, some kinds empty), three passes with fresh
/// arrivals and new free resources between them must walk the same VMs
/// from the same starts, admit the same VMs to the same hosts, leave the
/// same queue in the same order and end on the same round-robin cursor.
#[test]
fn per_kind_retry_matches_the_arrival_order_scan() {
    let mut rng = StdRng::seed_from_u64(0x9e4d_17a5);
    let mut walked = 0;
    let mut skipped = 0;
    for case in 0..3_000 {
        let mut oracle = RetryCase::generate(&mut rng);
        let mut fast = oracle.clone();
        let mut queue: VecDeque<_> = oracle.queue.iter().copied().collect();
        let mut pending = PendingQueue::new();
        for &(id, kind) in &oracle.queue {
            pending.push(kind, id);
        }
        let mut next_id = queue.len() as u64;
        for pass in 0..3 {
            let (mut want, mut got) = (PassLog::default(), PassLog::default());
            let queued = queue.len();
            oracle.scan(&mut queue, &mut want);
            fast.retry(&mut pending, &mut got);
            assert_eq!(got, want, "case {case} pass {pass}: {oracle:?}");
            let left: Vec<u64> = queue.iter().map(|&(id, _)| id).collect();
            assert!(
                pending.iter().copied().eq(left.iter().copied()),
                "case {case} pass {pass}: queue order"
            );
            assert_eq!(pending.len(), left.len());
            assert_eq!(fast.cursor, oracle.cursor, "case {case} pass {pass}");
            walked += want.walks.len();
            skipped += queued - want.walks.len();
            // Between passes: new arrivals, and hosts freed or filled.
            let kinds = RetryCase::queue_kinds(&mut rng);
            for _ in 0..rng.random_range(0..8u32) {
                let kind = kinds[rng.random_range(0..kinds.len())];
                queue.push_back((next_id, kind));
                pending.push(kind, next_id);
                next_id += 1;
            }
            for node in 0..oracle.nodes() {
                let free = (rng.random_range(0..=12u32), rng.random_range(0..=16u32));
                oracle.free[node] = free;
                fast.free[node] = free;
            }
        }
    }
    // Both halves of the scan are exercised: walks and memo skips.
    assert!(
        walked > 10_000 && skipped > 10_000,
        "{walked} walked, {skipped} skipped"
    );
}

/// Fixed-order admission walks resume at their pass's frontier, where
/// the scratch path walks every VM's order from the front. On random
/// over-subscribed fleets, with hosts offline (drained banks, host-down
/// faults) and full, and all six kinds queued and retried, both must
/// admit every VM of every pass to the same host. The cluster and the
/// queue are compared after every step: a step's placement passes are
/// the only thing that admits a VM, and these policies never migrate.
#[test]
fn frontier_walks_admit_where_full_walks_do() {
    let mut rng = StdRng::seed_from_u64(0xf207_71e2);
    let weathers = [Weather::Sunny, Weather::Cloudy, Weather::Rainy];
    let (mut offline, mut full, mut queued_max) = (0, 0, 0);
    let mut queued_kinds = [false; WorkloadKind::ALL.len()];
    for case in 0..4 {
        let nodes = rng.random_range(3..=16usize);
        let seed = rng.random_range(0..1_000u64);
        let mut b = SimConfig::builder();
        b.weather_plan(vec![weathers[rng.random_range(0..3usize)], Weather::Rainy])
            .nodes(nodes)
            .workload_mix(3 * nodes, 20 * nodes)
            .dt(SimDuration::from_secs(300))
            .control_interval(SimDuration::from_secs(300))
            .sample_every(4)
            .seed(seed);
        if case % 2 == 1 {
            b.faults(FaultPlan::generate(
                seed,
                2,
                nodes,
                nodes,
                &FaultMix::heavy(),
            ));
        }
        let config = b.build().expect("config is valid");
        let specs = [
            PlacementSpec::FirstFit,
            PlacementSpec::WeightedAging {
                server_power: config.server_power,
            },
            PlacementSpec::LifetimeNat,
        ];
        for spec in specs {
            let mut fast = Simulation::new(config.clone()).expect("sim builds");
            let mut scratch = Simulation::new(config.clone()).expect("sim builds");
            let mut policy = SpecPolicy(spec);
            let mut full_walks = ScratchPlacement(SpecPolicy(spec));
            for step in 0..fast.total_steps() {
                fast.step(&mut policy).expect("fast step");
                scratch.step(&mut full_walks).expect("scratch step");
                let cluster = fast.cluster().capture_state();
                let pending = fast.snapshot().state.pending;
                let at = format!("case {case} ({nodes} nodes, seed {seed}) {spec:?} step {step}");
                assert_eq!(cluster, scratch.cluster().capture_state(), "{at}");
                assert_eq!(pending, scratch.snapshot().state.pending, "{at}");
                let online = fast.cluster().hosts().filter(|h| h.is_online());
                let (up, full_up) =
                    online.fold((0, 0), |(up, f), h| (up + 1, f + !h.fits((2, 4)) as usize));
                if up > 0 && up < nodes {
                    offline += 1;
                }
                full += full_up;
                queued_max = queued_max.max(pending.len());
                for vm in &pending {
                    queued_kinds[vm.kind as usize] = true;
                }
            }
        }
    }
    assert!(
        offline > 100 && full > 100 && queued_max > 20 && queued_kinds.iter().all(|&k| k),
        "{offline} steps with hosts offline, {full} full host-steps, \
         {queued_max} queued at most, kinds queued {queued_kinds:?}"
    );
}
