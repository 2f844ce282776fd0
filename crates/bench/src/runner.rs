//! Shared experiment plumbing: standard configurations and the one
//! scenario runner.
//!
//! Every figure and ablation sweep is a `Vec<`[`Scenario`]`>` handed to
//! [`run_scenarios`]; [`run_scenarios_observed`] is the from-scratch
//! variant that also returns each run's metric registry, and
//! [`Scenario::run`] is the from-scratch single run the tests use as
//! the oracle.
//!
//! # Parallelism and determinism
//!
//! Figure and ablation sweeps are embarrassingly parallel: every
//! scenario owns its full simulation state and its own seed, so the
//! runner fans them out across a [`baat_exec::ExecPool`] — the same
//! worker pool the engine uses for intra-step sharding. Determinism is
//! preserved by construction — a scenario's result is a pure function
//! of its [`Scenario`] value, the pool returns results in item order,
//! and nothing about scheduling order can leak into a [`SimReport`].
//! The same scenario list therefore produces **bit-identical** reports
//! on 1 thread and on N (verified by `tests/determinism.rs`).
//!
//! Sweeps take their thread count from [`runner_threads`]:
//! `BAAT_RUNNER_THREADS` when set, else
//! [`std::thread::available_parallelism`].

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use baat_battery::Chemistry;
use baat_core::{Baat, BaatConfig, Scheme};
use baat_obs::json::JsonLine;
use baat_obs::Obs;
use baat_rng::derive_seed;
use baat_sim::{ChemistrySpec, FaultMix, FaultPlan, Policy, SimConfig, SimReport, Simulation};
use baat_solar::Weather;
use baat_units::SimDuration;

/// Pre-aging damage used for the paper's "old" battery stage (§VI.B ran
/// its aged-battery comparison in October, roughly six months of cycling
/// after the April setup — about 0.55 damage in our model).
pub const OLD_BATTERY_DAMAGE: f64 = 0.55;

/// Standard experiment timestep: 30 simulated seconds balances battery
/// dynamics fidelity against sweep runtime.
pub const EXPERIMENT_DT: SimDuration = SimDuration::from_secs(30);

/// Builds the standard prototype-day configuration used across
/// experiments.
pub fn day_config(weather: Weather, seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .dt(EXPERIMENT_DT)
        .sample_every(20)
        .seed(seed);
    b.build().expect("experiment defaults are valid")
}

/// [`day_config`] with the node batteries swapped for `chemistry`'s
/// prototype spec — everything else (weather, timestep, sampling, seed)
/// is identical, so a lead-acid vs li-ion pair is a pure chemistry
/// ablation.
pub fn chemistry_day_config(chemistry: Chemistry, weather: Weather, seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .dt(EXPERIMENT_DT)
        .sample_every(20)
        .seed(seed)
        .chemistry(ChemistrySpec::new(chemistry));
    b.build().expect("experiment defaults are valid")
}

/// [`plan_config`] with the node batteries swapped for `chemistry`'s
/// prototype spec (see [`chemistry_day_config`]).
pub fn chemistry_plan_config(chemistry: Chemistry, plan: Vec<Weather>, seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(plan)
        .dt(EXPERIMENT_DT)
        .sample_every(40)
        .seed(seed)
        .chemistry(ChemistrySpec::new(chemistry));
    b.build().expect("experiment defaults are valid")
}

/// [`day_config`] with a seeded fault plan layered on top: the same
/// weather, timestep and sampling cadence, plus `mix.per_day` faults
/// generated over the default 6-node / per-server topology. The plan is
/// a pure function of `seed`, so faulted sweeps replay exactly.
pub fn faulted_day_config(weather: Weather, seed: u64, mix: &FaultMix) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .dt(EXPERIMENT_DT)
        .sample_every(20)
        .seed(seed)
        .faults(FaultPlan::generate(seed, 1, 6, 6, mix));
    b.build().expect("experiment defaults are valid")
}

/// Builds a clean/faulted scenario pair per scheme — the degradation
/// ablation matrix. Both cells of a pair share the seed, so the fault
/// plan is the only thing that differs; the clean cell always precedes
/// its faulted twin in the returned order.
pub fn fault_matrix(
    schemes: &[Scheme],
    weather: Weather,
    seed: u64,
    mix: &FaultMix,
) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(schemes.len() * 2);
    for &scheme in schemes {
        out.push(Scenario::new(scheme, day_config(weather, seed)));
        out.push(Scenario::new(
            scheme,
            faulted_day_config(weather, seed, mix),
        ));
    }
    out
}

/// Builds a single-day fleet-scale configuration: `nodes` hosts with
/// proportionally scaled PV and workload (see
/// [`baat_sim::SimConfigBuilder::fleet`]), the standard experiment
/// timestep, and deterministic content from `seed` alone — two calls
/// with equal arguments produce byte-identical runs.
pub fn fleet_config(nodes: usize, weather: Weather, seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .dt(EXPERIMENT_DT)
        .seed(seed)
        .fleet(nodes);
    b.build().expect("fleet defaults are valid")
}

/// Builds a multi-day configuration with the given weather plan.
pub fn plan_config(plan: Vec<Weather>, seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(plan)
        .dt(EXPERIMENT_DT)
        .sample_every(40)
        .seed(seed);
    b.build().expect("experiment defaults are valid")
}

/// What a scenario runs: one of the Table-4 schemes with its defaults,
/// or the full BAAT policy under a custom configuration (the Fig 16
/// slowdown thresholds, the Fig 21 planned DoD, the Fig 22 service
/// horizons).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioPolicy {
    /// A scheme with its default configuration.
    Scheme(Scheme),
    /// The coordinated BAAT policy with this configuration.
    Baat(BaatConfig),
}

impl ScenarioPolicy {
    /// Instantiates the policy with its decision counters in `obs`.
    fn build(&self, obs: &Obs) -> Box<dyn Policy> {
        match self {
            ScenarioPolicy::Scheme(scheme) => scheme.build_observed(obs),
            ScenarioPolicy::Baat(config) => {
                let mut policy = Baat::with_config(config.clone());
                policy.attach_obs(obs);
                Box::new(policy)
            }
        }
    }
}

impl From<Scheme> for ScenarioPolicy {
    fn from(scheme: Scheme) -> Self {
        ScenarioPolicy::Scheme(scheme)
    }
}

impl From<BaatConfig> for ScenarioPolicy {
    fn from(config: BaatConfig) -> Self {
        ScenarioPolicy::Baat(config)
    }
}

/// One sweep cell: everything needed to produce one [`SimReport`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The policy under test.
    pub policy: ScenarioPolicy,
    /// The full simulation configuration (carries the seed).
    pub config: SimConfig,
    /// Optional pre-aging damage (the paper's "old battery" stage).
    pub pre_age: Option<f64>,
}

impl Scenario {
    /// A fresh-battery scenario.
    pub fn new(policy: impl Into<ScenarioPolicy>, config: SimConfig) -> Self {
        Self {
            policy: policy.into(),
            config,
            pre_age: None,
        }
    }

    /// Adds pre-aging.
    pub fn pre_aged(mut self, damage: f64) -> Self {
        self.pre_age = Some(damage);
        self
    }

    /// Runs the scenario from scratch on the calling thread — the
    /// oracle every [`run_scenarios`] report must equal bit for bit.
    pub fn run(self) -> SimReport {
        self.run_with_obs(Obs::disabled())
    }

    fn run_with_obs(self, obs: Obs) -> SimReport {
        let mut sim =
            Simulation::with_obs(self.config, obs.clone()).expect("config validated by builder");
        if let Some(damage) = self.pre_age {
            sim.pre_age_batteries(damage);
        }
        sim.run(&mut self.policy.build(&obs))
            .expect("experiment scenarios uphold engine invariants")
    }

    fn run_observed(self) -> ObservedRun {
        let obs = Obs::enabled();
        let started = Instant::now();
        let report = self.run_with_obs(obs.clone());
        ObservedRun {
            report,
            obs,
            wall: started.elapsed(),
        }
    }
}

/// One scenario's report together with the observability registry and
/// wall-clock time of its run.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The simulation report — identical to an unobserved run.
    pub report: SimReport,
    /// The per-scenario metric/profiler registry.
    pub obs: Obs,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

/// Runs every scenario from scratch with a fresh enabled [`Obs`] each,
/// fanned out over `threads` workers, and returns runs **in scenario
/// order**.
///
/// Reports are bit-identical to [`run_scenarios`] for the same scenario
/// list (verified by `tests/determinism.rs`); only the wall-clock
/// figures and metric registries are extra.
pub fn run_scenarios_observed(scenarios: Vec<Scenario>, threads: usize) -> Vec<ObservedRun> {
    parallel_map(scenarios, threads, Scenario::run_observed)
}

/// Writes one scenario's perf + counter report as JSONL next to the
/// figure outputs: a header line (scenario, wall-clock), the per-stage
/// profile lines, then the metric lines.
///
/// Returns the path written (`<dir>/<label>.perf.jsonl`).
///
/// # Errors
///
/// Propagates filesystem errors creating `dir` or writing the file.
pub fn write_perf_report(dir: &Path, label: &str, run: &ObservedRun) -> std::io::Result<PathBuf> {
    let mut line = JsonLine::new();
    line.str_field("scenario", label)
        .str_field("policy", run.report.policy)
        .f64_field("wall_ms", run.wall.as_secs_f64() * 1e3)
        .u64_field("days", run.report.days as u64)
        .u64_field("events", run.report.events.len() as u64);
    write_perf_lines(dir, label, line.finish(), &run.obs)
}

/// Like [`write_perf_report`] for sweeps that drive substrates directly
/// (no [`SimReport`]): the header carries only the label and wall-clock.
///
/// # Errors
///
/// Propagates filesystem errors creating `dir` or writing the file.
pub fn write_perf_jsonl(
    dir: &Path,
    label: &str,
    obs: &Obs,
    wall: Duration,
) -> std::io::Result<PathBuf> {
    let mut line = JsonLine::new();
    line.str_field("scenario", label)
        .f64_field("wall_ms", wall.as_secs_f64() * 1e3);
    write_perf_lines(dir, label, line.finish(), obs)
}

fn write_perf_lines(
    dir: &Path,
    label: &str,
    header: String,
    obs: &Obs,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}.perf.jsonl"));
    let mut out = header;
    out.push('\n');
    out.push_str(&obs.profile_jsonl());
    out.push_str(&obs.metrics_jsonl());
    out.push_str(&obs.health_jsonl());
    let mut file = std::fs::File::create(&path)?;
    file.write_all(out.as_bytes())?;
    // An OpenMetrics snapshot of the same registry rides along for
    // scrape-style consumers (`<label>.om`, `# EOF`-terminated).
    std::fs::write(dir.join(format!("{label}.om")), obs.metrics_openmetrics())?;
    Ok(path)
}

/// The directory perf reports go to when the `BAAT_OBS_DIR` environment
/// variable is set; `None` disables perf emission.
pub fn obs_dir_from_env() -> Option<PathBuf> {
    std::env::var_os("BAAT_OBS_DIR").map(PathBuf::from)
}

/// Derives the seed for sweep cell `index` from a base seed.
///
/// Sweeps that want decorrelated stochastic inputs per cell (rather than
/// the paper's matched-day methodology, which reuses one seed) route the
/// base seed through this so cell streams share no structure while the
/// whole sweep stays a pure function of the base seed.
pub fn scenario_seed(base: u64, index: usize) -> u64 {
    derive_seed(base, index as u64)
}

/// Worker-thread count for [`run_scenarios`]: `BAAT_RUNNER_THREADS` when
/// set (min 1), else the machine's available parallelism.
pub fn runner_threads() -> usize {
    if let Ok(raw) = std::env::var("BAAT_RUNNER_THREADS") {
        if let Ok(n) = raw.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every scenario over `threads` workers and returns the reports
/// **in scenario order**.
///
/// Each distinct cell — equal policy, config and pre-aging — is
/// simulated once, and every scenario that repeats it gets a clone of
/// its report. Scenarios that share everything but policy and fault plan (same
/// config-minus-faults, same pre-aging) simulate their policy-free
/// pre-window prefix **once**; each member then forks a clone of the
/// warm engine and runs its own tail.
///
/// Reports are **bit-identical** to [`Scenario::run`] (verified by
/// `tests/determinism.rs`): the prefix is policy-independent by
/// construction — arrivals, placement and control are all gated on the
/// operating window — and a fault plan installed at the fork point
/// rebuilds an injector bit-identical to one armed from step 0, as long
/// as the fork precedes the earliest fault onset. Groups whose faults
/// fire before the window simply fork earlier (worst case: step 0).
pub fn run_scenarios(scenarios: Vec<Scenario>, threads: usize) -> Vec<SimReport> {
    let (cells, repeats) = distinct_cells(scenarios);
    let mut reports = run_forked(cells, threads).into_iter();
    let mut out: Vec<SimReport> = Vec::with_capacity(repeats.len());
    for repeat in repeats {
        let report = match repeat {
            Some(first) => out[first].clone(),
            None => reports.next().expect("one report per distinct cell"),
        };
        out.push(report);
    }
    out
}

/// Splits `scenarios` into its distinct cells, in first-seen order, and
/// gives each scenario the index of the earlier scenario it repeats, if
/// any.
fn distinct_cells(scenarios: Vec<Scenario>) -> (Vec<Scenario>, Vec<Option<usize>>) {
    let mut cells: Vec<(usize, Scenario)> = Vec::new();
    let repeats = scenarios
        .into_iter()
        .enumerate()
        .map(|(index, scenario)| {
            let pre_age = scenario.pre_age.map(f64::to_bits);
            let first = cells
                .iter()
                .find(|(_, cell)| {
                    cell.pre_age.map(f64::to_bits) == pre_age
                        && cell.policy == scenario.policy
                        && cell.config == scenario.config
                })
                .map(|&(first, _)| first);
            if first.is_none() {
                cells.push((index, scenario));
            }
            first
        })
        .collect();
    (cells.into_iter().map(|(_, cell)| cell).collect(), repeats)
}

/// [`run_scenarios`] over distinct cells: forked per warm group.
fn run_forked(scenarios: Vec<Scenario>, threads: usize) -> Vec<SimReport> {
    // Phase 1: one warm prefix per group, in parallel.
    let prefixes: Vec<(Simulation, Vec<usize>)> =
        parallel_map(warm_groups(&scenarios), threads, |group| {
            (warm_prefix(&group, &scenarios), group.members)
        });
    let mut prefix_of: Vec<Option<&Simulation>> = vec![None; scenarios.len()];
    for (sim, members) in &prefixes {
        for &index in members {
            prefix_of[index] = Some(sim);
        }
    }

    // Phase 2: fork and finish every scenario tail, in parallel.
    let jobs: Vec<(Scenario, Option<&Simulation>)> = scenarios.into_iter().zip(prefix_of).collect();
    parallel_map(jobs, threads, |(scenario, prefix)| {
        let prefix = prefix.expect("every scenario belongs to one group");
        finish_from_prefix(prefix.clone(), scenario)
    })
}

/// Scenarios that differ only in policy and fault plan — exactly what
/// the policy-free prefix is independent of — so they share one warm
/// prefix.
struct WarmGroup {
    /// The members' common config, faults stripped.
    config: SimConfig,
    /// The members' common pre-aging, as bits so it compares exactly.
    pre_age: Option<u64>,
    /// Member scenario indices, ascending.
    members: Vec<usize>,
}

/// Groups `scenarios` by (config minus faults, pre-age), in first-seen
/// order.
fn warm_groups(scenarios: &[Scenario]) -> Vec<WarmGroup> {
    let mut groups: Vec<WarmGroup> = Vec::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        let mut config = scenario.config.clone();
        config.faults = FaultPlan::new();
        let pre_age = scenario.pre_age.map(f64::to_bits);
        match groups
            .iter_mut()
            .find(|g| g.pre_age == pre_age && g.config == config)
        {
            Some(group) => group.members.push(index),
            None => groups.push(WarmGroup {
                config,
                pre_age,
                members: vec![index],
            }),
        }
    }
    groups
}

/// Simulates `group`'s policy-free prefix. The fork point stops before
/// the operating window opens *and* before the earliest fault of any
/// member arms.
fn warm_prefix(group: &WarmGroup, scenarios: &[Scenario]) -> Simulation {
    let dt_secs = group.config.dt.as_secs();
    let mut sim = Simulation::new(group.config.clone()).expect("config validated by builder");
    if let Some(bits) = group.pre_age {
        sim.pre_age_batteries(f64::from_bits(bits));
    }
    let earliest_fault_step = group
        .members
        .iter()
        .flat_map(|&i| scenarios[i].config.faults.faults())
        .map(|s| s.start.as_secs() / dt_secs)
        .min()
        .unwrap_or(u64::MAX);
    let fork = sim.policy_free_prefix_steps().min(earliest_fault_step);
    // Any policy works here — the prefix never consults it.
    sim.run_steps(&mut baat_sim::RoundRobinPolicy::new(), fork)
        .expect("experiment scenarios uphold engine invariants");
    sim
}

/// Arms `scenario`'s fault plan on its group's warm prefix and runs the
/// scenario's own tail.
fn finish_from_prefix(mut sim: Simulation, scenario: Scenario) -> SimReport {
    if !scenario.config.faults.is_empty() {
        sim.install_fault_plan(scenario.config.faults)
            .expect("fork point precedes the earliest fault onset");
    }
    sim.run_remaining(&mut scenario.policy.build(&Obs::disabled()))
        .expect("experiment scenarios uphold engine invariants")
}

/// Order-preserving parallel map over independent jobs.
///
/// Jobs run on a [`baat_exec::ExecPool`] of `threads` workers; the pool
/// hands results back in item order, so the output order (and therefore
/// every downstream table) is independent of scheduling. Runner jobs are
/// whole simulations (seconds each), so a per-call pool spin-up is noise
/// here — unlike the engine's per-step batches, which hold one pool for
/// the run's lifetime.
fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    baat_exec::ExecPool::new(threads).map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_config_is_one_day() {
        let c = day_config(Weather::Cloudy, 1);
        assert_eq!(c.days(), 1);
        assert_eq!(c.dt, EXPERIMENT_DT);
    }

    #[test]
    fn faulted_day_config_carries_a_replayable_plan() {
        let mix = FaultMix::light();
        let a = faulted_day_config(Weather::Cloudy, 9, &mix);
        let b = faulted_day_config(Weather::Cloudy, 9, &mix);
        assert_eq!(a.faults.len(), mix.per_day);
        assert_eq!(a.faults.faults(), b.faults.faults());
        assert_eq!(a.dt, EXPERIMENT_DT);
    }

    #[test]
    fn fault_matrix_pairs_clean_with_faulted() {
        let schemes = [Scheme::EBuff, Scheme::Baat];
        let cells = fault_matrix(&schemes, Weather::Sunny, 11, &FaultMix::heavy());
        assert_eq!(cells.len(), 4);
        for (i, &scheme) in schemes.iter().enumerate() {
            let clean = &cells[2 * i];
            let faulted = &cells[2 * i + 1];
            assert_eq!(clean.policy, scheme.into());
            assert_eq!(faulted.policy, scheme.into());
            assert!(clean.config.faults.is_empty());
            assert!(!faulted.config.faults.is_empty());
            assert_eq!(clean.config.seed, faulted.config.seed);
        }
    }

    #[test]
    fn scenario_run_produces_report() {
        let report = Scenario::new(Scheme::EBuff, day_config(Weather::Sunny, 2)).run();
        assert_eq!(report.policy, "e-Buff");
        assert!(report.total_work > 0.0);
    }

    #[test]
    fn pre_age_flows_through() {
        let report = Scenario::new(Scheme::EBuff, day_config(Weather::Sunny, 2))
            .pre_aged(OLD_BATTERY_DAMAGE)
            .run();
        assert!(report.mean_damage() >= OLD_BATTERY_DAMAGE);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let squares = parallel_map((0..100u64).collect(), 8, |x| x * x);
        assert_eq!(squares, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn scenario_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|i| scenario_seed(2015, i)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn distinct_cells_key_on_policy_config_and_pre_age() {
        let day = Scenario::new(Scheme::EBuff, day_config(Weather::Sunny, 2));
        let scenarios = vec![
            day.clone(),
            Scenario::new(Scheme::Baat, day.config.clone()),
            day.clone(),
            day.clone().pre_aged(OLD_BATTERY_DAMAGE),
            Scenario::new(Scheme::EBuff, day_config(Weather::Sunny, 3)),
            day.clone().pre_aged(OLD_BATTERY_DAMAGE),
        ];
        let (cells, repeats) = distinct_cells(scenarios);
        assert_eq!(cells.len(), 4);
        assert_eq!(repeats, [None, None, Some(0), None, None, Some(3)]);
    }

    #[test]
    fn forked_sweep_matches_from_scratch_on_a_mixed_matrix() {
        // Clean + faulted pairs across two schemes, plus a pre-aged cell
        // from a different group: exercises grouping, fault-plan
        // installation at the fork point, and the pre-age key.
        let mut scenarios = fault_matrix(
            &[Scheme::EBuff, Scheme::Baat],
            Weather::Cloudy,
            17,
            &FaultMix::light(),
        );
        scenarios.push(
            Scenario::new(Scheme::Baat, day_config(Weather::Cloudy, 17))
                .pre_aged(OLD_BATTERY_DAMAGE),
        );
        let from_scratch: Vec<SimReport> =
            scenarios.clone().into_iter().map(Scenario::run).collect();
        let forked = run_scenarios(scenarios, 3);
        assert_eq!(from_scratch, forked);
    }
}
