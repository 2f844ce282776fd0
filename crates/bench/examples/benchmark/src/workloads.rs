//! The four workloads: what one rep runs, untraced and traced.
//!
//! Every workload is a closed-loop batch job of fixed size: one client
//! issues a rep, waits for it to finish, then issues the next. Inputs
//! are a pure function of the seed, so every rep of one run computes the
//! same final state and the benchmark checks that it does.

use std::hint::black_box;
use std::time::{Duration, Instant};

use baat_battery::{AnyBattery, Battery, BatteryModel, BatteryOp};
use baat_bench::experiments::{
    ablations, chem_ablation, fig03_05, fig10, fig12, fig13, fig14, fig15, fig16, fig17, fig18_19,
    fig20, fig21, fig22, table1,
};
use baat_bench::runner::{day_config, fleet_config, scenario_seed};
use baat_core::Scheme;
use baat_sim::{
    fnv1a, li_ion_node_battery, prototype_node_battery, EngineThreads, Policy, SimConfig, SimError,
    SimSnapshot, Simulation,
};
use baat_solar::Weather;
use baat_units::{Celsius, SimDuration, SimInstant, TimeOfDay, Watts};
use baat_workload::WorkloadKind;

use crate::trace::{ControlCounts, TracedPolicy, Tracer};

/// Errors a rep can end in: the engine's, or a failed check.
pub type RepError = Box<dyn std::error::Error>;

/// Runner threads the figure sweeps fan out over (`BAAT_RUNNER_THREADS`).
pub const FIGURE_THREADS: usize = 2;

/// The workload kind the traced run asks the fleet ranker about.
const RANK_PROBE_KIND: WorkloadKind = WorkloadKind::KMeans;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every section the `figures` binary renders.
    PaperFigures,
    /// Four seeded 250-host fleets under BAAT, one full day each.
    FleetBaatDay,
    /// A 5,000-host fleet under e-Buff, midnight to 10:00.
    FleetEbuffMorning,
    /// A 500-host BAAT-h day, checkpointed and resumed every 4 hours.
    CheckpointBaathDay,
}

/// Input sizes: the measured benchmark or the quick smoke check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// 24-host fleets and `--quick` figures: checks the plumbing only.
    Smoke,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFigures,
        Workload::FleetBaatDay,
        Workload::FleetEbuffMorning,
        Workload::CheckpointBaathDay,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper_figures",
            Workload::FleetBaatDay => "fleet_baat_day",
            Workload::FleetEbuffMorning => "fleet_ebuff_morning",
            Workload::CheckpointBaathDay => "checkpoint_baath_day",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fleet this workload simulates; `None` for the figure sweeps.
    pub fn fleet(self, scale: Scale) -> Option<FleetSpec> {
        let hosts = |full| if scale == Scale::Full { full } else { 24 };
        let spec = match self {
            Workload::PaperFigures => return None,
            Workload::FleetBaatDay => FleetSpec {
                hosts: hosts(250),
                replicas: 4,
                scheme: Scheme::Baat,
                end: None,
                threads: 1,
                checkpoint_every_h: None,
            },
            Workload::FleetEbuffMorning => FleetSpec {
                hosts: hosts(5000),
                replicas: 1,
                scheme: Scheme::EBuff,
                end: Some(TimeOfDay::from_hm(10, 0)),
                threads: 2,
                checkpoint_every_h: None,
            },
            Workload::CheckpointBaathDay => FleetSpec {
                hosts: hosts(500),
                replicas: 1,
                scheme: Scheme::BaatH,
                end: None,
                threads: 1,
                checkpoint_every_h: Some(4),
            },
        };
        Some(spec)
    }

    /// Threads the workload runs at: runner threads for the figures,
    /// engine threads for a fleet.
    pub fn threads(self) -> usize {
        self.fleet(Scale::Full)
            .map_or(FIGURE_THREADS, |f| f.threads)
    }
}

/// What a fleet workload simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Hosts per fleet.
    pub hosts: usize,
    /// Fleets per rep, seeded from the run seed (replica 0 uses it as is).
    pub replicas: usize,
    /// The policy.
    pub scheme: Scheme,
    /// Time of day the run stops at; `None` runs the whole day.
    pub end: Option<TimeOfDay>,
    /// Engine threads.
    pub threads: usize,
    /// Checkpoint-and-resume period in simulated hours, if any.
    pub checkpoint_every_h: Option<u64>,
}

impl FleetSpec {
    /// The configuration of replica `r` for run seed `seed`.
    pub fn config(&self, seed: u64, r: usize) -> SimConfig {
        let seed = if r == 0 { seed } else { scenario_seed(seed, r) };
        let mut config = fleet_config(self.hosts, Weather::Cloudy, seed);
        config.threads = EngineThreads::new(self.threads);
        config
    }

    /// Steps one replica runs.
    pub fn steps(&self, sim: &Simulation) -> u64 {
        match self.end {
            Some(end) => u64::from(end.as_secs()) / sim.config().dt.as_secs(),
            None => sim.total_steps(),
        }
    }

    /// Steps between checkpoints, if the spec takes them.
    pub fn checkpoint_steps(&self, config: &SimConfig) -> Option<u64> {
        self.checkpoint_every_h
            .map(|h| h * 3600 / config.dt.as_secs())
    }
}

/// What one rep measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOut {
    /// Host seconds, excluding the benchmark's own state hashing.
    pub wall_s: f64,
    /// Hash of the final simulated state (or of the rendered figures).
    pub hash: u64,
    /// Nodes × steps simulated.
    pub node_steps: u64,
    /// Σ snapshot capture + encode.
    pub checkpoint_s: f64,
    /// Σ decode + restore.
    pub resume_s: f64,
    /// Size of the last checkpoint written.
    pub checkpoint_bytes: u64,
}

const POLICY_STATE_LOST: &str = "checkpoint resumed without the policy's state";

/// Folds per-replica state hashes into one rep hash.
fn combine(hashes: &[u64]) -> u64 {
    match hashes {
        [one] => *one,
        many => {
            let bytes: Vec<u8> = many.iter().flat_map(|h| h.to_le_bytes()).collect();
            fnv1a(&bytes)
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One untraced rep of a fleet workload.
///
/// # Errors
///
/// Any [`SimError`] from the engine or the snapshot codec, or a
/// checkpoint that lost the policy's state.
pub fn fleet_rep(spec: &FleetSpec, seed: u64) -> Result<RepOut, RepError> {
    let mut out = RepOut::default();
    let mut hashes = Vec::with_capacity(spec.replicas);
    for r in 0..spec.replicas {
        let config = spec.config(seed, r);
        let started = Instant::now();
        let mut sim = Simulation::new(config.clone())?;
        let mut policy = spec.scheme.build();
        let steps = spec.steps(&sim);
        let every = spec.checkpoint_steps(&config).unwrap_or(u64::MAX);
        while sim.step_index() < steps {
            let burst = every.min(steps - sim.step_index());
            sim.run_steps(&mut policy, burst)?;
            if spec.checkpoint_every_h.is_none() {
                continue;
            }
            let t = Instant::now();
            let bytes = sim.snapshot_with_policy(&policy).to_bytes();
            out.checkpoint_s += secs(t.elapsed());
            let t = Instant::now();
            let snapshot = SimSnapshot::from_bytes(&bytes)?;
            sim = Simulation::restore(config.clone(), &snapshot)?;
            policy = spec.scheme.build();
            if !snapshot.apply_policy_state(&mut policy) {
                return Err(POLICY_STATE_LOST.into());
            }
            out.resume_s += secs(t.elapsed());
            out.checkpoint_bytes = bytes.len() as u64;
        }
        let stepped = started.elapsed();
        let end_state = sim.snapshot();
        let t = Instant::now();
        drop(black_box(sim.into_report(policy.name())?));
        out.wall_s += secs(stepped + t.elapsed());
        hashes.push(end_state.state_hash());
        out.node_steps += steps * spec.hosts as u64;
    }
    out.hash = combine(&hashes);
    Ok(out)
}

/// Options of a traced fleet pass.
#[derive(Debug, Clone, Copy)]
pub struct PassOpts {
    /// Engine threads.
    pub threads: usize,
    /// Probe `build_view` and `placement_rank` after every control step.
    pub probes: bool,
    /// Checkpoint and resume at the workload's period (or, for workloads
    /// without one, once at the midpoint).
    pub checkpoints: bool,
}

/// What a traced pass measured besides its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOut {
    /// Host seconds, excluding the benchmark's own state hashing.
    pub wall_s: f64,
    /// Final state hash (combined over replicas).
    pub hash: u64,
    /// Control-call counters.
    pub counts: ControlCounts,
    /// Size of the last checkpoint taken.
    pub checkpoint_bytes: u64,
    /// Simulated node-hours covered by that checkpoint.
    pub checkpoint_node_hours: u64,
}

/// A traced pass over a fleet workload (or over any single-config
/// simulation, for the figures' prototype-day probe): spans around every
/// step, the wrapped policy's control calls, optional probes, snapshots
/// and the report.
///
/// # Errors
///
/// As [`fleet_rep`].
pub fn fleet_traced(
    configs: &[SimConfig],
    scheme: Scheme,
    steps_of: impl Fn(&Simulation) -> u64,
    checkpoint_steps: Option<u64>,
    opts: PassOpts,
    tracer: &mut Tracer,
) -> Result<PassOut, RepError> {
    let mut out = PassOut::default();
    let mut hashes = Vec::with_capacity(configs.len());
    let mut hashing = Duration::ZERO;
    let started = Instant::now();
    for config in configs {
        let mut config = config.clone();
        config.threads = EngineThreads::new(opts.threads);
        let mut policy = TracedPolicy::new(scheme.build(), tracer);
        let new = policy.tracer.open("sim.new");
        let mut sim = Simulation::new(config.clone())?;
        policy.tracer.close(new);
        let steps = steps_of(&sim);
        // Workloads without a checkpoint period resume once, halfway, so
        // the traced run also proves resume equivalence.
        let checkpoint_at = |i: u64| match (opts.checkpoints, checkpoint_steps) {
            (false, _) => false,
            (true, Some(every)) => i.is_multiple_of(every),
            (true, None) => i == steps / 2,
        };
        let (day_start, day_end) = (config.day_start, config.day_end);
        while sim.step_index() < steps {
            let in_window = sim.now().time_of_day().is_between(day_start, day_end);
            policy.controlled = false;
            let step = policy.tracer.open(if in_window {
                "sim.step.window"
            } else {
                "sim.step.night"
            });
            sim.step(&mut policy)?;
            policy.tracer.close(step);
            if opts.probes && policy.controlled {
                let id = policy.tracer.open("sim.view");
                black_box(sim.build_view()?);
                policy.tracer.close(id);
                let spec = policy.placement_spec();
                let id = policy.tracer.open("sim.fleet.rank");
                black_box(sim.placement_rank(spec, RANK_PROBE_KIND)?);
                policy.tracer.close(id);
            }
            if checkpoint_at(sim.step_index()) {
                let bytes = checkpoint_resume(&mut sim, &mut policy, &config, scheme)?;
                out.checkpoint_bytes = bytes;
                out.checkpoint_node_hours = sim.now().as_secs() / 3600 * config.nodes as u64;
            }
        }
        let t = Instant::now();
        let end_state = sim.snapshot();
        hashing += t.elapsed();
        let report = policy.tracer.open("sim.report");
        drop(black_box(sim.into_report(policy.name())?));
        policy.tracer.close(report);
        let t = Instant::now();
        hashes.push(end_state.state_hash());
        drop(end_state);
        hashing += t.elapsed();
        add_counts(&mut out.counts, policy.counts);
    }
    out.wall_s = secs(started.elapsed().saturating_sub(hashing));
    out.hash = combine(&hashes);
    Ok(out)
}

fn add_counts(total: &mut ControlCounts, c: ControlCounts) {
    total.calls += c.calls;
    total.actions += c.actions;
    total.outcomes += c.outcomes;
    total.rejected += c.rejected;
}

/// Checkpoints `sim` to bytes and replaces it (and the policy's state)
/// with the copy restored from them. Returns the checkpoint's size.
fn checkpoint_resume(
    sim: &mut Simulation,
    policy: &mut TracedPolicy<'_, Box<dyn Policy>>,
    config: &SimConfig,
    scheme: Scheme,
) -> Result<u64, RepError> {
    let t = &mut *policy.tracer;
    let id = t.open("snapshot.capture");
    let snapshot = sim.snapshot_with_policy(&policy.inner);
    t.close(id);
    let id = t.open("snapshot.encode");
    let bytes = snapshot.to_bytes();
    t.close(id);
    drop(snapshot);
    let id = t.open("snapshot.decode");
    let snapshot = SimSnapshot::from_bytes(&bytes)?;
    t.close(id);
    let id = t.open("snapshot.restore");
    *sim = Simulation::restore(config.clone(), &snapshot)?;
    policy.inner = scheme.build();
    let applied = snapshot.apply_policy_state(&mut policy.inner);
    t.close(id);
    if !applied {
        return Err(POLICY_STATE_LOST.into());
    }
    Ok(bytes.len() as u64)
}

/// One figure section: its span name, title and renderer.
type Section = (&'static str, &'static str, fn(u64, Scale) -> String);

/// Every section the `figures` binary prints, in its order, with the
/// same parameters (`--quick` ones under [`Scale::Smoke`]). The span
/// name is the experiment module; both Fig 3–5 runs share one.
const SECTIONS: [Section; 16] = [
    (
        "bench.fig03_05",
        "Figs 3–5 — measured battery degradation",
        |_, s| {
            fig03_05::render(&if s == Scale::Smoke {
                fig03_05::run(2, 10)
            } else {
                fig03_05::run_paper()
            })
        },
    ),
    (
        "bench.fig03_05",
        "Figs 3–5 (li-ion) — the same protocol on an LFP unit",
        |_, s| {
            let chem = baat_battery::Chemistry::LiIon;
            fig03_05::render(&if s == Scale::Smoke {
                fig03_05::run_chemistry(chem, 2, 10)
            } else {
                fig03_05::run_chemistry(chem, 6, 30)
            })
        },
    ),
    (
        "bench.fig10",
        "Fig 10 — cycle life vs depth of discharge",
        |_, _| fig10::render(&fig10::run_paper()),
    ),
    (
        "bench.fig12",
        "Fig 12 — runtime profiling by weather",
        |seed, s| {
            let mut body = fig12::render(&fig12::run(seed));
            if s == Scale::Full {
                body.push_str(&fig12::render_trajectories(seed, 0.0015));
            }
            body
        },
    ),
    (
        "bench.fig13",
        "Fig 13 — aging-metric comparison of the four schemes",
        |seed, _| fig13::render(&fig13::run(seed)),
    ),
    (
        "bench.fig14",
        "Fig 14 — lifetime vs solar availability",
        |seed, s| {
            fig14::render(&if s == Scale::Smoke {
                fig14::run(&[0.45, 0.75], 4, seed)
            } else {
                fig14::run_paper(seed)
            })
        },
    ),
    (
        "bench.fig15",
        "Fig 15 — lifetime vs server-to-battery ratio",
        |seed, s| {
            fig15::render(&if s == Scale::Smoke {
                fig15::run(&[2.0, 6.0, 10.0], 3, seed)
            } else {
                fig15::run_paper(seed)
            })
        },
    ),
    (
        "bench.fig16",
        "Fig 16 — annual depreciation cost",
        |seed, s| {
            fig16::render(&if s == Scale::Smoke {
                fig16::run(&[0.3, 0.5], 3, seed)
            } else {
                fig16::run_paper(seed)
            })
        },
    ),
    (
        "bench.fig17",
        "Fig 17 — servers addable without raising TCO",
        |seed, s| {
            fig17::render(&if s == Scale::Smoke {
                fig17::run(&[0.45, 0.85], 3, seed)
            } else {
                fig17::run_paper(seed)
            })
        },
    ),
    (
        "bench.fig18_19",
        "Figs 18–19 — low-SoC exposure and SoC distribution",
        |seed, s| {
            fig18_19::render(&if s == Scale::Smoke {
                fig18_19::run(6, seed)
            } else {
                fig18_19::run_paper(seed)
            })
        },
    ),
    (
        "bench.fig20",
        "Fig 20 — compute throughput of the four schemes",
        |seed, _| fig20::render(&fig20::run_paper(seed)),
    ),
    (
        "bench.fig21",
        "Fig 21 — performance vs planned DoD",
        |seed, s| {
            fig21::render(&if s == Scale::Smoke {
                fig21::run(&[0.4, 0.6, 0.9], 2, seed)
            } else {
                fig21::run_paper(seed)
            })
        },
    ),
    (
        "bench.fig22",
        "Fig 22 — planned-aging benefit vs service horizon",
        |seed, s| {
            fig22::render(&if s == Scale::Smoke {
                fig22::run(&[300.0, 900.0, 2700.0], 2, seed)
            } else {
                fig22::run_paper(seed)
            })
        },
    ),
    (
        "bench.table1",
        "Table 1 — battery usage scenarios",
        |seed, s| table1::render(&table1::run(if s == Scale::Smoke { 7 } else { 30 }, seed)),
    ),
    (
        "bench.ablations",
        "Ablations — reproduction design choices",
        |seed, _| ablations::render(seed),
    ),
    (
        "bench.chem_ablation",
        "Chemistry ablation — lead-acid vs li-ion banks",
        |seed, s| {
            chem_ablation::render(&if s == Scale::Smoke {
                chem_ablation::run(vec![Weather::Cloudy], seed)
            } else {
                chem_ablation::run_paper(seed)
            })
        },
    ),
];

/// The distinct experiment span names, in section order.
pub fn figure_modules() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = SECTIONS.iter().map(|s| s.0).collect();
    names.dedup();
    names
}

/// Renders every figure section into the text the `figures` binary
/// prints, opening one span per section when `tracer` is given. The
/// figure sweeps fan out over `threads` runner threads.
pub fn figures_text(
    seed: u64,
    scale: Scale,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
) -> String {
    // The runner reads its thread count from the environment on every
    // sweep; nothing else runs while it is changed.
    std::env::set_var("BAAT_RUNNER_THREADS", threads.to_string());
    let params = if scale == Scale::Smoke {
        "quick"
    } else {
        "full"
    };
    let mut text = format!(
        "# BAAT reproduction — regenerated figures\n\n\
         Seed {seed}; {params} parameters. Paper targets quoted inline.\n\n"
    );
    for (span, title, render) in SECTIONS {
        let body = match tracer.as_deref_mut() {
            Some(t) => t.span(span, || render(seed, scale)),
            None => render(seed, scale),
        };
        text.push_str(&format!("## {title}\n\n{body}\n"));
    }
    text
}

/// One untraced rep of the figure workload.
pub fn figures_rep(seed: u64, scale: Scale) -> RepOut {
    let started = Instant::now();
    let text = figures_text(seed, scale, FIGURE_THREADS, None);
    let wall_s = secs(started.elapsed());
    RepOut {
        wall_s,
        hash: fnv1a(text.as_bytes()),
        ..RepOut::default()
    }
}

/// Host seconds of `n` constructions of the workload's configuration
/// (replica 0 of a fleet, the [`prototype_day`] for the figures): its
/// set-up time. The first construction after a rep faults its memory
/// back in from the system and can be ten times slower, so it goes
/// untimed.
///
/// # Errors
///
/// A [`SimError`] if the configuration is rejected.
pub fn setup_s(w: Workload, scale: Scale, seed: u64, n: usize) -> Result<Vec<f64>, SimError> {
    let config = match w.fleet(scale) {
        Some(spec) => spec.config(seed, 0),
        None => prototype_day(seed),
    };
    let mut times = Vec::with_capacity(n);
    for i in 0..=n {
        let config = config.clone();
        let started = Instant::now();
        let sim = Simulation::new(config)?;
        let took = secs(started.elapsed());
        drop(black_box(sim));
        if i > 0 {
            times.push(took);
        }
    }
    Ok(times)
}

/// The 6-node prototype day every figure starts from. The figure
/// workload times its set-up on it, and its traced run probes the
/// engine layers on it under BAAT.
pub fn prototype_day(seed: u64) -> SimConfig {
    day_config(Weather::Cloudy, seed)
}

/// State hash of an untraced, straight run of `config` under `scheme`.
///
/// # Errors
///
/// Any [`SimError`] from the engine.
pub fn straight_hash(config: SimConfig, scheme: Scheme) -> Result<u64, SimError> {
    let mut sim = Simulation::new(config)?;
    let steps = sim.total_steps();
    sim.run_steps(&mut scheme.build(), steps)?;
    Ok(sim.state_hash())
}

/// `try_step` calls per battery-kernel measurement.
pub const BATTERY_CALLS: u64 = 1_000_000;

/// Nanoseconds per `try_step` over [`BATTERY_CALLS`] calls of a fixed
/// cycle at dt = 30 s: one hour discharging at 150 W, one hour charging
/// at 150 W. Lead-acid steps the concrete [`Battery`]; li-ion steps
/// through [`AnyBattery`], the engine's dispatch.
pub fn battery_step_ns(li_ion: bool) -> f64 {
    fn drive(mut step: impl FnMut(BatteryOp, SimInstant)) -> f64 {
        const HALF_CYCLE: u64 = 120;
        let started = Instant::now();
        for i in 0..BATTERY_CALLS {
            let power = Watts::new(150.0);
            let op = if (i / HALF_CYCLE).is_multiple_of(2) {
                BatteryOp::Discharge(power)
            } else {
                BatteryOp::Charge(power)
            };
            step(black_box(op), SimInstant::from_secs(i * 30));
        }
        started.elapsed().as_nanos() as f64 / BATTERY_CALLS as f64
    }
    let (dt, ambient) = (SimDuration::from_secs(30), Celsius::new(25.0));
    if li_ion {
        let mut b = AnyBattery::new(li_ion_node_battery());
        drive(|op, now| {
            black_box(b.try_step(op, ambient, now, dt).expect("finite power"));
        })
    } else {
        let mut b = Battery::new(prototype_node_battery());
        drive(|op, now| {
            black_box(b.try_step(op, ambient, now, dt).expect("finite power"));
        })
    }
}
