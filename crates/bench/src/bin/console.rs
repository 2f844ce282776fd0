//! The management console: the reproduction's answer to the prototype's
//! "software management console built from scratch" (§V.A display
//! module). Runs one configurable scenario and prints the run summary,
//! the per-battery aging table, and an event digest; optionally dumps
//! the trace as CSV for plotting.
//!
//! ```text
//! cargo run --release -p baat-bench --bin console -- \
//!     --scheme baat --weather cloudy,rainy --seed 7 --old \
//!     --topology shared:2 --faults light --csv trace.csv --jsonl obs/
//! ```
//!
//! Subcommands (first positional argument):
//!
//! * `watch` — run the scenario live, re-rendering a per-node table of
//!   SoC, power, aging and health-check state every `--every N`
//!   simulated minutes (default 30);
//! * `diff A.jsonl B.jsonl` — compare two JSONL exports: first
//!   divergence plus per-metric deltas; exits 1 when they differ;
//! * `trace-check spans.jsonl` — validate a span export against the
//!   trace schema (sequential ids, backward-pointing parents, ordered
//!   timestamps); exits 1 on any violation;
//! * `checkpoint --dir DIR [--every STEPS]` — run the scenario writing a
//!   versioned, policy-inclusive snapshot (`step-NNNNNNNN.snap`) every N
//!   steps, plus `run.jsonl` metadata (written before the run starts, so
//!   a killed process leaves a resumable directory) and the final
//!   `events.jsonl` / `trace.jsonl` / `result.jsonl` artifacts;
//! * `resume DIR/step-NNNNNNNN.snap` — rebuild the configuration from
//!   the sibling `run.jsonl`, restore engine and policy state from the
//!   snapshot, finish the run, and rewrite the artifacts —
//!   byte-identical to never having stopped;
//! * `replay --dir DIR (--to STEP | --event INDEX)` — restore the
//!   nearest checkpoint at or before the target, re-step to it, and
//!   print the state hash (equal to a full run paused there);
//!   `--event INDEX` targets the first state containing the INDEX-th
//!   line of the recorded `events.jsonl`.
//!
//! `--jsonl DIR` runs with observation enabled and dumps the structured
//! exports — `run.jsonl` (run metadata: chemistry, scheme, seed, …),
//! `events.jsonl`, `trace.jsonl`, `metrics.jsonl`, `profile.jsonl`,
//! `spans.jsonl`, `health.jsonl`, `flight.jsonl`, and the OpenMetrics
//! snapshot `metrics.om` — into `DIR`. The run itself is bit-identical
//! either way.
//!
//! `--chemistry lead-acid|li-ion` swaps every node battery for the
//! chosen chemistry's prototype spec (default: the paper's lead-acid).
//! It composes with `--fleet` and `--faults`, is recorded in
//! `run.jsonl`, and — only when passed explicitly — registers a
//! `run.chemistry` gauge in the metric exports, so default runs keep
//! their metric set byte-identical. `console diff` reads each export's
//! sibling `run.jsonl` and labels cross-chemistry comparisons.
//!
//! `--faults light|heavy[:SEED]` layers a seeded deterministic fault
//! plan over the run (one plan per simulated day, generated for the
//! chosen topology). The plan seed defaults to `--seed`, so the same
//! command line always replays the same outages.
//!
//! `--fleet N` scales the scenario to an `N`-host fleet: proportional
//! PV, one service per host plus nine batch jobs per host per day, and
//! throttled trace recording. `console --fleet 1000 --seed 7` is a
//! deterministic 1000-host day.
//!
//! `--threads N` shards the engine's per-bank stages across `N` worker
//! threads (see `DESIGN.md` §13). Results are bit-identical at any
//! count, so the flag is a pure speed knob: it is not recorded in
//! `run.jsonl`, and checkpoints move freely between thread counts.
//! `console --fleet 1000 --threads 8` is the fast 1000-host day.
//!
//! `serve [--port P] [--linger]` runs the scenario with a live scrape
//! endpoint (`/metrics` OpenMetrics, `/healthz`, `/run` metadata) bound
//! to `127.0.0.1:P` (0 = ephemeral; the bound address is printed before
//! the run starts). With `--linger` the endpoint keeps serving the
//! final snapshot after the run completes until a client issues
//! `GET /quit` — the handshake CI's scrape smoke uses. See DESIGN.md
//! §14 for the endpoint contract.

use std::io::IsTerminal;
use std::path::{Path, PathBuf};

use baat_battery::Chemistry;
use baat_bench::{diff, jsonq, registry, trace_schema, watch};
use baat_core::Scheme;
use baat_obs::json::JsonLine;
use baat_obs::{MetricsServer, Obs, SampleValue};
use baat_sim::{
    BatteryTopology, ChemistrySpec, Event, FaultMix, FaultPlan, SimConfig, SimSnapshot, Simulation,
};
use baat_solar::Weather;
use baat_units::SimDuration;

struct Args {
    command: Command,
    scheme: Scheme,
    plan: Vec<Weather>,
    seed: u64,
    old: bool,
    topology: BatteryTopology,
    chemistry: Option<Chemistry>,
    fleet: Option<usize>,
    faults: Option<(FaultMix, Option<u64>)>,
    csv: Option<String>,
    jsonl: Option<String>,
    profile: bool,
    /// `--threads`: engine worker threads for intra-step sharding.
    /// Results are bit-identical at any count, so this is a pure
    /// speed knob and is deliberately absent from `run.jsonl`.
    threads: usize,
    /// `--every`: simulated minutes per frame for `watch`, steps per
    /// snapshot for `checkpoint` (each defaults separately when unset).
    every: Option<u64>,
    /// `--dir`: checkpoint directory for `checkpoint` / `replay`.
    dir: Option<String>,
    /// `replay --to STEP`: the target step index.
    replay_to: Option<u64>,
    /// `replay --event INDEX`: land just after the INDEX-th recorded
    /// event instead of an explicit step.
    replay_event: Option<usize>,
    /// `serve --port P`: scrape-endpoint port (0 = ephemeral).
    port: u16,
    /// `serve --linger`: keep serving the final snapshot after the run
    /// until a client requests `/quit`.
    linger: bool,
    /// `perf-trend --baseline FILE`: committed BENCH_N.json to gate
    /// against (defaults to the bench crate's committed baseline).
    trend_baseline: Option<String>,
    /// `perf-trend --history FILE`: run-registry history file
    /// (defaults to `PERF_HISTORY.jsonl`).
    trend_history: Option<String>,
    /// `perf-trend --report FILE`: the fresh perf report to judge
    /// (defaults to the latest history entry).
    trend_report: Option<String>,
}

impl Args {
    /// The effective chemistry: the `--chemistry` flag, defaulting to
    /// the paper's lead-acid prototype.
    fn chemistry(&self) -> Chemistry {
        self.chemistry.unwrap_or_default()
    }
}

enum Command {
    Run,
    Watch,
    Serve,
    Diff(String, String),
    TraceCheck(String),
    Checkpoint,
    Resume(String),
    Replay,
    PerfTrend,
}

fn usage() -> ! {
    eprintln!(
        "usage: console [watch|checkpoint] [--scheme e-buff|baat-s|baat-h|baat] \
         [--weather sunny,cloudy,rainy] [--seed N] [--old] \
         [--topology per-server|shared:K] [--chemistry lead-acid|li-ion] \
         [--fleet N] [--faults light|heavy[:SEED]] \
         [--csv PATH] [--jsonl DIR] [--profile] [--threads N] \
         [--every N] [--dir DIR]\n\
         \x20      console serve [--port P] [--linger] [scenario flags]\n\
         \x20      console diff A.jsonl B.jsonl\n\
         \x20      console trace-check spans.jsonl|metrics.om\n\
         \x20      console checkpoint --dir DIR [--every STEPS] [scenario flags]\n\
         \x20      console resume DIR/step-NNNNNNNN.snap\n\
         \x20      console replay --dir DIR (--to STEP | --event INDEX)\n\
         \x20      console perf-trend [--baseline FILE] [--history FILE] [--report FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        command: Command::Run,
        scheme: Scheme::Baat,
        plan: vec![Weather::Cloudy],
        seed: 42,
        old: false,
        topology: BatteryTopology::PerServer,
        chemistry: None,
        fleet: None,
        faults: None,
        csv: None,
        jsonl: None,
        profile: false,
        threads: 1,
        every: None,
        dir: None,
        replay_to: None,
        replay_event: None,
        port: 0,
        linger: false,
        trend_baseline: None,
        trend_history: None,
        trend_report: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("watch") => {
            args.command = Command::Watch;
            it.next();
        }
        Some("serve") => {
            args.command = Command::Serve;
            it.next();
        }
        Some("perf-trend") => {
            args.command = Command::PerfTrend;
            it.next();
        }
        Some("checkpoint") => {
            args.command = Command::Checkpoint;
            it.next();
        }
        Some("replay") => {
            args.command = Command::Replay;
            it.next();
        }
        Some("resume") => {
            it.next();
            let file = it.next().unwrap_or_else(|| usage());
            if it.next().is_some() {
                usage();
            }
            args.command = Command::Resume(file);
            return args;
        }
        Some("diff") => {
            it.next();
            let a = it.next().unwrap_or_else(|| usage());
            let b = it.next().unwrap_or_else(|| usage());
            if it.next().is_some() {
                usage();
            }
            args.command = Command::Diff(a, b);
            return args;
        }
        Some("trace-check") => {
            it.next();
            let file = it.next().unwrap_or_else(|| usage());
            if it.next().is_some() {
                usage();
            }
            args.command = Command::TraceCheck(file);
            return args;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scheme" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.scheme = match v.to_lowercase().as_str() {
                    "e-buff" | "ebuff" => Scheme::EBuff,
                    "baat-s" | "baats" => Scheme::BaatS,
                    "baat-h" | "baath" => Scheme::BaatH,
                    "baat" => Scheme::Baat,
                    _ => usage(),
                };
            }
            "--weather" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.plan = v
                    .split(',')
                    .map(|w| match w.to_lowercase().as_str() {
                        "sunny" => Weather::Sunny,
                        "cloudy" => Weather::Cloudy,
                        "rainy" => Weather::Rainy,
                        _ => usage(),
                    })
                    .collect();
                if args.plan.is_empty() {
                    usage();
                }
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--old" => args.old = true,
            "--topology" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.topology = if v == "per-server" {
                    BatteryTopology::PerServer
                } else if let Some(k) = v.strip_prefix("shared:") {
                    BatteryTopology::SharedPool {
                        pools: k.parse().unwrap_or_else(|_| usage()),
                    }
                } else {
                    usage()
                };
            }
            "--chemistry" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.chemistry =
                    Some(Chemistry::parse(&v.to_lowercase()).unwrap_or_else(|| usage()));
            }
            "--fleet" => {
                args.fleet = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--faults" => {
                let v = it.next().unwrap_or_else(|| usage());
                let (mix, plan_seed) = match v.split_once(':') {
                    Some((m, s)) => (m, Some(s.parse().unwrap_or_else(|_| usage()))),
                    None => (v.as_str(), None),
                };
                let mix = FaultMix::parse(mix).unwrap_or_else(|| usage());
                args.faults = Some((mix, plan_seed));
            }
            "--csv" => args.csv = Some(it.next().unwrap_or_else(|| usage())),
            "--jsonl" => args.jsonl = Some(it.next().unwrap_or_else(|| usage())),
            "--profile" => args.profile = true,
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t > 0)
                    .unwrap_or_else(|| usage());
            }
            "--every" => {
                args.every = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&m| m > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--dir" => args.dir = Some(it.next().unwrap_or_else(|| usage())),
            "--to" => {
                args.replay_to = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--event" => {
                args.replay_event = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--port" => {
                args.port = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--linger" => args.linger = true,
            "--baseline" => args.trend_baseline = Some(it.next().unwrap_or_else(|| usage())),
            "--history" => args.trend_history = Some(it.next().unwrap_or_else(|| usage())),
            "--report" => args.trend_report = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    args
}

/// `console diff A B`: renders first divergence + metric deltas, exits 1
/// when the documents differ. When both sides carry `run.jsonl`
/// metadata, the comparison is labelled with each run's chemistry so
/// cross-chemistry diffs are not mistaken for regressions.
fn run_diff(a: &str, b: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut doc_a = std::fs::read_to_string(a)?;
    let mut doc_b = std::fs::read_to_string(b)?;
    if let Some(banner) = diff::chemistry_banner(Path::new(a), Path::new(b)) {
        println!("{banner}");
    }
    // Perf reports compare through the normalized row shape, so two
    // reports diff row by row instead of on their pretty-printed
    // envelopes. Anything else, older perf schemas included, diffs as
    // plain documents.
    if let (Some(na), Some(nb)) = (
        baat_bench::perf::normalized_lines(&doc_a),
        baat_bench::perf::normalized_lines(&doc_b),
    ) {
        println!(
            "perf reports (schema v{} vs v{}) — comparing normalized rows",
            baat_bench::perf::schema_version(&doc_a).unwrap_or(0),
            baat_bench::perf::schema_version(&doc_b).unwrap_or(0),
        );
        doc_a = na.join("\n");
        doc_b = nb.join("\n");
    }
    let report = diff::diff_runs(&doc_a, &doc_b);
    print!("{}", report.render());
    if !report.identical() {
        std::process::exit(1);
    }
    Ok(())
}

/// `console trace-check FILE`: validates a span export (`*.jsonl`) or
/// an OpenMetrics exposition (`*.om`, e.g. a `/metrics` scrape body),
/// exits 1 on any schema violation.
fn run_trace_check(file: &str) -> Result<(), Box<dyn std::error::Error>> {
    let doc = std::fs::read_to_string(file)?;
    let openmetrics = file.ends_with(".om");
    let violations = if openmetrics {
        trace_schema::validate_openmetrics(&doc)
    } else {
        trace_schema::validate_trace(&doc)
    };
    if violations.is_empty() {
        if openmetrics {
            let families = doc.lines().filter(|l| l.starts_with("# TYPE ")).count();
            println!("openmetrics ok ({families} metric families)");
        } else {
            println!("trace ok ({} spans)", doc.lines().count());
        }
        Ok(())
    } else {
        for v in &violations {
            eprintln!("trace-check: {v}");
        }
        std::process::exit(1);
    }
}

/// `console perf-trend`: joins the committed perf baseline, the run
/// registry history, and the latest measurement into a per-benchmark
/// trend table, then re-applies the regression gate (exit 1 on any
/// failure). The latest measurement defaults to the newest history
/// entry; `--report FILE` judges a fresh `BAAT_PERF_OUT` report
/// instead.
fn run_perf_trend(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let baseline_path = args
        .trend_baseline
        .clone()
        .unwrap_or_else(|| baat_bench::perf::BASELINE_FILE.to_owned());
    let history_path = args
        .trend_history
        .clone()
        .unwrap_or_else(|| registry::HISTORY_FILE.to_owned());
    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("read baseline {baseline_path}: {e}"))?;
    let history = std::fs::read_to_string(&history_path)
        .map_err(|e| format!("read history {history_path}: {e}"))?;
    let (latest, source) = match &args.trend_report {
        Some(path) => {
            let doc =
                std::fs::read_to_string(path).map_err(|e| format!("read report {path}: {e}"))?;
            let records = registry::report_benchmarks(&doc);
            if records.is_empty() {
                return Err(format!("{path}: not a perf report").into());
            }
            (records, format!("report {path}"))
        }
        None => {
            let runs = registry::parse_history(&history);
            let last = runs
                .last()
                .ok_or_else(|| format!("{history_path}: no runs registered"))?;
            (
                last.benchmarks.clone(),
                format!("history run {} ({})", last.run, last.label),
            )
        }
    };
    let trend = registry::trend(&baseline, &history, &latest);
    println!("perf trend — latest: {source}, baseline: {baseline_path}");
    print!("{}", trend.render());
    if trend.failures.is_empty() {
        println!(
            "gate ok ({} benchmarks within {}% of the baseline)",
            trend.rows.len(),
            baat_bench::perf::TOLERANCE_PCT
        );
        Ok(())
    } else {
        for f in &trend.failures {
            eprintln!("perf-trend: {f}");
        }
        std::process::exit(1);
    }
}

/// `console watch`: runs the scenario with observation on, re-rendering
/// the per-node health frame every `--every` simulated minutes.
fn run_watch(args: &Args, config: SimConfig) -> Result<(), Box<dyn std::error::Error>> {
    let obs = Obs::enabled();
    let dt = config.dt.as_secs();
    let total_steps = config.days() as u64 * 86_400 / dt;
    let mut sim = Simulation::with_obs(config, obs.clone())?;
    if args.old {
        sim.pre_age_batteries(0.55);
    }
    let mut policy = args.scheme.build_observed(&obs);
    let frame_steps = (args.every.unwrap_or(30) * 60 / dt).max(1);
    let clear = std::io::stdout().is_terminal();
    let mut done = 0u64;
    while done < total_steps {
        let n = frame_steps.min(total_steps - done);
        sim.run_steps(&mut policy, n)?;
        done += n;
        if clear {
            // Clear the terminal and re-home the cursor between frames.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", watch::render_frame(&sim)?);
        if !clear {
            println!();
        }
    }
    let name = policy.name();
    let report = sim.into_report(name)?;
    println!(
        "done: scheme {} | {} day(s) | work {:.1} core-h | unserved {}",
        report.policy, report.days, report.total_work, report.unserved_energy,
    );
    Ok(())
}

/// Everything that determines a console scenario's [`SimConfig`] and
/// policy — the run identity that checkpoint metadata must round-trip
/// so `resume` and `replay` can rebuild the exact configuration in a
/// fresh process.
struct RunSpec {
    scheme: Scheme,
    plan: Vec<Weather>,
    seed: u64,
    old: bool,
    topology: BatteryTopology,
    /// `Some` only when `--chemistry` was passed explicitly, mirroring
    /// the run path (an explicit spec and the default build the same
    /// batteries, but the config must match byte-for-byte for the
    /// snapshot's config hash to verify).
    chemistry: Option<Chemistry>,
    fleet: Option<usize>,
    /// Fault mix and the resolved plan seed.
    faults: Option<(FaultMix, u64)>,
    /// Engine worker threads. Not part of run identity (results are
    /// bit-identical at any count), so `from_metadata` restores checked
    /// runs at 1 and `--threads` only accelerates live runs.
    threads: usize,
}

impl RunSpec {
    fn from_args(args: &Args) -> Self {
        Self {
            scheme: args.scheme,
            plan: args.plan.clone(),
            seed: args.seed,
            old: args.old,
            topology: args.topology,
            chemistry: args.chemistry,
            fleet: args.fleet,
            faults: args
                .faults
                .as_ref()
                .map(|(mix, plan_seed)| (*mix, plan_seed.unwrap_or(args.seed))),
            threads: args.threads,
        }
    }

    /// Builds the scenario configuration exactly as a `console run`
    /// with the equivalent flags would.
    fn build_config(&self) -> Result<SimConfig, baat_sim::SimError> {
        let mut builder = SimConfig::builder();
        builder
            .weather_plan(self.plan.clone())
            .dt(SimDuration::from_secs(30))
            .sample_every(10)
            .topology(self.topology)
            .seed(self.seed)
            .threads(self.threads);
        if let Some(n) = self.fleet {
            // Applied after the defaults above so the fleet profile's
            // node count, PV sizing, workload and trace throttling win.
            builder.fleet(n);
        }
        if let Some(chemistry) = self.chemistry {
            // Swaps every node battery for the chemistry's prototype
            // spec; composes with --fleet (spec applies per node) and
            // --faults (plans are spec-independent).
            builder.chemistry(ChemistrySpec::new(chemistry));
        }
        if let Some((mix, plan_seed)) = &self.faults {
            // Probe-build to learn the fleet size the defaults resolve
            // to, then generate the plan for that topology.
            let probe = builder.build()?;
            builder.faults(FaultPlan::generate(
                *plan_seed,
                probe.days(),
                probe.nodes,
                self.topology.banks(probe.nodes),
                mix,
            ));
        }
        builder.build()
    }

    /// The metadata line written to a checkpoint directory's
    /// `run.jsonl`: enough to rebuild the configuration (and label
    /// `console diff` comparisons, which read the same `chemistry`
    /// field).
    fn metadata_line(&self, config: &SimConfig, every: u64) -> String {
        let mut line = JsonLine::new();
        line.str_field("chemistry", self.chemistry.unwrap_or_default().name())
            .bool_field("chemistry_explicit", self.chemistry.is_some())
            .str_field("scheme", self.scheme.name())
            .str_field(
                "weather",
                &self
                    .plan
                    .iter()
                    .map(|w| w.name())
                    .collect::<Vec<_>>()
                    .join(","),
            )
            .u64_field("seed", self.seed)
            .u64_field("days", config.days() as u64)
            .u64_field("nodes", config.nodes as u64)
            .bool_field("old", self.old)
            .str_field("topology", &topology_label(self.topology))
            .u64_field("every", every);
        if let Some(n) = self.fleet {
            line.u64_field("fleet", n as u64);
        }
        if let Some((mix, plan_seed)) = &self.faults {
            line.str_field("fault_mix", fault_mix_label(mix))
                .u64_field("fault_seed", *plan_seed);
        }
        let mut out = line.finish();
        out.push('\n');
        out
    }

    /// Rebuilds the spec from a checkpoint directory's `run.jsonl`
    /// line. Returns `None` when a required field is missing or
    /// unparseable.
    fn from_metadata(meta: &str) -> Option<Self> {
        let scheme_name = jsonq::extract_str(meta, "scheme")?;
        let scheme = Scheme::ALL.into_iter().find(|s| s.name() == scheme_name)?;
        let plan: Vec<Weather> = jsonq::extract_str(meta, "weather")?
            .split(',')
            .map(|name| Weather::ALL.into_iter().find(|w| w.name() == name))
            .collect::<Option<Vec<_>>>()?;
        if plan.is_empty() {
            return None;
        }
        let chemistry = if jsonq::extract_bool(meta, "chemistry_explicit")? {
            Some(Chemistry::parse(&jsonq::extract_str(meta, "chemistry")?)?)
        } else {
            None
        };
        let topology = parse_topology(&jsonq::extract_str(meta, "topology")?)?;
        let faults = match jsonq::extract_str(meta, "fault_mix") {
            Some(mix) => Some((
                FaultMix::parse(&mix)?,
                jsonq::extract_u64(meta, "fault_seed")?,
            )),
            None => None,
        };
        Some(Self {
            scheme,
            plan,
            seed: jsonq::extract_u64(meta, "seed")?,
            old: jsonq::extract_bool(meta, "old")?,
            topology,
            chemistry,
            fleet: jsonq::extract_u64(meta, "fleet").map(|n| n as usize),
            faults,
            threads: 1,
        })
    }
}

fn topology_label(topology: BatteryTopology) -> String {
    match topology {
        BatteryTopology::PerServer => "per-server".to_owned(),
        BatteryTopology::SharedPool { pools } => format!("shared:{pools}"),
    }
}

fn parse_topology(label: &str) -> Option<BatteryTopology> {
    if label == "per-server" {
        Some(BatteryTopology::PerServer)
    } else {
        let pools = label.strip_prefix("shared:")?.parse().ok()?;
        Some(BatteryTopology::SharedPool { pools })
    }
}

fn fault_mix_label(mix: &FaultMix) -> &'static str {
    if mix.per_day == FaultMix::light().per_day {
        "light"
    } else {
        "heavy"
    }
}

/// Reads and parses the `run.jsonl` metadata in a checkpoint directory.
fn spec_from_dir(dir: &Path) -> Result<RunSpec, Box<dyn std::error::Error>> {
    let meta_path = dir.join("run.jsonl");
    let meta = std::fs::read_to_string(&meta_path)
        .map_err(|e| format!("read {}: {e}", meta_path.display()))?;
    let line = meta
        .lines()
        .next()
        .ok_or_else(|| format!("{}: empty metadata", meta_path.display()))?;
    RunSpec::from_metadata(line)
        .ok_or_else(|| format!("{}: malformed run metadata", meta_path.display()).into())
}

/// Writes the run artifacts a finished (or resumed) checkpointed run
/// leaves behind: `events.jsonl`, `trace.jsonl` and the one-line
/// `result.jsonl` summary. A resumed run rewrites all three from step
/// zero — the snapshot carries the full event log and trace — so an
/// interrupted-and-resumed run's artifacts byte-compare against an
/// uninterrupted run's.
fn write_run_artifacts(
    dir: &Path,
    report: &baat_sim::SimReport,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::write(dir.join("events.jsonl"), report.events.to_jsonl())?;
    std::fs::write(dir.join("trace.jsonl"), report.recorder.to_jsonl())?;
    std::fs::write(dir.join("result.jsonl"), result_line(report))?;
    Ok(())
}

/// The `result.jsonl` summary line: the headline scalars of the run,
/// emitted deterministically for byte-comparison across resumes.
fn result_line(report: &baat_sim::SimReport) -> String {
    let mut line = JsonLine::new();
    line.str_field("policy", report.policy)
        .u64_field("days", report.days as u64)
        .f64_field("work_core_h", report.total_work)
        .u64_field("completed_jobs", report.completed_jobs)
        .u64_field("migrations", report.migrations)
        .f64_field("unserved_wh", report.unserved_energy.as_f64())
        .f64_field("grid_charge_wh", report.grid_charge_energy.as_f64())
        .f64_field("mean_damage", report.mean_damage());
    let mut out = line.finish();
    out.push('\n');
    out
}

/// Default steps between snapshots for `console checkpoint`: 120 steps
/// is one simulated hour at the console's 30 s timestep.
const DEFAULT_CHECKPOINT_EVERY: u64 = 120;

/// `console checkpoint --dir DIR [--every STEPS]`: runs the scenario,
/// writing a policy-inclusive snapshot every N steps plus the metadata
/// and final artifacts `resume` / `replay` need.
fn run_checkpoint(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(dir) = args.dir.as_deref() else {
        eprintln!("checkpoint: --dir DIR is required");
        usage();
    };
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    let every = args.every.unwrap_or(DEFAULT_CHECKPOINT_EVERY);
    let spec = RunSpec::from_args(args);
    let config = spec.build_config()?;
    // Metadata goes down before the run starts, so a killed process
    // still leaves a resumable directory.
    std::fs::write(dir.join("run.jsonl"), spec.metadata_line(&config, every))?;
    let mut sim = Simulation::new(config)?;
    if args.old {
        sim.pre_age_batteries(0.55);
    }
    let mut policy = args.scheme.build();
    let mut written = 0u64;
    let snap_dir = dir.clone();
    let report = sim.checkpoint_every(&mut policy, every, |snap| {
        let path = snap_dir.join(format!("step-{:08}.snap", snap.state.step_index));
        snap.write_file(&path)?;
        written += 1;
        Ok(())
    })?;
    write_run_artifacts(&dir, &report)?;
    println!(
        "checkpointed run complete: scheme {} | {} day(s) | {} snapshot(s) every {} steps in {}",
        report.policy,
        report.days,
        written,
        every,
        dir.display(),
    );
    println!(
        "work {:.1} core-h | jobs {} | unserved {}",
        report.total_work, report.completed_jobs, report.unserved_energy,
    );
    Ok(())
}

/// `console resume FILE`: restores the simulation (and policy decision
/// state) from a snapshot file, rebuilds the configuration from the
/// sibling `run.jsonl`, finishes the run, and rewrites the run
/// artifacts — byte-identical to never having stopped.
fn run_resume(file: &str) -> Result<(), Box<dyn std::error::Error>> {
    let path = Path::new(file);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let spec = spec_from_dir(dir)?;
    let config = spec.build_config()?;
    let snapshot = SimSnapshot::read_file(path).map_err(baat_sim::SimError::from)?;
    // Pre-aging is not re-applied: the snapshot's battery state already
    // carries the accumulated damage.
    let sim = Simulation::restore(config, &snapshot)?;
    let mut policy = spec.scheme.build();
    let restored_policy = snapshot.apply_policy_state(&mut *policy);
    let from_step = sim.step_index();
    let report = sim.run_remaining(&mut policy)?;
    write_run_artifacts(dir, &report)?;
    println!(
        "resumed {} from step {} ({}) — run complete",
        path.display(),
        from_step,
        if restored_policy {
            "policy state restored"
        } else {
            "fresh policy state"
        },
    );
    println!(
        "work {:.1} core-h | jobs {} | unserved {}",
        report.total_work, report.completed_jobs, report.unserved_energy,
    );
    Ok(())
}

/// `console replay --dir DIR (--to STEP | --event INDEX)`: restores the
/// nearest checkpoint at or before the target step, re-steps to it, and
/// prints the state hash — equal to a full run paused at that step.
fn run_replay(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(dir) = args.dir.as_deref() else {
        eprintln!("replay: --dir DIR is required");
        usage();
    };
    let dir = Path::new(dir);
    let spec = spec_from_dir(dir)?;
    let config = spec.build_config()?;
    let dt = config.dt.as_secs();
    let target = match (args.replay_to, args.replay_event) {
        (Some(step), None) => step,
        (None, Some(index)) => {
            // Land on the first state that includes the INDEX-th
            // recorded event: events are stamped with their step's
            // start time, so the state just after that step is the
            // earliest one containing the event.
            let events = std::fs::read_to_string(dir.join("events.jsonl"))?;
            let line = events
                .lines()
                .nth(index)
                .ok_or_else(|| format!("events.jsonl has no line {index}"))?;
            let at_s = jsonq::extract_u64(line, "at_s")
                .ok_or_else(|| format!("events.jsonl line {index}: no at_s field"))?;
            at_s / dt + 1
        }
        _ => {
            eprintln!("replay: exactly one of --to STEP or --event INDEX is required");
            usage();
        }
    };
    // Nearest checkpoint at or before the target step.
    let mut nearest: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(step) = name
            .to_str()
            .and_then(|n| n.strip_prefix("step-"))
            .and_then(|n| n.strip_suffix(".snap"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if step <= target && nearest.as_ref().is_none_or(|(best, _)| step > *best) {
            nearest = Some((step, entry.path()));
        }
    }
    let Some((base, snap_path)) = nearest else {
        return Err(format!(
            "{}: no checkpoint at or before step {target}",
            dir.display()
        )
        .into());
    };
    let snapshot = SimSnapshot::read_file(&snap_path).map_err(baat_sim::SimError::from)?;
    let mut sim = Simulation::restore(config, &snapshot)?;
    let mut policy = spec.scheme.build();
    snapshot.apply_policy_state(&mut *policy);
    sim.run_steps(&mut policy, target - base)?;
    println!(
        "replayed to step {target} (checkpoint {base} + {} step(s)) | t = {} s | state hash {:016x}",
        target - base,
        target * dt,
        sim.state_hash(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    match &args.command {
        Command::Diff(a, b) => return run_diff(a, b),
        Command::TraceCheck(file) => return run_trace_check(file),
        Command::Checkpoint => return run_checkpoint(&args),
        Command::Resume(file) => return run_resume(file),
        Command::Replay => return run_replay(&args),
        Command::PerfTrend => return run_perf_trend(&args),
        Command::Run | Command::Watch | Command::Serve => {}
    }
    let config = RunSpec::from_args(&args).build_config()?;

    if matches!(args.command, Command::Watch) {
        return run_watch(&args, config);
    }

    let serving = matches!(args.command, Command::Serve);
    let obs = if serving || args.jsonl.is_some() || args.profile {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    // The scrape endpoint comes up before the first step so a scraper
    // can follow the whole run; the bound address is printed (and
    // flushed) immediately for scripted clients.
    let server = if serving {
        let server = MetricsServer::start(args.port, obs.clone(), pre_run_metadata(&args))?;
        println!(
            "serving http://{}/  routes: /metrics /healthz /run /quit",
            server.addr()
        );
        std::io::Write::flush(&mut std::io::stdout())?;
        Some(server)
    } else {
        None
    };
    if args.chemistry.is_some() {
        // Registered only when --chemistry was given explicitly, so
        // default runs keep their metric set (and the CI OpenMetrics
        // golden) byte-identical. 0 = lead-acid, 1 = li-ion.
        let index = Chemistry::ALL
            .iter()
            .position(|&c| c == args.chemistry())
            .expect("every chemistry is in ALL");
        obs.gauge("run.chemistry").set(index as f64);
    }
    let faults_before = minor_page_faults();
    let mut sim = Simulation::with_obs(config, obs.clone())?;
    if args.old {
        sim.pre_age_batteries(0.55);
    }
    let mut policy = args.scheme.build_observed(&obs);
    let report = sim.run(&mut policy)?;
    let run_faults = faults_before
        .zip(minor_page_faults())
        .map(|(before, after)| after.saturating_sub(before));
    if let Some(server) = &server {
        // The run is complete: swap the provisional /run payload for
        // the full metadata line a --jsonl export would have written.
        server.set_run_info(run_metadata(&args, &report));
    }

    println!("=== BAAT management console ===");
    println!(
        "scheme {} | {} day(s): {} | seed {} | {} {} batteries",
        report.policy,
        report.days,
        args.plan
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(","),
        args.seed,
        if args.old { "old" } else { "new" },
        args.chemistry(),
    );
    println!();
    println!(
        "work {:.1} core-h | jobs {} | migrations {} | unserved {} | grid charge {}",
        report.total_work,
        report.completed_jobs,
        report.migrations,
        report.unserved_energy,
        report.grid_charge_energy,
    );

    println!("\nper-node battery table (paper Table 2 view):");
    println!(
        "{:<5} {:>8} {:>9} {:>8} {:>7} {:>9} {:>10} {:>9}",
        "node", "damage", "capacity", "NAT", "CF", "deep <40%", "downtime", "cutoffs"
    );
    for n in &report.nodes {
        println!(
            "{:<5} {:>8.4} {:>8.1}% {:>8.4} {:>7} {:>9} {:>10} {:>9}",
            n.node,
            n.damage,
            n.capacity_fraction * 100.0,
            n.lifetime_metrics.nat,
            n.lifetime_metrics
                .cf
                .map_or("—".to_owned(), |v| format!("{v:.2}")),
            n.deep_discharge_time,
            n.downtime,
            n.cutoff_events,
        );
    }

    println!("\nevent digest:");
    let count = |pred: fn(&Event) -> bool| report.events.count(pred);
    println!(
        "  shutdowns {}  restarts {}  dvfs changes {}  migrations {}  cutoffs {}  queue overflows {}",
        count(|e| matches!(e, Event::ServerShutdown { .. })),
        count(|e| matches!(e, Event::ServerRestart { .. })),
        count(|e| matches!(e, Event::DvfsChanged { .. })),
        count(|e| matches!(e, Event::MigrationStarted { .. })),
        count(|e| matches!(e, Event::BatteryCutoff { .. })),
        count(|e| matches!(e, Event::PlacementFailed { .. })),
    );
    let rejected = report.events.count(|e| match e {
        Event::Action { outcome } => outcome.is_rejected(),
        _ => false,
    });
    if rejected > 0 {
        println!("  rejected actions {rejected}");
    }
    if args.faults.is_some() {
        println!(
            "  faults injected {}  cleared {}  degraded transitions {}",
            count(|e| matches!(e, Event::FaultInjected { .. })),
            count(|e| matches!(e, Event::FaultCleared { .. })),
            count(|e| matches!(e, Event::DegradedMode { .. })),
        );
    }

    if args.profile {
        println!("\nper-stage profile:");
        println!(
            "{:<16} {:>9} {:>12} {:>12}",
            "stage", "calls", "ns/call", "total ms"
        );
        for s in obs.stage_stats() {
            println!(
                "{:<16} {:>9} {:>12} {:>12.3}",
                s.stage.name(),
                s.calls,
                s.mean_ns(),
                s.total_ns as f64 / 1e6,
            );
        }
        if let Some(faults) = run_faults {
            println!("minor page faults {faults} (build, steps and report)");
        }
        print_exec_profile(&obs);
    }

    if let Some(path) = &args.csv {
        std::fs::write(path, report.recorder.to_csv())?;
        println!(
            "\ntrace written to {path} ({} samples)",
            report.recorder.len()
        );
    }

    if let Some(dir) = &args.jsonl {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("run.jsonl"), run_metadata(&args, &report))?;
        std::fs::write(dir.join("events.jsonl"), report.events.to_jsonl())?;
        std::fs::write(dir.join("trace.jsonl"), report.recorder.to_jsonl())?;
        std::fs::write(dir.join("metrics.jsonl"), obs.metrics_jsonl())?;
        std::fs::write(dir.join("profile.jsonl"), obs.profile_jsonl())?;
        std::fs::write(dir.join("spans.jsonl"), obs.spans_jsonl())?;
        std::fs::write(dir.join("health.jsonl"), obs.health_jsonl())?;
        std::fs::write(dir.join("flight.jsonl"), obs.flight_jsonl())?;
        std::fs::write(dir.join("metrics.om"), obs.metrics_openmetrics())?;
        println!(
            "\nstructured exports written to {} (run, events, trace, metrics, \
             profile, spans, health, flight, metrics.om)",
            dir.display()
        );
    }

    if let Some(server) = server {
        if args.linger {
            println!("\nrun complete — still serving; GET /quit to stop");
            std::io::Write::flush(&mut std::io::stdout())?;
            server.wait_for_quit();
        }
        server.shutdown();
    }
    Ok(())
}

/// The provisional `/run` payload served while the simulation is still
/// stepping: the flags that identify the run (the full metadata line
/// replaces it once the report exists).
fn pre_run_metadata(args: &Args) -> String {
    let mut line = JsonLine::new();
    line.str_field("state", "running")
        .str_field("chemistry", args.chemistry().name())
        .str_field("scheme", args.scheme.name())
        .str_field(
            "weather",
            &args
                .plan
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(","),
        )
        .u64_field("seed", args.seed)
        .u64_field("threads", args.threads as u64)
        .bool_field("old", args.old);
    if let Some(n) = args.fleet {
        line.u64_field("fleet", n as u64);
    }
    line.finish()
}

/// The process's minor page faults so far, from `/proc/self/stat`;
/// `None` where that file does not exist (outside Linux). First touches
/// of freshly mapped memory (history journal chunks, checkpoint
/// buffers) each cost one fault, which the stage timings include but
/// do not name.
fn minor_page_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // `minflt` is field 10; the command name (field 2) is parenthesised
    // and may hold spaces, so count from the last `)`: field 3 is the
    // first after it.
    let fields = &stat[stat.rfind(')')? + 1..];
    fields.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Renders the `exec.*` pool summary under `--profile`: where the
/// sharded stages' wall time went (busy vs merge wait), per worker, and
/// the parallel efficiency of the pool — the number that explains a
/// sharded run stepping *slower* than the sequential path (see
/// BENCH history: `simulated_day/BAAT-sharded`). Prints nothing for
/// sequential runs, which register no `exec.*` metrics.
fn print_exec_profile(obs: &Obs) {
    let snapshot = obs.snapshot();
    let gauge = |name: &str| {
        snapshot.iter().find(|s| s.name == name).and_then(|s| {
            if let SampleValue::Gauge(v) = s.value {
                Some(v)
            } else {
                None
            }
        })
    };
    let counter = |name: &str| {
        snapshot.iter().find(|s| s.name == name).and_then(|s| {
            if let SampleValue::Counter(v) = s.value {
                Some(v)
            } else {
                None
            }
        })
    };
    let Some(threads) = gauge("exec.pool.threads") else {
        return;
    };
    let threads = threads as usize;
    let wall_ns = gauge("exec.pool.wall_ns").unwrap_or(0.0);
    let merge_wait_ns = gauge("exec.pool.merge_wait_ns").unwrap_or(0.0);
    let batches = gauge("exec.pool.batches").unwrap_or(0.0);
    println!("\nexec pool ({threads} threads):");
    println!(
        "  {batches:.0} batches | wall {:.3} ms | caller merge wait {:.3} ms",
        wall_ns / 1e6,
        merge_wait_ns / 1e6,
    );
    let mut busy_total = 0.0;
    for w in 0..threads {
        let busy = gauge(&format!("exec.worker.{w}.busy_ns")).unwrap_or(0.0);
        let tasks = gauge(&format!("exec.worker.{w}.tasks")).unwrap_or(0.0);
        busy_total += busy;
        let role = if w == 0 { "caller" } else { "worker" };
        println!(
            "  thread {w} ({role}): busy {:.3} ms | {tasks:.0} tasks",
            busy / 1e6,
        );
    }
    if wall_ns > 0.0 {
        // Busy time across all threads over perfectly-parallel wall
        // time: 1.0 means every thread worked the whole batch, low
        // values mean dispatch overhead and merge waits dominate —
        // the pool slows the step loop down.
        println!(
            "  pool efficiency {:.2} (busy {:.3} ms / {threads} threads x wall {:.3} ms)",
            busy_total / (wall_ns * threads as f64),
            busy_total / 1e6,
            wall_ns / 1e6,
        );
    }
    let stages = [
        ("battery_step", "exec.merge_wait.battery_step_ns"),
        ("fleet_refresh", "exec.merge_wait.fleet_refresh_ns"),
    ];
    let waits: Vec<String> = stages
        .iter()
        .filter_map(|(label, name)| {
            counter(name).map(|ns| format!("{label} {:.3} ms", ns as f64 / 1e6))
        })
        .collect();
    if !waits.is_empty() {
        println!("  merge wait by stage: {}", waits.join(" | "));
    }
    if let Some(imbalance) = gauge("exec.shard.imbalance_x1000") {
        println!(
            "  shard imbalance (latest sampled step): {:.2}x slowest/mean",
            imbalance / 1000.0
        );
    }
}

/// The `run.jsonl` metadata line written next to every `--jsonl` export:
/// one flat object identifying the run (chemistry, scheme, weather,
/// seed, topology, fleet, faults), so `console diff` can label
/// cross-chemistry comparisons and scripts can index export
/// directories without re-parsing command lines.
fn run_metadata(args: &Args, report: &baat_sim::SimReport) -> String {
    let mut line = JsonLine::new();
    line.str_field("chemistry", args.chemistry().name())
        .str_field("scheme", report.policy)
        .str_field(
            "weather",
            &args
                .plan
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(","),
        )
        .u64_field("seed", args.seed)
        .u64_field("days", report.days as u64)
        .u64_field("nodes", report.nodes.len() as u64)
        .bool_field("old", args.old);
    if let Some(n) = args.fleet {
        line.u64_field("fleet", n as u64);
    }
    if let Some((mix, plan_seed)) = &args.faults {
        line.u64_field("faults_per_day", mix.per_day as u64)
            .u64_field("fault_seed", plan_seed.unwrap_or(args.seed));
    }
    let mut out = line.finish();
    out.push('\n');
    out
}
