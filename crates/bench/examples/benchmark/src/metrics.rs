//! The metric tables, the untraced and traced runs that fill them, and
//! the reports and set comparisons built from them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use baat_bench::jsonq;
use baat_core::Scheme;
use baat_obs::json::JsonLine;

use crate::stats::{self, Better};
use crate::trace::{self_times, spans_jsonl, Span, Tracer};
use crate::workloads::{self, PassOpts, PassOut, RepError, RepOut, Scale, Workload};

/// An end-to-end metric: how a user of the simulator sees a rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eMetric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the baseline median it may worsen by.
    pub bound: f64,
    /// Listed in `BENCHMARK.json` and the summary line: measured on every
    /// workload and never zero.
    pub in_summary: bool,
    /// Repeats exactly for one seed; compared for equality, not spread.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> E2eMetric {
    E2eMetric {
        name,
        unit,
        better,
        bound,
        in_summary: true,
        exact: false,
    }
}

const fn extra(mut m: E2eMetric) -> E2eMetric {
    m.in_summary = false;
    m
}

/// Every end-to-end metric. The summary ones come first, in
/// `BENCHMARK.json` order.
pub const E2E: [E2eMetric; 8] = [
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    extra(e2e(
        "node_steps_per_s",
        "node_steps/s",
        Better::Higher,
        0.25,
    )),
    extra(e2e("checkpoint_s", "s", Better::Lower, 0.25)),
    extra(e2e("resume_s", "s", Better::Lower, 0.25)),
    E2eMetric {
        exact: true,
        ..extra(e2e("checkpoint_mb", "MiB", Better::Lower, 0.01))
    },
    E2eMetric {
        exact: true,
        ..extra(e2e("error_rate", "ratio", Better::Lower, 0.0))
    },
];

/// Per-layer metrics every traced run reports, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str, Better); 33] = [
    ("core.control.calls", "count", Better::Lower),
    ("core.control.p50_us", "us", Better::Lower),
    ("core.control.tail_us", "us", Better::Lower),
    ("core.control.self_s", "s", Better::Lower),
    ("core.control.share", "ratio", Better::Lower),
    ("core.control.actions_per_call", "ratio", Better::Lower),
    ("core.control.rejected_ratio", "ratio", Better::Lower),
    ("sim.step.night_us.p50", "us", Better::Lower),
    ("sim.step.night_us.tail", "us", Better::Lower),
    ("sim.step.window_us.p50", "us", Better::Lower),
    ("sim.step.window_us.tail", "us", Better::Lower),
    ("sim.step.control_ms.p50", "ms", Better::Lower),
    ("sim.step.control_ms.tail", "ms", Better::Lower),
    ("sim.engine.self_s", "s", Better::Lower),
    ("sim.view.build_ms.p50", "ms", Better::Lower),
    ("sim.view.build_ms.tail", "ms", Better::Lower),
    ("sim.fleet.rank_us.p50", "us", Better::Lower),
    ("snapshot.capture_ms.p50", "ms", Better::Lower),
    ("snapshot.encode_ms.p50", "ms", Better::Lower),
    ("snapshot.encode_ms.final", "ms", Better::Lower),
    ("snapshot.decode_ms.p50", "ms", Better::Lower),
    ("snapshot.decode_ms.final", "ms", Better::Lower),
    ("snapshot.restore_ms.p50", "ms", Better::Lower),
    ("snapshot.restore_ms.final", "ms", Better::Lower),
    ("snapshot.bytes_per_node_hour", "bytes", Better::Lower),
    ("sim.report_ms", "ms", Better::Lower),
    ("exec.speedup", "ratio", Better::Higher),
    ("exec.parallel_efficiency", "ratio", Better::Higher),
    ("battery.step_ns.lead_acid", "ns", Better::Lower),
    ("battery.step_ns.li_ion", "ns", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.coverage_pct", "%", Better::Higher),
    ("trace.spans", "count", Better::Lower),
];

/// Reps an untraced run makes at least, whatever its time budget.
const MIN_REPS: usize = 3;

/// Timed `Simulation::new` calls behind `setup_s`, after each rep.
const SETUPS: usize = 8;

/// Distribution of the samples a value was reduced from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Workload it was measured on.
    pub workload: String,
    /// Metric name.
    pub name: String,
    /// The number.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// The samples behind it, when it is a median of several.
    pub spread: Option<Spread>,
}

/// One workload's run: how many reps or passes were attempted, how many
/// failed and why, and the final hash they agreed on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Reps (untraced) or passes (traced) attempted.
    pub attempted: u64,
    /// Of those, failed ones: an error, a panic or a hash mismatch.
    pub failed: u64,
    /// The final hash of the first successful rep.
    pub hash: Option<u64>,
    /// Why reps failed.
    pub notes: Vec<String>,
}

impl RunRecord {
    fn new(w: Workload) -> Self {
        Self {
            workload: w.name().to_owned(),
            attempted: 0,
            failed: 0,
            hash: None,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, note: String) {
        eprintln!("benchmark: {}: {note}", self.workload);
        self.failed += 1;
        self.notes.push(note);
    }

    /// Runs one attempt, counting it, and records its failure (error or
    /// panic) if it has one.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, RepError>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                self.fail(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Checks an attempt's hash against the reference, failing the
    /// attempt (after the fact) on a mismatch.
    fn check_hash(&mut self, what: &str, hash: u64, reference: &mut Option<u64>) -> bool {
        let want = *reference.get_or_insert(hash);
        self.hash.get_or_insert(hash);
        if hash == want {
            return true;
        }
        self.fail(format!(
            "{what}: final hash {hash:016x}, expected {want:016x}"
        ));
        false
    }
}

/// A run's results: one record per workload and every value measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Run seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) or untraced (end to end).
    pub traced: bool,
    /// One per workload.
    pub runs: Vec<RunRecord>,
    /// Every value, in reporting order.
    pub values: Vec<Value>,
    spans: Vec<Span>,
}

impl Report {
    fn new(w: Workload, seed: u64, traced: bool) -> Self {
        Self {
            seed,
            traced,
            runs: vec![RunRecord::new(w)],
            values: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// An empty report that [`Report::absorb`] fills workload by workload.
    pub fn merged(seed: u64, traced: bool) -> Self {
        Self {
            seed,
            traced,
            runs: Vec::new(),
            values: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Appends another workload's report.
    pub fn absorb(&mut self, other: Report) {
        self.runs.extend(other.runs);
        self.values.extend(other.values);
    }

    fn push(&mut self, name: &str, value: f64, unit: &str, spread: Option<Spread>) {
        self.values.push(Value {
            workload: self.runs[0].workload.clone(),
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            spread,
        });
    }

    /// Pushes the median of `samples` with its spread.
    fn push_median(&mut self, name: &str, samples: &[f64], unit: &str) {
        let [q1, q2, q3] = stats::quartiles(samples);
        let spread = Spread {
            n: samples.len(),
            q1,
            q3,
        };
        self.push(name, q2, unit, Some(spread));
    }

    /// Pushes the median and tail of `samples` as `<p50>` and `<tail>`,
    /// with the tail's percentile and sample count beside it.
    fn push_dist(&mut self, p50: &str, tail: &str, samples: &[f64], unit: &str) {
        self.push(p50, stats::median(samples), unit, None);
        let t = stats::tail(samples);
        self.push(tail, t.value, unit, None);
        self.push(&format!("{tail}.pct"), t.pct, "pct", None);
        self.push(&format!("{tail}.n"), t.n as f64, "count", None);
    }

    /// `true` when every attempt succeeded and every summary metric is
    /// present.
    pub fn correct(&self) -> bool {
        !self.runs.is_empty()
            && self.runs.iter().all(|r| r.attempted > 0 && r.failed == 0)
            && self.runs.iter().all(|r| {
                self.summary_names()
                    .iter()
                    .all(|n| self.value(&r.workload, n).is_some_and(f64::is_finite))
            })
    }

    fn value(&self, workload: &str, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|v| v.workload == workload && v.name == name)
            .map(|v| v.value)
    }

    fn summary_names(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            E2E.iter()
                .filter(|m| m.in_summary)
                .map(|m| m.name)
                .collect()
        }
    }

    /// `workload metric value unit`, one line per value.
    pub fn text_lines(&self) -> String {
        self.values
            .iter()
            .map(|v| format!("{} {} {} {}\n", v.workload, v.name, v.value, v.unit))
            .collect()
    }

    /// The summary line: `correct`, `attempted`, `failed` and the
    /// summary metrics (prefixed `workload/` when several workloads ran).
    pub fn summary_json(&self) -> String {
        let mut metrics = JsonLine::new();
        let prefix = self.runs.len() > 1;
        for run in &self.runs {
            for name in self.summary_names() {
                let value = self.value(&run.workload, name).unwrap_or(f64::NAN);
                let unit = self
                    .values
                    .iter()
                    .find(|v| v.name == name)
                    .map_or("", |v| v.unit.as_str());
                let mut m = JsonLine::new();
                m.f64_field("value", value).str_field("unit", unit);
                let key = if prefix {
                    format!("{}/{name}", run.workload)
                } else {
                    name.to_owned()
                };
                metrics.raw_field(&key, &m.finish());
            }
        }
        let mut line = JsonLine::new();
        line.bool_field("correct", self.correct())
            .u64_field("attempted", self.runs.iter().map(|r| r.attempted).sum())
            .u64_field("failed", self.runs.iter().map(|r| r.failed).sum())
            .raw_field("metrics", &metrics.finish());
        line.finish()
    }

    /// `result.json`: the header, one line per workload run and one per
    /// value.
    pub fn result_json(&self, header: &str) -> String {
        let mut lines = Vec::new();
        for r in &self.runs {
            let mut line = JsonLine::new();
            line.str_field("run", &r.workload)
                .u64_field("seed", self.seed)
                .bool_field("traced", self.traced)
                .u64_field("attempted", r.attempted)
                .u64_field("failed", r.failed)
                .str_field(
                    "hash",
                    &r.hash.map_or(String::new(), |h| format!("{h:016x}")),
                )
                .str_field("notes", &r.notes.join("; "));
            lines.push(line.finish());
        }
        let runs = lines.join(",\n");
        let mut lines = Vec::new();
        for v in &self.values {
            let mut line = JsonLine::new();
            line.str_field("workload", &v.workload)
                .str_field("metric", &v.name)
                .f64_field("value", v.value)
                .str_field("unit", &v.unit);
            if let Some(s) = v.spread {
                line.u64_field("n", s.n as u64)
                    .f64_field("q1", s.q1)
                    .f64_field("q3", s.q3);
            }
            lines.push(line.finish());
        }
        let values = lines.join(",\n");
        format!("{{\"header\":{header},\n\"runs\":[\n{runs}\n],\n\"metrics\":[\n{values}\n]}}\n")
    }

    /// Reads back what [`Report::result_json`] wrote (values and runs).
    pub fn from_result_json(w: Workload, text: &str) -> Report {
        let traced = text
            .lines()
            .next()
            .and_then(|h| jsonq::extract_bool(h, "traced"))
            .unwrap_or(false);
        let mut report = Report::new(w, 0, traced);
        report.runs.clear();
        for line in text.lines() {
            let line = line.trim_end_matches(',');
            if line.starts_with("{\"run\":") {
                report.seed = jsonq::extract_u64(line, "seed").unwrap_or(0);
                report.runs.push(RunRecord {
                    workload: jsonq::extract_str(line, "run").unwrap_or_default(),
                    attempted: jsonq::extract_u64(line, "attempted").unwrap_or(0),
                    failed: jsonq::extract_u64(line, "failed").unwrap_or(0),
                    hash: jsonq::extract_str(line, "hash")
                        .and_then(|h| u64::from_str_radix(&h, 16).ok()),
                    notes: Vec::new(),
                });
            } else if line.starts_with("{\"workload\":") {
                let spread = jsonq::extract_u64(line, "n").map(|n| Spread {
                    n: n as usize,
                    q1: jsonq::extract_f64(line, "q1").unwrap_or(f64::NAN),
                    q3: jsonq::extract_f64(line, "q3").unwrap_or(f64::NAN),
                });
                report.values.push(Value {
                    workload: jsonq::extract_str(line, "workload").unwrap_or_default(),
                    name: jsonq::extract_str(line, "metric").unwrap_or_default(),
                    value: jsonq::extract_f64(line, "value").unwrap_or(f64::NAN),
                    unit: jsonq::extract_str(line, "unit").unwrap_or_default(),
                    spread,
                });
            }
        }
        if report.runs.is_empty() {
            let mut missing = RunRecord::new(w);
            missing.attempted = 1;
            missing.fail("no result.json".to_owned());
            report.runs.push(missing);
        }
        report
    }

    /// The traced run's spans as JSON lines, if it recorded any.
    pub fn spans_jsonl(&self) -> Option<String> {
        (!self.spans.is_empty()).then(|| spans_jsonl(&self.spans))
    }
}

/// One untraced rep of `w`.
///
/// # Errors
///
/// Whatever the rep ends in.
pub fn rep(w: Workload, seed: u64, scale: Scale) -> Result<RepOut, RepError> {
    match w.fleet(scale) {
        Some(spec) => workloads::fleet_rep(&spec, seed),
        None => Ok(workloads::figures_rep(seed, scale)),
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end run: reps until `seconds` are spent (at least
/// [`MIN_REPS`]), or exactly `reps` when given.
pub fn run_untraced(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    reps: Option<usize>,
    expected: Option<u64>,
) -> Report {
    let mut report = Report::new(w, seed, false);
    let run = &mut report.runs[0];
    let mut setup = Vec::new();
    let mut outs: Vec<RepOut> = Vec::new();
    let mut reference = expected;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut last = Duration::ZERO;
    for attempted in 0.. {
        let more = match reps {
            Some(n) => attempted < n,
            None => attempted < MIN_REPS || started.elapsed() + last <= budget,
        };
        if !more {
            break;
        }
        let t = Instant::now();
        let what = format!("rep {attempted}");
        // Set-up is timed after each rep, on the heap the workload itself
        // leaves behind, so every run times it in the same state.
        let attempt = run.attempt(&what, || {
            let out = rep(w, seed, scale)?;
            Ok((out, workloads::setup_s(w, scale, seed, SETUPS)?))
        });
        if let Some((out, timed)) = attempt {
            setup.extend(timed);
            if run.check_hash(&what, out.hash, &mut reference) {
                outs.push(out);
            }
        }
        last = t.elapsed();
    }
    let (attempted, failed) = (run.attempted, run.failed);

    let walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    report.push_median("wall_s", &walls, "s");
    report.push_median("setup_s", &setup, "s");
    report.push("peak_rss_mb", peak_rss_mib(), "MiB", None);
    if let Some(first) = outs.first() {
        if w.fleet(scale).is_some() {
            let wall = stats::median(&walls);
            report.push(
                "node_steps_per_s",
                first.node_steps as f64 / wall,
                "node_steps/s",
                None,
            );
        }
        if first.checkpoint_bytes > 0 {
            let cp: Vec<f64> = outs.iter().map(|o| o.checkpoint_s).collect();
            let rs: Vec<f64> = outs.iter().map(|o| o.resume_s).collect();
            report.push_median("checkpoint_s", &cp, "s");
            report.push_median("resume_s", &rs, "s");
            let mib = first.checkpoint_bytes as f64 / (1024.0 * 1024.0);
            report.push("checkpoint_mb", mib, "MiB", None);
        }
    }
    report.push(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        None,
    );
    report
}

/// Span names that are probes: extra work the untraced reps do not do.
const PROBES: [&str; 2] = ["sim.view", "sim.fleet.rank"];

/// The per-layer run. Every final hash must agree.
///
/// Fleets: two untraced reps (the second is the reference wall time);
/// pass 0, the workload as it runs untraced plus probes; pass 1, the same
/// at the other thread count without probes; and, for a workload without
/// a checkpoint period, pass 2, resumed halfway, which proves resume
/// equivalence and times the snapshot layer.
///
/// Figures: two untraced reps, traced figure passes at 2 and 1 runner
/// threads (passes 0 and 1), and a probed prototype day resumed halfway
/// (pass 2) for the engine layers.
pub fn run_traced(w: Workload, seed: u64, scale: Scale, expected: Option<u64>) -> Report {
    let mut report = Report::new(w, seed, true);
    let mut tracer = Tracer::new();
    let mut reference = expected;
    let run = &mut report.runs[0];
    // The first rep in a process pays for faulting in fresh memory; the
    // traced passes run on a warm heap, so the reference must too.
    let mut untraced_wall = f64::NAN;
    for what in ["untraced warm-up rep", "untraced rep"] {
        if let Some(u) = run.attempt(what, || rep(w, seed, scale)) {
            run.check_hash(what, u.hash, &mut reference);
            untraced_wall = u.wall_s;
        }
    }

    let native = w.threads();
    let other = if native == 1 { 2 } else { 1 };
    // (threads, seconds) of the two passes that differ only in threads:
    // Σ step spans for a fleet, the whole pass for the figures.
    let mut exec_secs: Vec<(usize, f64)> = Vec::new();
    let mut outs: Vec<(u32, PassOut)> = Vec::new();
    let layer_pass = match w.fleet(scale) {
        Some(spec) => {
            let configs: Vec<_> = (0..spec.replicas).map(|r| spec.config(seed, r)).collect();
            let checkpoint_steps = spec.checkpoint_steps(&configs[0]);
            let periodic = checkpoint_steps.is_some();
            let pass = |threads, probes, checkpoints| PassOpts {
                threads,
                probes,
                checkpoints,
            };
            let mut passes = vec![
                (0, pass(native, true, periodic)),
                (1, pass(other, false, false)),
            ];
            if !periodic {
                passes.push((2, pass(native, false, true)));
            }
            for (pass, opts) in passes {
                tracer.set_pass(pass);
                let what = format!("traced pass {pass} ({} threads)", opts.threads);
                let out = run.attempt(&what, || {
                    workloads::fleet_traced(
                        &configs,
                        spec.scheme,
                        |sim| spec.steps(sim),
                        checkpoint_steps,
                        opts,
                        &mut tracer,
                    )
                });
                if let Some(out) = out {
                    run.check_hash(&what, out.hash, &mut reference);
                    if pass < 2 {
                        let engine = step_ns(tracer.spans(), pass) as f64 * 1e-9;
                        exec_secs.push((opts.threads, engine));
                    }
                    outs.push((pass, out));
                }
            }
            0
        }
        None => {
            for (pass, threads) in [(0, native), (1, other)] {
                tracer.set_pass(pass);
                let what = format!("traced figures ({threads} runner threads)");
                let text = run.attempt(&what, || {
                    let started = Instant::now();
                    let text = workloads::figures_text(seed, scale, threads, Some(&mut tracer));
                    Ok((text, started.elapsed().as_secs_f64()))
                });
                if let Some((text, wall)) = text {
                    let hash = baat_sim::fnv1a(text.as_bytes());
                    run.check_hash(&what, hash, &mut reference);
                    exec_secs.push((threads, wall));
                }
            }
            std::env::set_var("BAAT_RUNNER_THREADS", workloads::FIGURE_THREADS.to_string());
            tracer.set_pass(2);
            let config = workloads::prototype_day(seed);
            let out = run.attempt("traced prototype day", || {
                let opts = PassOpts {
                    threads: 1,
                    probes: true,
                    checkpoints: true,
                };
                let traced = workloads::fleet_traced(
                    std::slice::from_ref(&config),
                    Scheme::Baat,
                    |sim| sim.total_steps(),
                    None,
                    opts,
                    &mut tracer,
                )?;
                let straight = workloads::straight_hash(config.clone(), Scheme::Baat)?;
                if traced.hash != straight {
                    return Err(format!(
                        "traced prototype day hash {:016x}, straight run {straight:016x}",
                        traced.hash
                    )
                    .into());
                }
                Ok(traced)
            });
            outs.extend(out.map(|o| (2, o)));
            2
        }
    };
    let spans = tracer.spans().to_vec();
    let selfs = self_times(&spans);
    let layer_out = outs
        .iter()
        .find(|o| o.0 == layer_pass)
        .map(|o| o.1.clone())
        .unwrap_or_default();
    let snapshot_out = outs
        .iter()
        .map(|o| &o.1)
        .find(|o| o.checkpoint_bytes > 0)
        .cloned()
        .unwrap_or_default();
    // Pass 0 is the workload's own traced pass: the figures at their
    // runner threads, or the fleet with probes.
    let pass0_wall = match w {
        Workload::PaperFigures => exec_secs
            .iter()
            .find(|(t, _)| *t == native)
            .map_or(f64::NAN, |e| e.1),
        _ => layer_out.wall_s,
    };

    layer_values(
        &mut report,
        &spans,
        &selfs,
        layer_pass,
        &layer_out,
        &snapshot_out,
    );
    let speedup = match (
        exec_secs.iter().find(|e| e.0 == 1),
        exec_secs.iter().find(|e| e.0 == 2),
    ) {
        (Some(one), Some(two)) => one.1 / two.1,
        _ => f64::NAN,
    };
    report.push("exec.speedup", speedup, "ratio", None);
    report.push("exec.parallel_efficiency", speedup / 2.0, "ratio", None);
    report.push(
        "battery.step_ns.lead_acid",
        workloads::battery_step_ns(false),
        "ns",
        None,
    );
    report.push(
        "battery.step_ns.li_ion",
        workloads::battery_step_ns(true),
        "ns",
        None,
    );
    let probe_s = secs_of(&spans, 0, |s| PROBES.contains(&s.name));
    let overhead = ((pass0_wall - probe_s) / untraced_wall - 1.0) * 100.0;
    report.push("trace.overhead_pct", overhead, "%", None);
    let top = secs_of(&spans, 0, |s| s.parent.is_none());
    report.push("trace.coverage_pct", top / pass0_wall * 100.0, "%", None);
    report.push("trace.spans", spans.len() as f64, "count", None);
    report.push("trace.wall_s", pass0_wall, "s", None);
    report.push("trace.untraced_wall_s", untraced_wall, "s", None);
    if w == Workload::PaperFigures {
        for module in workloads::figure_modules() {
            let name = format!("{module}_s");
            let s = secs_of(&spans, 0, |s| s.name == module);
            report.push(&name, s, "s", None);
        }
    }
    report.spans = spans;
    report
}

/// Σ durations of the spans in `pass` matching `pick`, in seconds.
fn secs_of(spans: &[Span], pass: u32, pick: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.pass == pass && pick(s))
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

/// Σ step-span nanoseconds in `pass`: the engine's share of a pass,
/// which is what engine threads can speed up.
fn step_ns(spans: &[Span], pass: u32) -> u64 {
    spans
        .iter()
        .filter(|s| s.pass == pass && s.name.starts_with("sim.step."))
        .map(Span::dur_ns)
        .sum()
}

/// The policy, engine, view and report layers, from the spans of `pass`,
/// and the snapshot layer, from the one pass that took snapshots.
fn layer_values(
    report: &mut Report,
    spans: &[Span],
    selfs: &[u64],
    pass: u32,
    out: &PassOut,
    snapshot_out: &PassOut,
) {
    let in_pass = |name: &str| -> Vec<usize> {
        (0..spans.len())
            .filter(|&i| spans[i].pass == pass && spans[i].name == name)
            .collect()
    };
    let durs = |ids: &[usize], scale: f64| -> Vec<f64> {
        ids.iter()
            .map(|&i| spans[i].dur_ns() as f64 * scale)
            .collect()
    };
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;

    let control = in_pass("core.control");
    let mut has_control = vec![false; spans.len()];
    for &i in &control {
        if let Some(p) = spans[i].parent {
            has_control[p] = true;
        }
    }
    let c = out.counts;
    report.push("core.control.calls", c.calls as f64, "count", None);
    let control_us = durs(&control, US);
    report.push_dist(
        "core.control.p50_us",
        "core.control.tail_us",
        &control_us,
        "us",
    );
    let control_self_s: f64 = control.iter().map(|&i| selfs[i] as f64 * 1e-9).sum();
    report.push("core.control.self_s", control_self_s, "s", None);
    report.push(
        "core.control.share",
        control_self_s / out.wall_s,
        "ratio",
        None,
    );
    report.push(
        "core.control.actions_per_call",
        c.actions as f64 / c.calls.max(1) as f64,
        "ratio",
        None,
    );
    report.push(
        "core.control.rejected_ratio",
        c.rejected as f64 / c.outcomes.max(1) as f64,
        "ratio",
        None,
    );

    let night = in_pass("sim.step.night");
    let window = in_pass("sim.step.window");
    let (ctl_steps, plain): (Vec<usize>, Vec<usize>) =
        window.iter().partition(|&&i| has_control[i]);
    report.push_dist(
        "sim.step.night_us.p50",
        "sim.step.night_us.tail",
        &durs(&night, US),
        "us",
    );
    report.push_dist(
        "sim.step.window_us.p50",
        "sim.step.window_us.tail",
        &durs(&plain, US),
        "us",
    );
    report.push_dist(
        "sim.step.control_ms.p50",
        "sim.step.control_ms.tail",
        &durs(&ctl_steps, MS),
        "ms",
    );
    let step_s = step_ns(spans, pass) as f64 * 1e-9;
    let control_s: f64 = durs(&control, 1e-9).iter().sum();
    report.push("sim.engine.self_s", step_s - control_s, "s", None);
    report.push_dist(
        "sim.view.build_ms.p50",
        "sim.view.build_ms.tail",
        &durs(&in_pass("sim.view"), MS),
        "ms",
    );
    report.push(
        "sim.fleet.rank_us.p50",
        stats::median(&durs(&in_pass("sim.fleet.rank"), US)),
        "us",
        None,
    );

    // Only one pass takes snapshots, so these spans need no pass filter.
    for (span, metric) in [
        ("snapshot.capture", "snapshot.capture_ms"),
        ("snapshot.encode", "snapshot.encode_ms"),
        ("snapshot.decode", "snapshot.decode_ms"),
        ("snapshot.restore", "snapshot.restore_ms"),
    ] {
        let ids: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == span)
            .collect();
        let ms = durs(&ids, MS);
        report.push(&format!("{metric}.p50"), stats::median(&ms), "ms", None);
        if span != "snapshot.capture" {
            let last = ms.last().copied().unwrap_or(f64::NAN);
            report.push(&format!("{metric}.final"), last, "ms", None);
        }
    }
    let s = snapshot_out;
    let per_node_hour = s.checkpoint_bytes as f64 / s.checkpoint_node_hours.max(1) as f64;
    report.push("snapshot.bytes_per_node_hour", per_node_hour, "bytes", None);
    let report_ms = stats::median(&durs(&in_pass("sim.report"), MS));
    report.push("sim.report_ms", report_ms, "ms", None);
}

/// Every `result.json` under `dir`, read back, with the header of the
/// first one.
fn read_set(dir: &Path) -> (Vec<Report>, Option<String>) {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n == "result.json") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut header = None;
    let reports = files
        .iter()
        .filter_map(|f| {
            let text = std::fs::read_to_string(f).ok()?;
            let first = text.lines().next()?;
            let name = jsonq::extract_str(first, "workload")?;
            let object = first.strip_prefix("{\"header\":")?.trim_end_matches(',');
            header.get_or_insert_with(|| object.to_owned());
            Some(Report::from_result_json(Workload::parse(&name)?, &text))
        })
        .collect();
    (reports, header)
}

/// Compares two sets of runs the way a regression check would: for every
/// workload × end-to-end metric, each set's median and quartiles, its
/// spread against the bound, and the second median against the first.
/// Counts, bytes and hashes of the same workload and seed must be equal.
/// Writes the medians, quartiles and traced values of both sets, with
/// the run header, to `baseline.json` beside set A.
pub fn compare_sets(a: &Path, b: &Path) -> ExitCode {
    let ((set_a, header), (set_b, _)) = (read_set(a), read_set(b));
    if set_a.is_empty() || set_b.is_empty() {
        eprintln!(
            "compare: no result.json under {} or {}",
            a.display(),
            b.display()
        );
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<21} {:<16} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "spread", "median B", "spread", "change", "bound"
    );
    for w in Workload::ALL {
        for m in E2E.iter().filter(|m| !m.exact) {
            let pick = |set: &[Report]| -> Vec<f64> {
                set.iter()
                    .filter(|r| !r.traced)
                    .filter_map(|r| r.value(w.name(), m.name))
                    .collect()
            };
            let (va, vb) = (pick(&set_a), pick(&set_b));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let (sa, sb) = (stats::spread(&va), stats::spread(&vb));
            let steady = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let held = stats::within_bound(ma, mb, m.better, m.bound);
            let pass = steady && held && !va.is_empty() && !vb.is_empty();
            ok &= pass;
            let note = if !steady {
                " (spread over bound)"
            } else if m.name != "setup_s" && sa.max(sb) > m.bound / 3.0 {
                " (spread over a third of bound)"
            } else {
                ""
            };
            println!(
                "{:<21} {:<16} {:>12.6} {:>6.2}% {:>12.6} {:>6.2}% {:>+7.2}% {:>5.1}%  {}{note}",
                w.name(),
                m.name,
                ma,
                sa * 100.0,
                mb,
                sb * 100.0,
                (mb / ma - 1.0) * 100.0,
                m.bound * 100.0,
                if pass { "pass" } else { "FAIL" },
            );
            for (set, values) in [("a", &va), ("b", &vb)] {
                let [q1, q2, q3] = stats::quartiles(values);
                let mut row = JsonLine::new();
                row.str_field("set", set)
                    .str_field("workload", w.name())
                    .str_field("metric", m.name)
                    .str_field("unit", m.unit)
                    .u64_field("n", values.len() as u64)
                    .f64_field("median", q2)
                    .f64_field("q1", q1)
                    .f64_field("q3", q3)
                    .f64_field("spread", stats::spread(values));
                rows.push(row.finish());
            }
        }
    }
    for report in set_a.iter().chain(&set_b) {
        for run in report
            .runs
            .iter()
            .filter(|r| r.failed > 0 || r.attempted == 0)
        {
            println!(
                "{} seed {}: {} of {} attempts failed",
                run.workload, report.seed, run.failed, run.attempted
            );
            ok = false;
        }
    }
    ok &= exact_matches(&set_a, &set_b);

    let mut traced = Vec::new();
    for (set, reports) in [("a", &set_a), ("b", &set_b)] {
        for r in reports.iter().filter(|r| r.traced) {
            for v in &r.values {
                let mut row = JsonLine::new();
                row.str_field("set", set)
                    .str_field("workload", &v.workload)
                    .u64_field("seed", r.seed)
                    .str_field("metric", &v.name)
                    .f64_field("value", v.value)
                    .str_field("unit", &v.unit);
                traced.push(row.finish());
            }
        }
    }
    // The run header's machine and build fields; its workload and seed
    // belong to a single run.
    let header = header.unwrap_or_default();
    let mut machine = JsonLine::new();
    machine.u64_field("nproc", jsonq::extract_u64(&header, "nproc").unwrap_or(0));
    for key in ["cpu", "rustc", "git"] {
        machine.str_field(key, &jsonq::extract_str(&header, key).unwrap_or_default());
    }
    let baseline = a.parent().unwrap_or(a).join("baseline.json");
    let text = format!(
        "{{\"header\":{},\n\"end_to_end\":[\n{}\n],\n\"per_layer\":[\n{}\n]}}\n",
        machine.finish(),
        rows.join(",\n"),
        traced.join(",\n")
    );
    match std::fs::write(&baseline, text) {
        Ok(()) => println!(
            "compare: medians and quartiles of both sets in {}",
            baseline.display()
        ),
        Err(e) => {
            println!("compare: cannot write {}: {e}", baseline.display());
            ok = false;
        }
    }
    if ok {
        println!(
            "compare: every median and spread within its bound; counts, bytes and hashes equal"
        );
        ExitCode::SUCCESS
    } else {
        println!("compare: FAIL");
        ExitCode::FAILURE
    }
}

/// Counts, bytes, exact sizes and hashes of runs with the same workload,
/// seed and mode must be equal across sets.
fn exact_matches(set_a: &[Report], set_b: &[Report]) -> bool {
    let mut ok = true;
    let mut pairs = 0;
    for ra in set_a {
        let Some(rb) = set_b.iter().find(|rb| {
            rb.seed == ra.seed
                && rb.traced == ra.traced
                && rb.runs.first().map(|r| &r.workload) == ra.runs.first().map(|r| &r.workload)
        }) else {
            continue;
        };
        pairs += 1;
        for (x, y) in ra.runs.iter().zip(&rb.runs) {
            if x.hash != y.hash || x.hash.is_none() {
                println!(
                    "{} seed {}: hash {:?} vs {:?}",
                    x.workload, ra.seed, x.hash, y.hash
                );
                ok = false;
            }
        }
        let exact_e2e = |v: &Value| E2E.iter().any(|m| m.exact && m.name == v.name);
        let exact = |v: &&Value| v.unit == "count" || v.unit == "bytes" || exact_e2e(v);
        for v in ra.values.iter().filter(exact) {
            let other = rb.value(&v.workload, &v.name);
            if other != Some(v.value) {
                println!(
                    "{} seed {} {}: {} vs {:?}",
                    v.workload, ra.seed, v.name, v.value, other
                );
                ok = false;
            }
        }
    }
    println!("compare: {pairs} run pairs checked for equal counts, bytes and hashes");
    ok && pairs > 0
}
