//! The perf run registry: an append-only JSONL history of perf-harness
//! runs, and the trend report `console perf-trend` renders over it.
//!
//! Every perf-harness run (see `benches/perf.rs`) can append itself to
//! a history document — one `{"record":"run",...}` header line followed
//! by one `{"record":"bench",...}` line per benchmark, carrying the
//! throughput, the engine thread count and (for parallel cells) the
//! parallel efficiency. The committed seed history lives at
//! [`HISTORY_FILE`] in the workspace root; CI appends each perf job's
//! measurement and uploads the grown file as an artifact, so a
//! benchmark's trajectory across commits is one `grep` away.
//!
//! [`trend`] joins three documents — the committed baseline
//! (`BENCH_10.json`), the history, and a latest measurement — into
//! per-benchmark rows (baseline vs latest, delta, efficiency, history
//! span) and re-applies the [`crate::perf::TOLERANCE_PCT`] gate, so
//! `console perf-trend` fails exactly when `cargo bench -- --check`
//! would, but with the history for context instead of a bare verdict.
//!
//! Parsing goes through [`crate::perf::normalized_lines`], so only
//! [`crate::perf::SCHEMA`] reports feed the registry; anything else
//! reads as "not a perf report".

use baat_obs::json::JsonLine;

use crate::jsonq::{extract_f64, extract_str, extract_u64};
use crate::perf::{self, TOLERANCE_PCT};

/// Where the committed run history lives, relative to the workspace
/// root.
pub const HISTORY_FILE: &str = "PERF_HISTORY.jsonl";

/// One benchmark measurement inside one registered run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id (`group/name`).
    pub name: String,
    /// Engine worker threads the cell ran at.
    pub engine_threads: u64,
    /// Mean throughput, steps (work units) per second.
    pub steps_per_sec: f64,
    /// Best-of-batches throughput — what the regression gate compares.
    pub best_steps_per_sec: f64,
    /// Speedup over the sequential twin divided by the thread count;
    /// `None` on sequential cells.
    pub parallel_efficiency: Option<f64>,
}

impl BenchRecord {
    fn to_json(&self, run: u64) -> String {
        let mut line = JsonLine::new();
        line.str_field("record", "bench")
            .u64_field("run", run)
            .str_field("name", &self.name)
            .u64_field("engine_threads", self.engine_threads)
            .f64_field("steps_per_sec", self.steps_per_sec)
            .f64_field("best_steps_per_sec", self.best_steps_per_sec);
        if let Some(eff) = self.parallel_efficiency {
            line.f64_field("parallel_efficiency", eff);
        }
        line.finish()
    }
}

/// One registered perf run: a sequential id, a caller-supplied label
/// (CI job id, "local", ...) and the benchmark measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Sequential run id (1-based, assigned at append time).
    pub run: u64,
    /// Free-text label recorded with the run.
    pub label: String,
    /// The run's benchmark measurements.
    pub benchmarks: Vec<BenchRecord>,
}

/// Extracts the benchmark rows of a perf report document as registry
/// records. Empty when the document is not a perf report.
pub fn report_benchmarks(report_json: &str) -> Vec<BenchRecord> {
    let Some(lines) = perf::normalized_lines(report_json) else {
        return Vec::new();
    };
    lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"bench\""))
        .filter_map(|l| {
            Some(BenchRecord {
                name: extract_str(l, "name")?,
                engine_threads: extract_u64(l, "engine_threads").unwrap_or(1),
                steps_per_sec: extract_f64(l, "steps_per_sec")?,
                best_steps_per_sec: extract_f64(l, "best_steps_per_sec")
                    .or_else(|| extract_f64(l, "steps_per_sec"))?,
                parallel_efficiency: extract_f64(l, "parallel_efficiency"),
            })
        })
        .collect()
}

/// Parses a history document into runs, skipping malformed lines (an
/// interrupted append leaves a readable registry).
pub fn parse_history(history: &str) -> Vec<RunRecord> {
    let mut runs: Vec<RunRecord> = Vec::new();
    for line in history.lines() {
        match extract_str(line, "record").as_deref() {
            Some("run") => {
                let Some(run) = extract_u64(line, "run") else {
                    continue;
                };
                runs.push(RunRecord {
                    run,
                    label: extract_str(line, "label").unwrap_or_default(),
                    benchmarks: Vec::new(),
                });
            }
            Some("bench") => {
                let Some(current) = runs.last_mut() else {
                    continue;
                };
                if extract_u64(line, "run") != Some(current.run) {
                    continue;
                }
                let (Some(name), Some(sps), Some(best)) = (
                    extract_str(line, "name"),
                    extract_f64(line, "steps_per_sec"),
                    extract_f64(line, "best_steps_per_sec"),
                ) else {
                    continue;
                };
                current.benchmarks.push(BenchRecord {
                    name,
                    engine_threads: extract_u64(line, "engine_threads").unwrap_or(1),
                    steps_per_sec: sps,
                    best_steps_per_sec: best,
                    parallel_efficiency: extract_f64(line, "parallel_efficiency"),
                });
            }
            _ => {}
        }
    }
    runs
}

/// Appends one run (parsed from a perf report document) to a history
/// document, assigning the next sequential run id. Returns the grown
/// document and the assigned id; `None` when the report document is
/// not a perf report or carries no benchmarks.
pub fn append_run(history: &str, report_json: &str, label: &str) -> Option<(String, u64)> {
    let benchmarks = report_benchmarks(report_json);
    if benchmarks.is_empty() {
        return None;
    }
    let next = parse_history(history)
        .iter()
        .map(|r| r.run)
        .max()
        .unwrap_or(0)
        + 1;
    let mut out = history.to_owned();
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    let mut header = JsonLine::new();
    header
        .str_field("record", "run")
        .u64_field("run", next)
        .str_field("label", label)
        .str_field("schema", perf::SCHEMA);
    out.push_str(&header.finish());
    out.push('\n');
    for b in &benchmarks {
        out.push_str(&b.to_json(next));
        out.push('\n');
    }
    Some((out, next))
}

/// One benchmark's row in the trend report.
#[derive(Debug, Clone)]
pub struct TrendRow {
    /// Benchmark id.
    pub name: String,
    /// Engine worker threads of the latest measurement.
    pub engine_threads: u64,
    /// Committed baseline mean throughput, when the baseline has the
    /// benchmark.
    pub baseline_steps_per_sec: Option<f64>,
    /// Latest mean throughput.
    pub latest_steps_per_sec: f64,
    /// Latest best-of-batches throughput (the gated figure).
    pub latest_best_steps_per_sec: f64,
    /// Latest best vs committed mean, in percent (positive = faster).
    pub delta_pct: Option<f64>,
    /// Latest parallel efficiency, on parallel cells.
    pub parallel_efficiency: Option<f64>,
    /// Mean throughput across all history runs carrying the benchmark,
    /// oldest first (the latest measurement is not re-appended here).
    pub history: Vec<f64>,
}

/// The joined trend report: per-benchmark rows plus the re-applied
/// regression gate.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// One row per benchmark in the latest measurement.
    pub rows: Vec<TrendRow>,
    /// Gate failures — same semantics as
    /// [`crate::perf::PerfReport::regressions_against`]: latest best
    /// throughput more than [`TOLERANCE_PCT`] below the committed mean,
    /// or a benchmark missing from the baseline.
    pub failures: Vec<String>,
}

impl TrendReport {
    /// Renders the report as a console table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>12} {:>8} {:>6} {}\n",
            "benchmark",
            "threads",
            "baseline/s",
            "latest/s",
            "delta",
            "eff",
            "history (mean steps/s)"
        ));
        for r in &self.rows {
            let fmt = |v: Option<f64>, unit: &str| {
                v.map_or("—".to_owned(), |v| format!("{v:.0}{unit}"))
            };
            let history = if r.history.is_empty() {
                "—".to_owned()
            } else {
                let min = r.history.iter().copied().fold(f64::INFINITY, f64::min);
                let max = r.history.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                format!("{} run(s), {min:.0}..{max:.0}", r.history.len())
            };
            out.push_str(&format!(
                "{:<28} {:>7} {:>12} {:>12.0} {:>8} {:>6} {history}\n",
                r.name,
                r.engine_threads,
                fmt(r.baseline_steps_per_sec, ""),
                r.latest_steps_per_sec,
                r.delta_pct.map_or("—".to_owned(), |d| format!("{d:+.1}%")),
                r.parallel_efficiency
                    .map_or("—".to_owned(), |e| format!("{e:.2}")),
            ));
        }
        out
    }
}

/// Joins the committed baseline document, the run history, and the
/// latest measurement into the trend report. A baseline that is not a
/// perf report has no rows, so every benchmark reads as missing.
pub fn trend(baseline_json: &str, history: &str, latest: &[BenchRecord]) -> TrendReport {
    let baseline = report_benchmarks(baseline_json);
    let runs = parse_history(history);
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for bench in latest {
        let reference = baseline
            .iter()
            .find(|b| b.name == bench.name)
            .map(|b| b.steps_per_sec);
        let delta_pct = reference.map(|r| {
            if r == 0.0 {
                0.0
            } else {
                (bench.best_steps_per_sec - r) / r * 100.0
            }
        });
        match reference {
            None => failures.push(format!(
                "{}: missing from the committed baseline — re-run with --update",
                bench.name
            )),
            Some(reference) => {
                let floor = reference * (1.0 - TOLERANCE_PCT / 100.0);
                if bench.best_steps_per_sec < floor {
                    failures.push(format!(
                        "{}: {:.0} steps/s is more than {TOLERANCE_PCT}% below \
                         the committed {reference:.0} steps/s (floor {floor:.0})",
                        bench.name, bench.best_steps_per_sec
                    ));
                }
            }
        }
        rows.push(TrendRow {
            name: bench.name.clone(),
            engine_threads: bench.engine_threads,
            baseline_steps_per_sec: reference,
            latest_steps_per_sec: bench.steps_per_sec,
            latest_best_steps_per_sec: bench.best_steps_per_sec,
            delta_pct,
            parallel_efficiency: bench.parallel_efficiency,
            history: runs
                .iter()
                .filter_map(|r| {
                    r.benchmarks
                        .iter()
                        .find(|b| b.name == bench.name)
                        .map(|b| b.steps_per_sec)
                })
                .collect(),
        });
    }
    TrendReport { rows, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{PerfBench, PerfReport};

    fn report(mean_ns: u64) -> PerfReport {
        let mut sharded = PerfBench {
            name: "simulated_day/BAAT-sharded".to_owned(),
            engine_threads: 4,
            steps_per_iter: 2880,
            seed_mean_ns: 176_660_000,
            mean_ns: mean_ns * 2,
            min_ns: mean_ns * 2 - 1_000_000,
            parallel_efficiency: None,
        };
        sharded.record_parallel_efficiency(mean_ns);
        PerfReport {
            benchmarks: vec![
                PerfBench {
                    name: "simulated_day/BAAT".to_owned(),
                    engine_threads: 1,
                    steps_per_iter: 2880,
                    seed_mean_ns: 176_660_000,
                    mean_ns,
                    min_ns: mean_ns - 1_000_000,
                    parallel_efficiency: None,
                },
                sharded,
            ],
            stage_profiles: Vec::new(),
            allocs_per_step: None,
            obs_overhead_ns_per_step: None,
        }
    }

    #[test]
    fn appended_runs_round_trip_with_sequential_ids() {
        let (h1, id1) = append_run("", &report(60_000_000).to_json(), "first").expect("perf doc");
        assert_eq!(id1, 1);
        let (h2, id2) = append_run(&h1, &report(50_000_000).to_json(), "second").expect("appends");
        assert_eq!(id2, 2);
        let runs = parse_history(&h2);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].run, runs[0].label.as_str()), (1, "first"));
        assert_eq!(runs[1].benchmarks.len(), 2);
        let sharded = &runs[1].benchmarks[1];
        assert_eq!(sharded.engine_threads, 4);
        let eff = sharded.parallel_efficiency.expect("parallel cell");
        assert!((eff - 0.125).abs() < 1e-9, "{eff}");
        assert!(
            runs[0].benchmarks[0].parallel_efficiency.is_none(),
            "sequential cells carry no efficiency"
        );
    }

    #[test]
    fn non_perf_documents_do_not_append() {
        assert!(append_run("", "{\"at_s\":0}\n", "x").is_none());
    }

    #[test]
    fn malformed_history_lines_are_skipped() {
        let (h, _) = append_run("", &report(60_000_000).to_json(), "ok").expect("appends");
        let dirty = format!("{{\"record\":\"bench\",\"run\":9,\"name\":\"orphan\"}}\n{h}garbage\n");
        let runs = parse_history(&dirty);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].benchmarks.len(), 2, "orphan and garbage dropped");
    }

    #[test]
    fn trend_joins_baseline_history_and_latest() {
        let baseline = report(60_000_000);
        let (history, _) = append_run("", &report(62_000_000).to_json(), "older").expect("appends");
        let latest = report_benchmarks(&report(58_000_000).to_json());
        let t = trend(&baseline.to_json(), &history, &latest);
        assert!(t.failures.is_empty(), "{:?}", t.failures);
        assert_eq!(t.rows.len(), 2);
        let row = &t.rows[0];
        assert_eq!(row.name, "simulated_day/BAAT");
        assert!(row.baseline_steps_per_sec.is_some());
        assert_eq!(row.history.len(), 1);
        assert!(row.delta_pct.expect("baseline present") > 0.0, "faster run");
        let rendered = t.render();
        assert!(rendered.contains("simulated_day/BAAT-sharded"));
        assert!(rendered.contains("1 run(s)"));
    }

    #[test]
    fn trend_gate_fails_on_regression_and_missing_baseline() {
        let baseline = report(60_000_000);
        // Half the throughput: well past the 20 % floor.
        let mut slow = report_benchmarks(&report(120_000_000).to_json());
        slow.push(BenchRecord {
            name: "new/bench".to_owned(),
            engine_threads: 1,
            steps_per_sec: 10.0,
            best_steps_per_sec: 11.0,
            parallel_efficiency: None,
        });
        let t = trend(&baseline.to_json(), "", &slow);
        assert_eq!(t.failures.len(), 3, "{:?}", t.failures);
        assert!(t.failures[2].contains("missing from the committed baseline"));
    }

    #[test]
    fn v1_documents_are_not_perf_reports() {
        let v1 = "{\n\"schema\": \"baat-perf-v1\",\n\"benchmarks\": [\n\
                  {\"name\":\"simulated_day/BAAT\",\"steps_per_sec\":48000.0,\"best_steps_per_sec\":50000.0}\n\
                  ]\n}\n";
        assert!(report_benchmarks(v1).is_empty());
        assert!(append_run("", v1, "old").is_none());
        let latest = report_benchmarks(&report(60_000_000).to_json());
        let t = trend(v1, "", &latest[..1]);
        assert_eq!(t.rows[0].baseline_steps_per_sec, None);
        assert!(t.failures[0].contains("missing from the committed baseline"));
    }
}
