//! The performance-regression baseline: measurement records, the
//! `BENCH_10.json` serialization (schema `baat-perf-v2`), and the
//! >20 % steps/sec gate.
//!
//! The perf harness (`benches/perf.rs`) measures the hot paths, embeds
//! the pre-optimization wall-clocks recorded at the seed revision, and
//! emits the whole report as `BENCH_10.json` at the repository root.
//! `ci/check.sh` re-measures in `--check` mode and fails when any
//! benchmark's best observed throughput falls more than
//! [`TOLERANCE_PCT`] below the committed figure — catching perf
//! regressions the way goldens catch behavioural ones. The same gate
//! bounds tracing+health observability overhead on a faulted day to
//! [`OBS_OVERHEAD_LIMIT_NS_PER_STEP`] of absolute per-step cost.
//!
//! Schema v2 records the engine thread count **per benchmark row** and
//! **per stage row**. Parallel cells also carry `parallel_efficiency` —
//! speedup over the sequential twin divided by the thread count — so a
//! sharded cell running *slower* than sequential reads as efficiency
//! < 1/threads instead of hiding inside a wall-clock number.
//! [`normalized_lines`] reads a v2 document into the canonical row
//! shape `console diff` and the run registry consume; any other schema
//! is not a perf document to them.
//!
//! The file format is the in-tree [`baat_obs::json`] line style: one JSON
//! object per benchmark inside a plain JSON document, parseable with the
//! minimal scanner in [`committed_steps_per_sec`] (no external JSON
//! dependency, mirroring the hermetic-workspace rule).

use baat_obs::json::JsonLine;
use baat_obs::StageStats;

use crate::jsonq::{extract_f64, extract_str, extract_u64};

/// Allowed steps/sec shortfall (percent) before `--check` fails.
pub const TOLERANCE_PCT: f64 = 20.0;

/// The schema [`PerfReport::to_json`] writes and [`normalized_lines`]
/// reads.
pub const SCHEMA: &str = "baat-perf-v2";

/// Allowed wall-clock overhead of a fully observed faulted day —
/// metrics, tracing and health active — over the disabled run, in
/// nanoseconds per simulation step.
///
/// The limit is absolute rather than relative: a percentage gate
/// tightens every time the base simulation gets faster, failing runs
/// whose instrumentation cost never changed. 1 µs/step matches the
/// seed-era budget (5 % of the ~14 µs/step seed-revision day).
pub const OBS_OVERHEAD_LIMIT_NS_PER_STEP: f64 = 1_000.0;

/// Where the committed baseline lives, relative to the workspace root.
pub const BASELINE_FILE: &str = "BENCH_10.json";

/// One measured hot-path benchmark, with the seed-revision wall-clock it
/// is compared against.
#[derive(Debug, Clone)]
pub struct PerfBench {
    /// Benchmark id (`group/name`).
    pub name: String,
    /// Engine worker threads the cell ran at (1 = sequential path).
    pub engine_threads: usize,
    /// Work units (simulation steps, or 1 for whole-sweep wall-clocks)
    /// performed per iteration.
    pub steps_per_iter: u64,
    /// Mean wall-clock per iteration at the seed revision, in
    /// nanoseconds (the "before" of the before/after record).
    pub seed_mean_ns: u64,
    /// Measured mean wall-clock per iteration, in nanoseconds.
    pub mean_ns: u64,
    /// Fastest observed batch per iteration, in nanoseconds — the
    /// noise-robust figure the regression gate compares.
    pub min_ns: u64,
    /// Speedup over the same-revision sequential twin divided by
    /// [`engine_threads`](Self::engine_threads): 1.0 is perfect
    /// scaling, below `1/threads` means sharding made the cell slower
    /// than running sequentially. Set via
    /// [`record_parallel_efficiency`](Self::record_parallel_efficiency)
    /// on parallel cells; `None` (and not emitted) on sequential ones.
    pub parallel_efficiency: Option<f64>,
}

impl PerfBench {
    /// Mean throughput in steps (work units) per second.
    pub fn steps_per_sec(&self) -> f64 {
        per_sec(self.steps_per_iter, self.mean_ns)
    }

    /// Best-case throughput in steps per second (from the fastest batch).
    pub fn best_steps_per_sec(&self) -> f64 {
        per_sec(self.steps_per_iter, self.min_ns)
    }

    /// Wall-clock speedup over the seed revision (mean vs mean).
    pub fn speedup(&self) -> f64 {
        if self.mean_ns == 0 {
            return 0.0;
        }
        self.seed_mean_ns as f64 / self.mean_ns as f64
    }

    /// Records this cell's parallel efficiency against its sequential
    /// twin's **same-revision** measured mean (not the seed figure):
    /// `(seq_mean / mean) / engine_threads`.
    pub fn record_parallel_efficiency(&mut self, seq_mean_ns: u64) {
        if self.mean_ns == 0 || self.engine_threads == 0 {
            return;
        }
        self.parallel_efficiency =
            Some(seq_mean_ns as f64 / self.mean_ns as f64 / self.engine_threads as f64);
    }

    fn to_json(&self) -> String {
        let mut line = JsonLine::new();
        line.str_field("name", &self.name)
            .u64_field("engine_threads", self.engine_threads as u64)
            .u64_field("steps_per_iter", self.steps_per_iter)
            .u64_field("seed_mean_ns", self.seed_mean_ns)
            .u64_field("mean_ns", self.mean_ns)
            .u64_field("min_ns", self.min_ns)
            .f64_field("steps_per_sec", self.steps_per_sec())
            .f64_field("best_steps_per_sec", self.best_steps_per_sec())
            .f64_field("speedup_vs_seed", self.speedup());
        if let Some(eff) = self.parallel_efficiency {
            line.f64_field("parallel_efficiency", eff);
        }
        line.finish()
    }
}

fn per_sec(units: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    units as f64 * 1e9 / ns as f64
}

/// One per-stage profile of an observed simulated day, keyed by the
/// engine thread count it ran at. Rows from a sharded run record
/// **summed per-shard CPU time**, not wall time: comparing a row
/// against its 1-thread twin shows sharding overhead, while the
/// `simulated_day` benchmarks show the wall-clock effect.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Engine worker threads the profiled day ran at.
    pub engine_threads: usize,
    /// The per-stage ns/step profile from the `baat-obs` stage profiler.
    pub stages: Vec<StageStats>,
}

fn stage_row_json(
    stage: &str,
    engine_threads: u64,
    calls: u64,
    total_ns: u64,
    mean_ns: u64,
) -> String {
    let mut line = JsonLine::new();
    line.str_field("stage", stage)
        .u64_field("engine_threads", engine_threads)
        .u64_field("calls", calls)
        .u64_field("total_ns", total_ns)
        .u64_field("mean_ns", mean_ns);
    line.finish()
}

/// The full perf report emitted as `BENCH_10.json`.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// The gated hot-path benchmarks.
    pub benchmarks: Vec<PerfBench>,
    /// Per-stage profiles, one per engine thread count — serialized as
    /// a single `stages` table whose rows carry `engine_threads`.
    pub stage_profiles: Vec<StageProfile>,
    /// Heap allocations per engine step over one simulated day, measured
    /// by the counting allocator (only with `--features count-allocs`).
    pub allocs_per_step: Option<f64>,
    /// Wall-clock overhead of a fully observed faulted day — metrics,
    /// tracing and health active — over the disabled run, in absolute
    /// nanoseconds per simulation step: the figure gated against
    /// [`OBS_OVERHEAD_LIMIT_NS_PER_STEP`]. (An earlier revision also
    /// reported a percentage, dropped because it silently tightened as
    /// the base engine got faster and read as instrumentation churn.)
    pub obs_overhead_ns_per_step: Option<f64>,
}

impl PerfReport {
    /// Serializes the report as the `BENCH_10.json` document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n\"schema\": \"{SCHEMA}\",\n\"issue\": 10,\n");
        out.push_str(&format!("\"tolerance_pct\": {TOLERANCE_PCT},\n"));
        out.push_str("\"benchmarks\": [\n");
        for (i, b) in self.benchmarks.iter().enumerate() {
            out.push_str(&b.to_json());
            out.push_str(if i + 1 < self.benchmarks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\n\"stages\": [\n");
        let rows: Vec<String> = self
            .stage_profiles
            .iter()
            .flat_map(|p| {
                p.stages.iter().map(|s| {
                    stage_row_json(
                        s.stage.name(),
                        p.engine_threads as u64,
                        s.calls,
                        s.total_ns,
                        s.mean_ns(),
                    )
                })
            })
            .collect();
        for (i, row) in rows.iter().enumerate() {
            out.push_str(row);
            out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        if let Some(allocs) = self.allocs_per_step {
            let mut line = JsonLine::new();
            line.f64_field("allocs_per_step", allocs);
            out.push_str(",\n\"allocs\": ");
            out.push_str(&line.finish());
        }
        if let Some(ns) = self.obs_overhead_ns_per_step {
            let mut line = JsonLine::new();
            line.f64_field("obs_overhead_ns_per_step", ns)
                .f64_field("limit_ns_per_step", OBS_OVERHEAD_LIMIT_NS_PER_STEP);
            out.push_str(",\n\"obs_overhead\": ");
            out.push_str(&line.finish());
        }
        out.push_str("\n}\n");
        out
    }

    /// The observability-overhead gate: a failure line when the measured
    /// per-step overhead exceeds [`OBS_OVERHEAD_LIMIT_NS_PER_STEP`],
    /// else `None`.
    pub fn obs_overhead_failure(&self) -> Option<String> {
        let ns = self.obs_overhead_ns_per_step?;
        (ns > OBS_OVERHEAD_LIMIT_NS_PER_STEP).then(|| {
            format!(
                "obs overhead: traced faulted day costs {ns:.0} ns/step over the \
                 disabled run (limit {OBS_OVERHEAD_LIMIT_NS_PER_STEP} ns/step)"
            )
        })
    }

    /// Compares this (freshly measured) report against the committed
    /// baseline document. Returns human-readable failure lines, one per
    /// regressed benchmark; empty means the gate passes.
    ///
    /// The gate compares the fresh **best** observed throughput against
    /// the committed **mean** throughput: the best-of-batches figure is
    /// robust to scheduler noise on loaded CI machines, while the mean
    /// keeps the committed reference honest. The committed side may be
    /// either schema version (the scanner keys on benchmark name only).
    pub fn regressions_against(&self, committed: &str) -> Vec<String> {
        let baseline = committed_steps_per_sec(committed);
        let mut failures = Vec::new();
        for bench in &self.benchmarks {
            let Some(&reference) =
                baseline.iter().find_map(
                    |(name, v)| {
                        if *name == bench.name {
                            Some(v)
                        } else {
                            None
                        }
                    },
                )
            else {
                failures.push(format!(
                    "{}: missing from committed {BASELINE_FILE} — re-run with --update",
                    bench.name
                ));
                continue;
            };
            let floor = reference * (1.0 - TOLERANCE_PCT / 100.0);
            let measured = bench.best_steps_per_sec();
            if measured < floor {
                failures.push(format!(
                    "{}: {measured:.0} steps/s is more than {TOLERANCE_PCT}% below \
                     the committed {reference:.0} steps/s (floor {floor:.0})",
                    bench.name
                ));
            }
        }
        failures
    }
}

/// Extracts `(name, steps_per_sec)` pairs from a committed baseline
/// document.
///
/// Minimal scanner for the format [`PerfReport::to_json`] emits: each
/// benchmark is one line carrying both a `"name"` and a
/// `"steps_per_sec"` field.
pub fn committed_steps_per_sec(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = extract_str(line, "name") else {
            continue;
        };
        let Some(steps) = extract_f64(line, "steps_per_sec") else {
            continue;
        };
        out.push((name, steps));
    }
    out
}

/// The rest of the document after `"key":`, with leading whitespace
/// trimmed — tolerant of the pretty-printed `"key": value` style the
/// report's top-level fields use (the line scanners in [`crate::jsonq`]
/// require the compact `"key":value` the row lines use).
fn field_tail<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    Some(doc[start..].trim_start())
}

/// The document's top-level `"schema"` string, if it has one.
fn schema_name(doc: &str) -> Option<&str> {
    let tail = field_tail(doc, "schema")?.strip_prefix('"')?;
    Some(&tail[..tail.find('"')?])
}

/// The schema version of a perf report document (`2` for
/// `baat-perf-v2`). `None` when the document names no perf schema.
pub fn schema_version(json: &str) -> Option<u32> {
    schema_name(json)?.strip_prefix("baat-perf-v")?.parse().ok()
}

/// Reads a [`SCHEMA`] perf report into one canonical line-per-row
/// shape, the form `console diff` compares and the run registry parses:
///
/// ```text
/// {"kind":"bench","name":...,"engine_threads":N,"steps_per_sec":...}
/// {"kind":"stage","stage":...,"engine_threads":N,"calls":...,...}
/// {"kind":"allocs","allocs_per_step":...}
/// {"kind":"obs_overhead","obs_overhead_ns_per_step":...}
/// ```
///
/// Returns `None` for anything else, other perf schema generations
/// included.
pub fn normalized_lines(json: &str) -> Option<Vec<String>> {
    if schema_name(json)? != SCHEMA {
        return None;
    }
    let mut out = Vec::new();
    for line in json.lines() {
        if let (Some(name), Some(sps)) = (
            extract_str(line, "name"),
            extract_f64(line, "steps_per_sec"),
        ) {
            let mut l = JsonLine::new();
            l.str_field("kind", "bench")
                .str_field("name", &name)
                .u64_field(
                    "engine_threads",
                    extract_u64(line, "engine_threads").unwrap_or(1),
                )
                .f64_field("steps_per_sec", sps);
            if let Some(best) = extract_f64(line, "best_steps_per_sec") {
                l.f64_field("best_steps_per_sec", best);
            }
            if let Some(eff) = extract_f64(line, "parallel_efficiency") {
                l.f64_field("parallel_efficiency", eff);
            }
            out.push(l.finish());
        } else if let Some(stage) = extract_str(line, "stage") {
            let mut l = JsonLine::new();
            l.str_field("kind", "stage")
                .str_field("stage", &stage)
                .u64_field(
                    "engine_threads",
                    extract_u64(line, "engine_threads").unwrap_or(1),
                )
                .u64_field("calls", extract_u64(line, "calls").unwrap_or(0))
                .u64_field("total_ns", extract_u64(line, "total_ns").unwrap_or(0))
                .u64_field("mean_ns", extract_u64(line, "mean_ns").unwrap_or(0));
            out.push(l.finish());
        } else if let Some(v) = extract_f64(line, "allocs_per_step") {
            let mut l = JsonLine::new();
            l.str_field("kind", "allocs")
                .f64_field("allocs_per_step", v);
            out.push(l.finish());
        } else if let Some(v) = extract_f64(line, "obs_overhead_ns_per_step") {
            let mut l = JsonLine::new();
            l.str_field("kind", "obs_overhead")
                .f64_field("obs_overhead_ns_per_step", v);
            out.push(l.finish());
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_obs::Stage;

    fn bench(name: &str, threads: usize, mean_ns: u64, min_ns: u64) -> PerfBench {
        PerfBench {
            name: name.to_owned(),
            engine_threads: threads,
            steps_per_iter: 2880,
            seed_mean_ns: 176_660_000,
            mean_ns,
            min_ns,
            parallel_efficiency: None,
        }
    }

    fn report() -> PerfReport {
        PerfReport {
            benchmarks: vec![
                bench("simulated_day/BAAT", 1, 68_480_000, 61_290_000),
                PerfBench {
                    name: "sweep/fig03_05".to_owned(),
                    engine_threads: 1,
                    steps_per_iter: 1,
                    seed_mean_ns: 279_820,
                    mean_ns: 132_830,
                    min_ns: 124_790,
                    parallel_efficiency: None,
                },
            ],
            stage_profiles: Vec::new(),
            allocs_per_step: None,
            obs_overhead_ns_per_step: None,
        }
    }

    #[test]
    fn round_trips_through_the_scanner() {
        let r = report();
        let parsed = committed_steps_per_sec(&r.to_json());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "simulated_day/BAAT");
        assert!((parsed[0].1 - r.benchmarks[0].steps_per_sec()).abs() < 1.0);
        assert!((parsed[1].1 - r.benchmarks[1].steps_per_sec()).abs() < 1.0);
    }

    #[test]
    fn speedup_is_seed_over_current() {
        let r = report();
        assert!((r.benchmarks[0].speedup() - 176_660_000.0 / 68_480_000.0).abs() < 1e-9);
    }

    #[test]
    fn identical_measurement_passes_the_gate() {
        let r = report();
        assert!(r.regressions_against(&r.to_json()).is_empty());
    }

    #[test]
    fn large_regression_fails_the_gate() {
        let mut slow = report();
        let committed = slow.to_json();
        for b in &mut slow.benchmarks {
            b.mean_ns *= 2;
            b.min_ns *= 2;
        }
        let failures = slow.regressions_against(&committed);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn small_wobble_passes_the_gate() {
        let mut wobbly = report();
        let committed = wobbly.to_json();
        for b in &mut wobbly.benchmarks {
            // 10 % slower stays inside the 20 % tolerance.
            b.mean_ns = b.mean_ns + b.mean_ns / 10;
            b.min_ns = b.min_ns + b.min_ns / 10;
        }
        assert!(wobbly.regressions_against(&committed).is_empty());
    }

    #[test]
    fn obs_overhead_gate_trips_only_past_the_limit() {
        let mut r = report();
        assert!(r.obs_overhead_failure().is_none(), "unmeasured passes");
        r.obs_overhead_ns_per_step = Some(OBS_OVERHEAD_LIMIT_NS_PER_STEP - 500.0);
        assert!(
            r.obs_overhead_failure().is_none(),
            "absolute cost under the limit passes"
        );
        let json = r.to_json();
        assert!(json.contains("\"obs_overhead_ns_per_step\":500"));
        assert!(
            !json.contains("obs_overhead_pct"),
            "the misleading percentage figure is gone"
        );
        r.obs_overhead_ns_per_step = Some(OBS_OVERHEAD_LIMIT_NS_PER_STEP + 250.0);
        let failure = r.obs_overhead_failure().expect("over the limit fails");
        assert!(failure.contains("1250 ns/step"), "{failure}");
    }

    #[test]
    fn stage_rows_carry_their_thread_count() {
        let mut r = report();
        let row = |total_ns| StageStats {
            stage: Stage::BatteryStep,
            calls: 72,
            total_ns,
        };
        r.stage_profiles = vec![
            StageProfile {
                engine_threads: 1,
                stages: vec![row(7_200)],
            },
            StageProfile {
                engine_threads: 4,
                stages: vec![row(9_600)],
            },
        ];
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"baat-perf-v2\""));
        assert!(
            !json.contains("stages_parallel"),
            "the duplicated v1 twin table is gone"
        );
        assert!(json.contains(
            "{\"stage\":\"battery_step\",\"engine_threads\":1,\"calls\":72,\"total_ns\":7200"
        ));
        assert!(json.contains(
            "{\"stage\":\"battery_step\",\"engine_threads\":4,\"calls\":72,\"total_ns\":9600"
        ));
        // Stage rows carry no name/steps_per_sec pair, so the benchmark
        // scanner still sees exactly the benchmarks.
        assert_eq!(committed_steps_per_sec(&json).len(), 2);
    }

    #[test]
    fn parallel_efficiency_rides_on_parallel_cells_only() {
        let mut r = report();
        let mut sharded = bench("simulated_day/BAAT-sharded", 4, 137_000_000, 130_000_000);
        sharded.record_parallel_efficiency(r.benchmarks[0].mean_ns);
        let eff = sharded.parallel_efficiency.expect("recorded");
        // 68.48 ms sequential vs 137 ms on 4 threads: eff = 0.5/4.
        assert!((eff - 68_480_000.0 / 137_000_000.0 / 4.0).abs() < 1e-12);
        r.benchmarks.push(sharded);
        let json = r.to_json();
        assert_eq!(json.matches("parallel_efficiency").count(), 1);
        assert!(json.contains("\"engine_threads\":4"));
    }

    #[test]
    fn missing_benchmark_is_reported() {
        let committed = report().to_json();
        let mut extra = report();
        extra.benchmarks.push(bench("new/bench", 1, 100, 90));
        let failures = extra.regressions_against(&committed);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    /// A first-generation document: one global `engine_threads` and
    /// split `stages`/`stages_parallel` tables.
    const V1_DOC: &str = "{\n\"schema\": \"baat-perf-v1\",\n\"issue\": 9,\n\
         \"benchmarks\": [\n\
         {\"name\":\"simulated_day/BAAT\",\"steps_per_iter\":2880,\"mean_ns\":68480000,\"steps_per_sec\":42056.08}\n\
         ],\n\"stages\": [\n\
         {\"stage\":\"solar\",\"calls\":72,\"total_ns\":23487,\"mean_ns\":326}\n\
         ],\n\"engine_threads\": 4,\n\"stages_parallel\": []\n}\n";

    #[test]
    fn schema_version_reads_the_schema_field() {
        assert_eq!(schema_version(V1_DOC), Some(1));
        assert_eq!(schema_version(&report().to_json()), Some(2));
        assert_eq!(schema_version("{\"at_s\":0}"), None);
    }

    #[test]
    fn other_schema_generations_are_not_perf_documents() {
        assert!(normalized_lines(V1_DOC).is_none(), "v1");
        let v3 = report().to_json().replace(SCHEMA, "baat-perf-v20");
        assert!(normalized_lines(&v3).is_none(), "a longer version number");
        for malformed in [
            "",
            "{\"schema\":",
            "{\"schema\": 2}",
            "{\"schema\": \"baat-perf-v2",
        ] {
            assert!(normalized_lines(malformed).is_none(), "{malformed:?}");
        }
    }

    #[test]
    fn v2_normalization_matches_its_own_rows() {
        let mut r = report();
        r.stage_profiles = vec![StageProfile {
            engine_threads: 8,
            stages: vec![StageStats {
                stage: Stage::Solar,
                calls: 10,
                total_ns: 1000,
            }],
        }];
        let lines = normalized_lines(&r.to_json()).expect("perf doc");
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"stage\"") && l.contains("\"engine_threads\":8")));
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"bench\""))
                .count(),
            2
        );
        assert!(normalized_lines("{\"name\":\"x\"}").is_none(), "non-perf");
    }
}
