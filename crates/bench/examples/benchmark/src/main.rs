//! Host-time benchmark of the BAAT simulator: end-to-end metrics from
//! untraced reps, per-layer metrics from a traced run, and a check that
//! the simulated results are exactly the expected ones.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/examples/benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed S] [--seconds S] [--reps N] \
//!     [--trace 0|1 | --traced] [--smoke] [--out DIR]
//! ... -- --compare SET_A SET_B       # two sets of result.json, one per run
//! ... -- --regen-expected            # print a fresh expected.json
//! ```
//!
//! Every metric is printed as `workload metric value unit`; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics of
//! `BENCHMARK.json`, or its per-layer ones with `--trace 1`). The full
//! record goes to `DIR/result.json`, and a traced run's spans to
//! `DIR/spans.jsonl`. See README.md for every name, unit and bound.

mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use baat_bench::jsonq;
use baat_obs::json::JsonLine;

use metrics::Report;
use workloads::{Scale, Workload};

/// The seed whose outputs `expected.json` always covers.
const DEFAULT_SEED: u64 = 7;

/// Seeds `--regen-expected` records outputs for at full scale.
const EXPECTED_SEEDS: std::ops::RangeInclusive<u64> = 0..=31;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    traced: bool,
    scale: Scale,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    regen: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload NAME|all] [--seed S] [--seconds S] [--reps N] \
         [--trace 0|1|--traced] [--smoke] [--out DIR]\n       \
         benchmark --compare SET_A SET_B\n       benchmark --regen-expected\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let default_out = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark");
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        reps: None,
        traced: false,
        scale: Scale::Full,
        out: default_out,
        compare: None,
        regen: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).unwrap_or_else(|| usage())),
                }
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--reps" => {
                args.reps = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                args.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.scale = Scale::Smoke,
            "--out" => args.out = PathBuf::from(value()),
            "--compare" => args.compare = Some((PathBuf::from(value()), PathBuf::from(value()))),
            "--regen-expected" => args.regen = true,
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        return metrics::compare_sets(a, b);
    }
    if args.regen {
        regen_expected();
        return ExitCode::SUCCESS;
    }
    let report = match args.workload {
        Some(w) => Ok(run_one(w, &args)),
        None => run_all(&args),
    };
    match report {
        Ok(report) => {
            print!("{}", report.text_lines());
            if let Err(e) = write_outputs(&args, &report) {
                eprintln!(
                    "benchmark: cannot write outputs to {}: {e}",
                    args.out.display()
                );
                return ExitCode::FAILURE;
            }
            println!("{}", report.summary_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(w: Workload, args: &Args) -> Report {
    let expected = expected_hash(args.scale, w, args.seed);
    if args.traced {
        metrics::run_traced(w, args.seed, args.scale, expected)
    } else {
        let reps = args.reps.or((args.scale == Scale::Smoke).then_some(1));
        metrics::run_untraced(w, args.seed, args.scale, args.seconds, reps, expected)
    }
}

/// Runs every workload in a process of its own, so each one's peak RSS
/// is its own, and merges their reports.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut merged = Report::merged(args.seed, args.traced);
    for w in Workload::ALL {
        let out = args.out.join(w.name());
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(n) = args.reps {
            cmd.args(["--reps", &n.to_string()]);
        }
        if args.scale == Scale::Smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let result = std::fs::read_to_string(out.join("result.json")).unwrap_or_default();
        let child = Report::from_result_json(w, &result);
        if !status.success() && child.correct() {
            return Err(format!("{} exited with {status}", w.name()));
        }
        merged.absorb(child);
    }
    Ok(merged)
}

fn write_outputs(args: &Args, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    std::fs::write(
        args.out.join("result.json"),
        report.result_json(&run_header(args)),
    )?;
    if let Some(spans) = report.spans_jsonl() {
        std::fs::write(args.out.join("spans.jsonl"), spans)?;
    }
    Ok(())
}

/// The run header: what ran, where, and on which build.
fn run_header(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let mut line = JsonLine::new();
    line.str_field("schema", "baat-benchmark-v1")
        .str_field("workload", args.workload.map_or("all", Workload::name))
        .u64_field("seed", args.seed)
        .bool_field("traced", args.traced)
        .bool_field("smoke", args.scale == Scale::Smoke)
        .u64_field("nproc", nproc as u64)
        .str_field("cpu", &cpu)
        .str_field("rustc", &command_line("rustc", &["--version"]))
        .str_field("git", &command_line("git", &["rev-parse", "HEAD"]));
    line.finish()
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The committed outputs: final state hashes per scale, workload and
/// seed (see `expected.json` for how to regenerate them).
const EXPECTED: &str = include_str!("../expected.json");

fn expected_key(scale: Scale, w: Workload, seed: u64) -> String {
    let scale = if scale == Scale::Smoke {
        "smoke"
    } else {
        "full"
    };
    format!("{scale}/{}/{seed}", w.name())
}

fn expected_hash(scale: Scale, w: Workload, seed: u64) -> Option<u64> {
    jsonq::extract_str(EXPECTED, &expected_key(scale, w, seed))
        .and_then(|h| u64::from_str_radix(&h, 16).ok())
}

/// Prints a fresh `expected.json`: one untraced rep per workload and
/// seed, full scale for [`EXPECTED_SEEDS`], smoke scale for the default
/// seed.
fn regen_expected() {
    let mut cells: Vec<(Scale, Workload, u64)> = Vec::new();
    for w in Workload::ALL {
        cells.extend(EXPECTED_SEEDS.map(|s| (Scale::Full, w, s)));
        cells.push((Scale::Smoke, w, DEFAULT_SEED));
    }
    println!("{{");
    println!(
        "\"about\":\"Final state hashes (FNV-1a of the rendered text for paper_figures) per \
         scale/workload/seed; a rep whose hash differs counts as failed.\","
    );
    println!(
        "\"regenerate\":\"cargo run --release --manifest-path \
         crates/bench/examples/benchmark/Cargo.toml -- --regen-expected > \
         crates/bench/examples/benchmark/expected.json\","
    );
    for (i, &(scale, w, seed)) in cells.iter().enumerate() {
        eprintln!(
            "[{}/{}] {}",
            i + 1,
            cells.len(),
            expected_key(scale, w, seed)
        );
        let hash = metrics::rep(w, seed, scale)
            .unwrap_or_else(|e| panic!("{}: {e}", expected_key(scale, w, seed)))
            .hash;
        let sep = if i + 1 == cells.len() { "" } else { "," };
        println!("\"{}\":\"{hash:016x}\"{sep}", expected_key(scale, w, seed));
    }
    println!("}}");
}

/// Keeps `BENCHMARK.json` and the metric tables in step.
#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{E2E, PER_LAYER};
    use std::path::Path;

    fn benchmark_json() -> String {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../BENCHMARK.json");
        std::fs::read_to_string(root).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json = benchmark_json();
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .lines()
                .filter(|l| l.contains("\"name\""))
                .map(str::to_owned)
                .collect()
        };
        let e2e = section("end_to_end");
        let json_e2e: Vec<_> = E2E.iter().filter(|m| m.in_summary).collect();
        assert_eq!(e2e.len(), json_e2e.len());
        for (line, m) in e2e.iter().zip(json_e2e) {
            let line = line.replace(' ', "");
            assert_eq!(jsonq::extract_str(&line, "name").as_deref(), Some(m.name));
            assert_eq!(jsonq::extract_str(&line, "unit").as_deref(), Some(m.unit));
            assert_eq!(
                jsonq::extract_str(&line, "better").as_deref(),
                Some(m.better.name())
            );
            assert_eq!(jsonq::extract_f64(&line, "bound"), Some(m.bound));
        }
        let layers = section("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (line, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            let line = line.replace(' ', "");
            assert_eq!(jsonq::extract_str(&line, "name").as_deref(), Some(name));
            assert_eq!(jsonq::extract_str(&line, "unit").as_deref(), Some(unit));
            assert_eq!(
                jsonq::extract_str(&line, "better").as_deref(),
                Some(better.name())
            );
        }
        let workloads = section("workloads");
        let names: Vec<_> = workloads
            .iter()
            .map(|l| jsonq::extract_str(&l.replace("\": \"", "\":\""), "name").expect("name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn expected_outputs_cover_the_default_seed() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Smoke] {
                assert!(
                    expected_hash(scale, w, DEFAULT_SEED).is_some(),
                    "{}",
                    w.name()
                );
            }
        }
    }
}
