//! Micro-benchmarks of the substrate hot paths: how fast the simulator
//! itself runs (battery step, engine day, metric computation).
//!
//! Runs on the in-tree [`baat_testkit::bench`] harness; pass `--quick`
//! (or `BAAT_BENCH_QUICK=1`) for a smoke run.

use baat_battery::{Battery, BatteryModel, BatteryOp, BatterySpec};
use baat_core::Scheme;
use baat_metrics::{AgingMetrics, BatteryRatings};
use baat_obs::Obs;
use baat_sim::{run_simulation, run_simulation_observed, SimConfig};
use baat_solar::Weather;
use baat_testkit::bench::Harness;
use baat_units::{AmpHours, Celsius, SimDuration, SimInstant, Watts};
use std::hint::black_box;

fn bench_battery_step(h: &mut Harness) {
    let mut battery = Battery::new(BatterySpec::prototype());
    let dt = SimDuration::from_secs(30);
    let mut now = SimInstant::START;
    h.bench("battery_step_discharge", || {
        let r = battery.step(
            BatteryOp::Discharge(Watts::new(80.0)),
            Celsius::new(25.0),
            now,
            dt,
        );
        now += dt;
        if battery.soc().value() < 0.2 {
            battery.set_soc(baat_units::Soc::FULL);
        }
        black_box(r)
    });
}

fn bench_metrics(h: &mut Harness) {
    let mut battery = Battery::new(BatterySpec::prototype());
    let dt = SimDuration::from_secs(30);
    let mut now = SimInstant::START;
    for _ in 0..1000 {
        battery.step(
            BatteryOp::Discharge(Watts::new(80.0)),
            Celsius::new(25.0),
            now,
            dt,
        );
        now += dt;
    }
    let ratings = BatteryRatings {
        capacity: AmpHours::new(35.0),
        lifetime_throughput: AmpHours::new(17_500.0),
    };
    h.bench("aging_metrics_from_accumulator", || {
        black_box(AgingMetrics::from_accumulator(
            battery.telemetry().lifetime(),
            &ratings,
        ))
    });
}

fn day_config() -> SimConfig {
    let mut cfg = SimConfig::builder();
    cfg.weather_plan(vec![Weather::Cloudy])
        .dt(SimDuration::from_secs(30))
        .sample_every(40)
        .seed(1);
    cfg.build().expect("valid")
}

fn bench_simulated_day(h: &mut Harness) {
    let mut g = h.group("simulated_day");
    for scheme in [Scheme::EBuff, Scheme::Baat] {
        g.bench(scheme.name(), || {
            let report = run_simulation(day_config(), &mut scheme.build()).expect("runs");
            black_box(report.total_work)
        });
    }
}

/// The same simulated day with the full observability stack live:
/// per-stage profiler, engine/policy counters, aging gauges. Comparing
/// `simulated_day_observed/BAAT` against `simulated_day/BAAT` measures
/// the profiler + metrics overhead, which must stay under 1 µs/step.
fn bench_simulated_day_observed(h: &mut Harness) {
    let mut g = h.group("simulated_day_observed");
    for scheme in [Scheme::EBuff, Scheme::Baat] {
        g.bench(scheme.name(), || {
            let obs = Obs::enabled();
            let mut policy = scheme.build_observed(&obs);
            let report = run_simulation_observed(day_config(), &mut policy, obs).expect("runs");
            black_box(report.total_work)
        });
    }
}

/// Prints the observed-vs-plain overhead per scheme from the measured
/// samples (best-effort: only when both variants ran under this filter).
fn report_obs_overhead(h: &Harness) {
    let mean_of = |id: &str| {
        h.results()
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.mean.as_secs_f64())
    };
    for scheme in [Scheme::EBuff, Scheme::Baat] {
        let plain = mean_of(&format!("simulated_day/{}", scheme.name()));
        let observed = mean_of(&format!("simulated_day_observed/{}", scheme.name()));
        if let (Some(plain), Some(observed)) = (plain, observed) {
            if plain > 0.0 {
                println!(
                    "obs overhead {}: {:+.2}%",
                    scheme.name(),
                    (observed / plain - 1.0) * 100.0
                );
            }
        }
    }
}

fn main() {
    let mut h = Harness::from_args();
    bench_battery_step(&mut h);
    bench_metrics(&mut h);
    bench_simulated_day(&mut h);
    bench_simulated_day_observed(&mut h);
    report_obs_overhead(&h);
    h.finish();
}
