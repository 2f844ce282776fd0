//! The determinism contract of the parallel scenario runner.
//!
//! The whole reproduction hangs on seeded runs being exactly replayable:
//! figures are compared against the paper by value, and CI asserts on
//! them. These tests pin the three load-bearing properties:
//!
//! 1. the same seed produces **bit-identical** reports across repeated
//!    runs in one process;
//! 2. thread count is unobservable — 1 worker and N workers produce
//!    identical report vectors for the same scenario list;
//! 3. distinct seeds actually change the stochastic inputs (no silent
//!    seed plumbing bug making every run identical).

use baat_battery::Chemistry;
use baat_bench::runner::{
    chemistry_day_config, day_config, faulted_day_config, fleet_config, plan_config, run_scenarios,
    run_scenarios_observed, scenario_seed, Scenario, OLD_BATTERY_DAMAGE,
};
use baat_core::{BaatConfig, PlannedAging, Scheme, SlowdownThresholds};
use baat_sim::{FaultMix, SimReport};
use baat_solar::Weather;
use baat_units::Soc;

/// A small but representative sweep: multiple schemes, weathers, day
/// counts, a pre-aged cell, a fault-injected cell (the degradation
/// path must replay exactly like the clean path), two configured
/// BAAT policies in a warm group with scheme cells, and an exact repeat
/// of the first cell, which the runner simulates once and clones.
fn sweep(seed: u64) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (i, weather) in [Weather::Sunny, Weather::Cloudy, Weather::Rainy]
        .into_iter()
        .enumerate()
    {
        for scheme in [Scheme::EBuff, Scheme::Baat] {
            scenarios.push(Scenario::new(
                scheme,
                day_config(weather, scenario_seed(seed, i)),
            ));
        }
    }
    scenarios.push(
        Scenario::new(
            Scheme::Baat,
            plan_config(vec![Weather::Cloudy, Weather::Rainy], seed),
        )
        .pre_aged(OLD_BATTERY_DAMAGE),
    );
    scenarios.push(Scenario::new(
        Scheme::Baat,
        faulted_day_config(Weather::Cloudy, seed, &FaultMix::light()),
    ));
    // A fleet-scale cell: scaled node count, PV and workload must replay
    // exactly like the 6-node prototype cells.
    scenarios.push(Scenario::new(
        Scheme::Baat,
        fleet_config(16, Weather::Cloudy, scenario_seed(seed, 9)),
    ));
    // A li-ion cell: the alternative chemistry must uphold the same
    // replay contract (thread-invariance, forking, seed sensitivity) as
    // the lead-acid model.
    scenarios.push(Scenario::new(
        Scheme::Baat,
        chemistry_day_config(Chemistry::LiIon, Weather::Cloudy, scenario_seed(seed, 12)),
    ));
    // Configured BAAT cells sharing the cloudy day's config with its
    // scheme cells: a Fig 16-style slowdown threshold and a Fig 22
    // planned-aging horizon must fork and replay like a scheme does.
    let cloudy = day_config(Weather::Cloudy, scenario_seed(seed, 1));
    scenarios.push(Scenario::new(
        BaatConfig {
            thresholds: SlowdownThresholds {
                deep_soc: Soc::saturating(0.30),
                recover_soc: Soc::saturating(0.38),
                ..SlowdownThresholds::default()
            },
            ..BaatConfig::default()
        },
        cloudy.clone(),
    ));
    scenarios.push(Scenario::new(
        BaatConfig {
            planned: Some(PlannedAging {
                service_days: 400.0,
                cycles_per_day: 1.0,
            }),
            ..BaatConfig::default()
        },
        cloudy,
    ));
    scenarios.push(scenarios[0].clone());
    scenarios
}

/// Every scenario of `sweep`, run from scratch one at a time: the oracle.
fn from_scratch(scenarios: Vec<Scenario>) -> Vec<SimReport> {
    scenarios.into_iter().map(Scenario::run).collect()
}

#[test]
fn same_seed_is_bit_identical_across_runs() {
    let first = run_scenarios(sweep(2015), 4);
    let second = run_scenarios(sweep(2015), 4);
    // SimReport derives PartialEq over every field, so == is a full
    // bit-for-bit comparison of the recorded traces.
    assert_eq!(first, second);
}

#[test]
fn thread_count_is_unobservable() {
    let sequential = run_scenarios(sweep(7), 1);
    for threads in [2, 4, 8] {
        let parallel = run_scenarios(sweep(7), threads);
        assert_eq!(
            sequential, parallel,
            "reports diverged between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn observation_is_invisible_to_reports() {
    // Running with metrics + stage profiling enabled must produce the
    // exact same reports as running with observation off, on 1 worker
    // and on N: the obs layer reads simulation state but never feeds
    // anything (not even timing) back into it.
    let plain = from_scratch(sweep(2015));
    for threads in [1, 4] {
        let observed = run_scenarios_observed(sweep(2015), threads);
        let reports: Vec<SimReport> = observed.iter().map(|r| r.report.clone()).collect();
        assert_eq!(
            plain, reports,
            "observed run diverged from plain run on {threads} worker threads"
        );
        // And the registries actually recorded something — the equality
        // above must not hold because observation silently no-opped.
        for run in &observed {
            assert!(
                !run.obs.snapshot().is_empty(),
                "enabled obs recorded no metrics"
            );
            assert!(
                !run.obs.stage_stats().is_empty(),
                "enabled obs recorded no stage timings"
            );
        }
    }
}

#[test]
fn snapshot_forking_is_unobservable() {
    // The forked sweep shares one warm policy-free prefix per scenario
    // group and forks each variant off it. Forking must be invisible:
    // forked reports equal from-scratch reports bit-for-bit, on 1 worker
    // and on N, across the clean / pre-aged / fault-injected /
    // configured-policy mix.
    let oracle = from_scratch(sweep(2015));
    for threads in [1, 2, 4, 8] {
        let forked = run_scenarios(sweep(2015), threads);
        assert_eq!(
            oracle, forked,
            "forked sweep diverged from from-scratch on {threads} worker threads"
        );
    }
}

#[test]
fn distinct_seeds_produce_distinct_traces() {
    let a = run_scenarios(sweep(1), 2);
    let b = run_scenarios(sweep(2), 2);
    let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    assert!(
        differing > 0,
        "changing the base seed changed nothing — seed plumbing is broken"
    );
}

#[test]
fn reports_preserve_scenario_order() {
    let reports: Vec<SimReport> = run_scenarios(sweep(11), 4);
    let schemes: Vec<&str> = reports.iter().map(|r| r.policy).collect();
    assert_eq!(
        schemes,
        [
            "e-Buff", "BAAT", "e-Buff", "BAAT", "e-Buff", "BAAT", "BAAT", "BAAT", "BAAT", "BAAT",
            "BAAT", "BAAT", "e-Buff"
        ]
    );
    // The repeated cell's report is its original's, in the repeat's slot.
    assert_eq!(reports[12], reports[0]);
    assert_ne!(reports[12], reports[2]);
}
