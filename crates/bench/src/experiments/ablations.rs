//! Ablation studies for the reproduction's own design choices — not
//! paper figures, but the checks DESIGN.md commits to: battery topology
//! (paper Fig 7's two architectures), simulation timestep, manufacturing
//! variation, and control-interval sensitivity.

use baat_battery::VariationParams;
use baat_core::Scheme;
use baat_sim::{BatteryTopology, SimConfig};
use baat_solar::Weather;
use baat_units::{Fraction, SimDuration};

use crate::runner::{run_scenarios, runner_threads, Scenario, EXPERIMENT_DT};

fn base_builder(seed: u64) -> baat_sim::SimConfigBuilder {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![Weather::Cloudy, Weather::Rainy])
        .dt(EXPERIMENT_DT)
        .sample_every(40)
        .seed(seed);
    b
}

/// One topology comparison row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyRow {
    /// Number of battery pools (6 = per-server).
    pub pools: usize,
    /// The scheme measured.
    pub scheme: Scheme,
    /// Useful work (core-hours).
    pub work: f64,
    /// Worst-bank damage.
    pub worst_damage: f64,
    /// Worst-node critical (<15 % SoC) seconds.
    pub critical_secs: u64,
}

/// Fig 7 architecture ablation: per-server banks vs shared per-rack
/// pools, under e-Buff and BAAT. The six cells run in parallel.
pub fn topology(seed: u64) -> Vec<TopologyRow> {
    let specs: Vec<(usize, Scheme)> = [6usize, 2, 1]
        .iter()
        .flat_map(|&pools| {
            [Scheme::EBuff, Scheme::Baat]
                .into_iter()
                .map(move |scheme| (pools, scheme))
        })
        .collect();
    let cells = specs
        .iter()
        .map(|&(pools, scheme)| {
            let topology = if pools == 6 {
                BatteryTopology::PerServer
            } else {
                BatteryTopology::SharedPool { pools }
            };
            let mut b = base_builder(seed);
            b.topology(topology);
            Scenario::new(scheme, b.build().expect("config valid"))
        })
        .collect();
    specs
        .into_iter()
        .zip(run_scenarios(cells, runner_threads()))
        .map(|((pools, scheme), report)| TopologyRow {
            pools,
            scheme,
            work: report.total_work,
            worst_damage: report.worst_node().expect("nodes exist").damage,
            critical_secs: report
                .nodes
                .iter()
                .map(|n| n.soc_histogram[0].as_secs())
                .max()
                .unwrap_or(0),
        })
        .collect()
}

/// One timestep sensitivity row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimestepRow {
    /// Timestep seconds.
    pub dt_secs: u64,
    /// Useful work (core-hours).
    pub work: f64,
    /// Mean damage.
    pub mean_damage: f64,
}

/// Timestep-insensitivity check: results should drift only mildly across
/// dt = 10–120 s (the aging integrals are per-hour linear).
pub fn timestep(seed: u64) -> Vec<TimestepRow> {
    let dts = [10u64, 30, 60, 120];
    let cells = dts
        .iter()
        .map(|&dt| {
            let mut b = SimConfig::builder();
            b.weather_plan(vec![Weather::Cloudy])
                .dt(SimDuration::from_secs(dt))
                .control_interval(SimDuration::from_secs(dt.max(60)))
                .sample_every(40)
                .seed(seed);
            Scenario::new(Scheme::Baat, b.build().expect("config valid"))
        })
        .collect();
    dts.into_iter()
        .zip(run_scenarios(cells, runner_threads()))
        .map(|(dt_secs, report)| TimestepRow {
            dt_secs,
            work: report.total_work,
            mean_damage: report.mean_damage(),
        })
        .collect()
}

/// One manufacturing-variation row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationRow {
    /// Aging-rate spread half-width.
    pub rate_spread: f64,
    /// Damage spread (worst / best) under e-Buff.
    pub ebuff_spread: f64,
    /// Damage spread under BAAT (hiding should compress it).
    pub baat_spread: f64,
}

/// Manufacturing-variation ablation: §IV.B.1's aging variation grows with
/// unit spread; BAAT's hiding compresses the worst/best damage ratio. The
/// (spread × scheme) cells run in parallel.
pub fn variation(seed: u64) -> Vec<VariationRow> {
    let spreads = [0.0f64, 0.10, 0.25];
    let specs: Vec<(f64, Scheme)> = spreads
        .iter()
        .flat_map(|&spread| {
            [Scheme::EBuff, Scheme::Baat]
                .into_iter()
                .map(move |scheme| (spread, scheme))
        })
        .collect();
    let cells = specs
        .into_iter()
        .map(|(spread, scheme)| {
            let mut b = base_builder(seed);
            b.variation(
                VariationParams::new(
                    Fraction::saturating((spread / 3.0).min(0.12)),
                    Fraction::saturating(spread.min(0.3)),
                    Fraction::saturating(spread),
                )
                .expect("ablation spreads stay below 0.5"),
            );
            Scenario::new(scheme, b.build().expect("config valid"))
        })
        .collect();
    let ratios: Vec<f64> = run_scenarios(cells, runner_threads())
        .iter()
        .map(|report| {
            let worst = report.worst_node().expect("nodes exist").damage;
            let best = report
                .nodes
                .iter()
                .map(|n| n.damage)
                .fold(f64::INFINITY, f64::min);
            worst / best.max(1e-12)
        })
        .collect();
    spreads
        .iter()
        .zip(ratios.chunks(2))
        .map(|(&spread, chunk)| VariationRow {
            rate_spread: spread,
            ebuff_spread: chunk[0],
            baat_spread: chunk[1],
        })
        .collect()
}

/// One control-cadence row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CadenceRow {
    /// Control interval seconds.
    pub interval_secs: u64,
    /// Useful work under BAAT.
    pub work: f64,
    /// Worst damage under BAAT.
    pub worst_damage: f64,
}

/// Control-interval sensitivity: how slow can the BAAT controller tick
/// before it stops protecting batteries?
pub fn cadence(seed: u64) -> Vec<CadenceRow> {
    let intervals = [60u64, 300, 900];
    let cells = intervals
        .iter()
        .map(|&interval| {
            let mut b = base_builder(seed);
            b.control_interval(SimDuration::from_secs(interval));
            Scenario::new(Scheme::Baat, b.build().expect("config valid"))
        })
        .collect();
    intervals
        .into_iter()
        .zip(run_scenarios(cells, runner_threads()))
        .map(|(interval_secs, report)| CadenceRow {
            interval_secs,
            work: report.total_work,
            worst_damage: report.worst_node().expect("nodes exist").damage,
        })
        .collect()
}

/// Renders all four ablations.
pub fn render(seed: u64) -> String {
    let mut out = String::from("Topology (paper Fig 7 architectures):\n\n");
    let rows: Vec<Vec<String>> = topology(seed)
        .iter()
        .map(|r| {
            vec![
                if r.pools == 6 {
                    "per-server".into()
                } else {
                    format!("{} shared pool(s)", r.pools)
                },
                r.scheme.to_string(),
                format!("{:.0}", r.work),
                crate::table::f(r.worst_damage * 1000.0),
                r.critical_secs.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::table::markdown(
        &[
            "topology",
            "scheme",
            "work c-h",
            "worst dmg ×1000",
            "critical s",
        ],
        &rows,
    ));

    out.push_str("\nTimestep sensitivity (BAAT, one cloudy day):\n\n");
    let rows: Vec<Vec<String>> = timestep(seed)
        .iter()
        .map(|r| {
            vec![
                format!("{} s", r.dt_secs),
                format!("{:.0}", r.work),
                crate::table::f(r.mean_damage * 1000.0),
            ]
        })
        .collect();
    out.push_str(&crate::table::markdown(
        &["dt", "work c-h", "mean dmg ×1000"],
        &rows,
    ));

    out.push_str("\nManufacturing variation (worst/best damage ratio):\n\n");
    let rows: Vec<Vec<String>> = variation(seed)
        .iter()
        .map(|r| {
            vec![
                format!("±{:.0}%", r.rate_spread * 100.0),
                format!("{:.2}×", r.ebuff_spread),
                format!("{:.2}×", r.baat_spread),
            ]
        })
        .collect();
    out.push_str(&crate::table::markdown(
        &["aging-rate spread", "e-Buff spread", "BAAT spread"],
        &rows,
    ));

    out.push_str("\nControl cadence (BAAT):\n\n");
    let rows: Vec<Vec<String>> = cadence(seed)
        .iter()
        .map(|r| {
            vec![
                format!("{} s", r.interval_secs),
                format!("{:.0}", r.work),
                crate::table::f(r.worst_damage * 1000.0),
            ]
        })
        .collect();
    out.push_str(&crate::table::markdown(
        &["interval", "work c-h", "worst dmg ×1000"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestep_results_are_stable() {
        let rows = timestep(61);
        let w0 = rows[0].work;
        for r in &rows {
            assert!(
                (r.work - w0).abs() / w0 < 0.10,
                "work at dt={} drifted: {} vs {}",
                r.dt_secs,
                r.work,
                w0
            );
        }
    }

    #[test]
    fn per_server_and_shared_pool_both_work() {
        let rows = topology(61);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.work > 0.0, "{:?} did no work", r);
        }
    }

    #[test]
    fn variation_widens_ebuff_damage_spread() {
        let rows = variation(61);
        assert!(
            rows[2].ebuff_spread > rows[0].ebuff_spread,
            "spread {} should exceed none {}",
            rows[2].ebuff_spread,
            rows[0].ebuff_spread
        );
    }

    #[test]
    fn slower_control_weakens_protection() {
        let rows = cadence(61);
        // At a 15-minute tick the controller reacts late: damage must not
        // be *better* than the 1-minute tick.
        assert!(rows[2].worst_damage >= rows[0].worst_damage * 0.95);
    }
}
