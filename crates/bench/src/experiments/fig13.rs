//! Figure 13: aging-metric comparison of the four power-management
//! schemes across {sunny, cloudy} × {young, old} batteries.
//!
//! Paper findings to reproduce in shape: (1) batteries age faster in
//! harsh conditions (e-Buff's cloudy Ah-throughput ≫ its sunny one);
//! (2) e-Buff cycles ~1.3× more Ah than BAAT on average, up to ~2.1× in
//! the worst case; (3) weighting the metrics with Eq 6, BAAT cuts
//! worst-case (cloudy + old) aging speed by ~38 %.

use baat_core::Scheme;
use baat_metrics::weighted_aging;
use baat_sim::SimReport;
use baat_solar::Weather;
use baat_workload::{DemandClass, EnergyDemand, PowerDemand};

use crate::runner::{
    day_config, run_scenarios, run_scenarios_observed, runner_threads, write_perf_report, Scenario,
    OLD_BATTERY_DAMAGE,
};

/// One cell of the comparison matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonCell {
    /// The scheme compared.
    pub scheme: Scheme,
    /// Weather of the matched day.
    pub weather: Weather,
    /// `true` for the pre-aged ("old") battery stage.
    pub old: bool,
    /// Worst-node NAT over the day.
    pub nat: f64,
    /// Worst-node charge factor.
    pub cf: Option<f64>,
    /// Worst-node Eq-4 partial cycling.
    pub pc: f64,
    /// Worst-node Eq-6 weighted aging value.
    pub weighted: f64,
    /// Mean damage added across nodes this day.
    pub damage: f64,
}

/// The full Fig 13 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingComparison {
    /// All cells: 4 schemes × 2 weathers × 2 ages.
    pub cells: Vec<ComparisonCell>,
}

/// The Eq-6 class used for the paper's comparison ("using Eq-6 with same
/// weighting factors").
const CLASS: DemandClass = DemandClass {
    power: PowerDemand::Large,
    energy: EnergyDemand::More,
};

impl AgingComparison {
    /// Looks up one cell.
    pub fn cell(&self, scheme: Scheme, weather: Weather, old: bool) -> &ComparisonCell {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme && c.weather == weather && c.old == old)
            .expect("full matrix")
    }

    /// e-Buff's cloudy-vs-sunny Ah inflation (paper: ~+35 %).
    pub fn ebuff_cloudy_inflation(&self) -> f64 {
        let sunny = self.cell(Scheme::EBuff, Weather::Sunny, false).nat;
        let cloudy = self.cell(Scheme::EBuff, Weather::Cloudy, false).nat;
        cloudy / sunny - 1.0
    }

    /// Mean e-Buff/BAAT Ah-throughput ratio across the matrix (paper:
    /// ~1.3×).
    pub fn mean_ah_ratio(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0.0;
        for weather in [Weather::Sunny, Weather::Cloudy] {
            for old in [false, true] {
                let e = self.cell(Scheme::EBuff, weather, old).nat;
                let b = self.cell(Scheme::Baat, weather, old).nat;
                if b > 0.0 {
                    sum += e / b;
                    n += 1.0;
                }
            }
        }
        sum / n
    }

    /// Worst-case (cloudy + old) aging-speed reduction of BAAT vs e-Buff,
    /// by daily damage (paper: ~38 % by weighted metrics).
    pub fn worst_case_aging_reduction(&self) -> f64 {
        let e = self.cell(Scheme::EBuff, Weather::Cloudy, true).damage;
        let b = self.cell(Scheme::Baat, Weather::Cloudy, true).damage;
        1.0 - b / e
    }

    /// Worst-case weighted-aging (Eq 6) reduction of BAAT vs e-Buff.
    pub fn worst_case_weighted_reduction(&self) -> f64 {
        let e = self.cell(Scheme::EBuff, Weather::Cloudy, true).weighted;
        let b = self.cell(Scheme::Baat, Weather::Cloudy, true).weighted;
        if e > 0.0 {
            1.0 - b / e
        } else {
            0.0
        }
    }
}

fn sweep(seed: u64) -> (Vec<(Scheme, Weather, bool)>, Vec<Scenario>) {
    let mut specs = Vec::with_capacity(16);
    let mut scenarios = Vec::with_capacity(16);
    for weather in [Weather::Sunny, Weather::Cloudy] {
        for old in [false, true] {
            for scheme in Scheme::ALL {
                // Matched days: identical config seed ⇒ identical solar
                // trace and workload arrivals (the paper matches days by
                // similarity of solar logs).
                let mut scenario = Scenario::new(scheme, day_config(weather, seed));
                if old {
                    scenario = scenario.pre_aged(OLD_BATTERY_DAMAGE);
                }
                specs.push((scheme, weather, old));
                scenarios.push(scenario);
            }
        }
    }
    (specs, scenarios)
}

/// Builds the comparison matrix from the sweep's reports, in sweep order.
fn comparison<'a>(
    specs: &[(Scheme, Weather, bool)],
    reports: impl IntoIterator<Item = &'a SimReport>,
) -> AgingComparison {
    let cells = specs
        .iter()
        .zip(reports)
        .map(|(&(scheme, weather, old), report)| {
            let worst = report.worst_node().expect("nodes exist");
            let base = if old { OLD_BATTERY_DAMAGE } else { 0.0 };
            ComparisonCell {
                scheme,
                weather,
                old,
                nat: worst.lifetime_metrics.nat,
                cf: worst.lifetime_metrics.cf,
                pc: worst.lifetime_metrics.pc.weighted_value(),
                weighted: weighted_aging(&worst.lifetime_metrics, CLASS),
                damage: report.mean_damage() - base,
            }
        })
        .collect();
    AgingComparison { cells }
}

/// Runs the 4×2×2 comparison on matched solar days, fanned out across
/// the parallel scenario runner.
pub fn run(seed: u64) -> AgingComparison {
    let (specs, scenarios) = sweep(seed);
    comparison(&specs, &run_scenarios(scenarios, runner_threads()))
}

/// [`run`] with per-scenario perf + counter reports written to `dir`
/// (`fig13_<scheme>_<weather>_<age>.perf.jsonl`). The returned matrix is
/// bit-identical to [`run`]'s: observation never perturbs a run.
///
/// # Errors
///
/// Propagates filesystem errors writing the perf reports.
pub fn run_observed(seed: u64, dir: &std::path::Path) -> std::io::Result<AgingComparison> {
    let (specs, scenarios) = sweep(seed);
    let runs = run_scenarios_observed(scenarios, runner_threads());
    for (&(scheme, weather, old), run) in specs.iter().zip(&runs) {
        let label = format!(
            "fig13_{}_{}_{}",
            scheme.name().to_lowercase().replace('-', "_"),
            format!("{weather:?}").to_lowercase(),
            if old { "old" } else { "young" }
        );
        write_perf_report(dir, &label, run)?;
    }
    Ok(comparison(&specs, runs.iter().map(|run| &run.report)))
}

/// Renders the matrix plus headline ratios.
pub fn render(c: &AgingComparison) -> String {
    let rows: Vec<Vec<String>> = c
        .cells
        .iter()
        .map(|cell| {
            vec![
                cell.scheme.to_string(),
                cell.weather.to_string(),
                if cell.old { "old" } else { "young" }.into(),
                crate::table::f(cell.nat * 1000.0),
                cell.cf.map_or("—".into(), crate::table::f),
                crate::table::f(cell.pc),
                crate::table::f(cell.weighted),
                crate::table::f(cell.damage * 1000.0),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &[
            "scheme",
            "weather",
            "age",
            "NAT ×1000",
            "CF",
            "PC",
            "Eq-6 weighted",
            "damage ×1000",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\ne-Buff cloudy Ah inflation: {} (paper ~35%)\n\
         mean e-Buff/BAAT Ah ratio: {:.2}× (paper ~1.3×)\n\
         worst-case aging reduction (damage): {} — weighted (Eq 6): {} (paper ~38%)\n",
        crate::table::pct(c.ebuff_cloudy_inflation()),
        c.mean_ah_ratio(),
        crate::table::pct(c.worst_case_aging_reduction()),
        crate::table::pct(c.worst_case_weighted_reduction()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_complete_and_ordered() {
        let c = run(5);
        assert_eq!(c.cells.len(), 16);
        // Cloudy stresses the battery more than sunny for e-Buff.
        assert!(c.ebuff_cloudy_inflation() > 0.0);
    }

    #[test]
    fn baat_reduces_worst_case_aging() {
        let c = run(5);
        assert!(
            c.worst_case_aging_reduction() > 0.0,
            "BAAT must age slower than e-Buff in the worst case: {}",
            c.worst_case_aging_reduction()
        );
    }
}
