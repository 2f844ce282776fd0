//! Figure 21: performance improvement vs the planned depth of discharge.
//!
//! Planned aging lets the controller deepen the allowed DoD (replacing
//! the 40 % line with `1 − DoD_goal`, §IV.D). The paper observes the
//! performance improvement is *not linear*: going 40 % → 60 % helps
//! visibly, while 70 % → 90 % adds little (the battery spends too long at
//! very low SoC).

use baat_core::{BaatConfig, SlowdownThresholds};
use baat_solar::Weather;
use baat_units::Soc;

use crate::runner::plan_config;

/// One planned-DoD sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DodPoint {
    /// The planned depth of discharge.
    pub dod: f64,
    /// Useful work under planned-aging BAAT (core-hours).
    pub work: f64,
    /// Daily damage accrued (the lifetime cost of the deeper DoD).
    pub daily_damage: f64,
}

/// The Fig 21 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedDodSweep {
    /// Points, shallow to deep.
    pub points: Vec<DodPoint>,
    /// e-Buff work on the same days (reference).
    pub ebuff_work: f64,
}

impl PlannedDodSweep {
    /// Marginal performance gains between consecutive DoD steps.
    pub fn marginal_gains(&self) -> Vec<f64> {
        self.points
            .windows(2)
            .map(|w| w[1].work / w[0].work - 1.0)
            .collect()
    }

    /// `true` if the early DoD steps pay more than the late ones (the
    /// paper's non-linearity).
    pub fn gains_flatten(&self) -> bool {
        let g = self.marginal_gains();
        if g.len() < 2 {
            return true;
        }
        g.first().copied().unwrap_or(0.0) >= g.last().copied().unwrap_or(0.0) - 1e-9
    }
}

/// Runs the sweep on scarcity-heavy days where the DoD budget matters.
pub fn run(dods: &[f64], days: usize, seed: u64) -> PlannedDodSweep {
    let plan: Vec<Weather> = (0..days)
        .map(|i| {
            if i % 2 == 0 {
                Weather::Cloudy
            } else {
                Weather::Rainy
            }
        })
        .collect();
    // The planned DoD substitutes the slowdown line (§IV.D).
    let policies = dods.iter().map(|&dod| BaatConfig {
        thresholds: SlowdownThresholds {
            deep_soc: Soc::saturating(1.0 - dod),
            recover_soc: Soc::saturating((1.0 - dod + 0.08).min(0.95)),
            ..SlowdownThresholds::default()
        },
        ..BaatConfig::default()
    });
    let (reports, ebuff) = super::baat_sweep(policies, plan_config(plan, seed));
    let points = dods
        .iter()
        .zip(&reports)
        .map(|(&dod, report)| DodPoint {
            dod,
            work: report.total_work,
            daily_damage: report.mean_damage() / days as f64,
        })
        .collect();
    PlannedDodSweep {
        points,
        ebuff_work: ebuff.total_work,
    }
}

/// The paper's sweep: DoD 40–90 %.
pub fn run_paper(seed: u64) -> PlannedDodSweep {
    run(&[0.40, 0.50, 0.60, 0.70, 0.80, 0.90], 4, seed)
}

/// Renders the sweep.
pub fn render(s: &PlannedDodSweep) -> String {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            vec![
                crate::table::pct(p.dod),
                format!("{:.0}", p.work),
                crate::table::pct(p.work / s.ebuff_work - 1.0),
                crate::table::f(p.daily_damage * 1000.0),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &[
            "planned DoD",
            "work core-h",
            "vs e-Buff",
            "daily damage ×1000",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\nmarginal gains per DoD step: {:?} — flattening: {}\n",
        s.marginal_gains()
            .iter()
            .map(|g| format!("{:.1}%", g * 100.0))
            .collect::<Vec<_>>(),
        s.gains_flatten(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_dod_buys_work_but_costs_damage() {
        let s = run(&[0.40, 0.80], 2, 53);
        assert!(
            s.points[1].work >= s.points[0].work,
            "deeper DoD must not lose work: {} vs {}",
            s.points[1].work,
            s.points[0].work
        );
        assert!(
            s.points[1].daily_damage >= s.points[0].daily_damage,
            "deeper DoD should age faster"
        );
    }
}
