//! Figure 16: annual battery depreciation cost vs the slowdown
//! threshold.
//!
//! The paper varies the aging-slowdown threshold and observes the cost
//! benefit changes; BAAT achieves ~26 % annual depreciation savings over
//! e-Buff, but "aggressively applying the aging slowdown algorithm is not
//! wise since it may cause unnecessary performance degradation".

use baat_core::{weather_plan_for_sunshine, BaatConfig, LifetimeEstimate, SlowdownThresholds};
use baat_cost::BatteryCostModel;
use baat_units::{Fraction, Soc};

use crate::runner::plan_config;

/// One threshold sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// The deep-discharge SoC threshold driving the slowdown.
    pub deep_soc: f64,
    /// Worst-node lifetime under BAAT with this threshold (days).
    pub lifetime_days: f64,
    /// Annual depreciation per battery node (dollars).
    pub annual_cost: f64,
    /// Day's useful work (core-hours) — the performance side of the
    /// trade-off.
    pub work: f64,
}

/// The Fig 16 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSweep {
    /// BAAT points by threshold, lax to aggressive.
    pub points: Vec<ThresholdPoint>,
    /// e-Buff baseline lifetime (days) and annual cost.
    pub ebuff_days: f64,
    /// e-Buff annual depreciation per node.
    pub ebuff_annual_cost: f64,
}

impl CostSweep {
    /// Best cost reduction over e-Buff across thresholds (paper ~26 %).
    pub fn best_saving(&self) -> f64 {
        self.points
            .iter()
            .map(|p| 1.0 - p.annual_cost / self.ebuff_annual_cost)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs the sweep over the given deep-SoC thresholds.
pub fn run(thresholds: &[f64], days: usize, seed: u64) -> CostSweep {
    // A larger two-unit bank is priced accordingly.
    let cost = BatteryCostModel::from_energy_price(
        baat_units::WattHours::new(840.0),
        baat_units::Dollars::new(150.0),
    )
    .expect("static prices are valid");
    let plan = weather_plan_for_sunshine(Fraction::new(0.55).expect("static fraction"), days, seed);
    let policies = thresholds.iter().map(|&deep| BaatConfig {
        thresholds: SlowdownThresholds {
            deep_soc: Soc::saturating(deep),
            recover_soc: Soc::saturating(deep + 0.08),
            ..SlowdownThresholds::default()
        },
        ..BaatConfig::default()
    });
    let (reports, ebuff) = super::baat_sweep(policies, plan_config(plan, seed));
    let points = thresholds
        .iter()
        .zip(&reports)
        .map(|(&deep, report)| {
            let lifetime_days = LifetimeEstimate::from_report(report)
                .expect("cycling causes damage")
                .worst_days;
            ThresholdPoint {
                deep_soc: deep,
                lifetime_days,
                annual_cost: cost
                    .annual_depreciation(lifetime_days)
                    .expect("positive lifetime")
                    .as_f64(),
                work: report.total_work,
            }
        })
        .collect();
    let ebuff_days = LifetimeEstimate::from_report(&ebuff)
        .expect("cycling causes damage")
        .worst_days;
    CostSweep {
        points,
        ebuff_days,
        ebuff_annual_cost: cost
            .annual_depreciation(ebuff_days)
            .expect("positive lifetime")
            .as_f64(),
    }
}

/// The paper's sweep: five thresholds.
pub fn run_paper(seed: u64) -> CostSweep {
    run(&[0.20, 0.30, 0.40, 0.50, 0.60], 6, seed)
}

/// Renders the sweep plus the headline saving.
pub fn render(s: &CostSweep) -> String {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            vec![
                crate::table::pct(p.deep_soc),
                format!("{:.0}", p.lifetime_days),
                format!("${:.2}", p.annual_cost),
                crate::table::pct(1.0 - p.annual_cost / s.ebuff_annual_cost),
                format!("{:.0}", p.work),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &[
            "threshold SoC",
            "lifetime d",
            "annual cost",
            "saving vs e-Buff",
            "work core-h",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\ne-Buff: {:.0} days, ${:.2}/yr — best BAAT saving: {} (paper ~26%)\n",
        s.ebuff_days,
        s.ebuff_annual_cost,
        crate::table::pct(s.best_saving()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_saves_money() {
        let s = run(&[0.40], 2, 31);
        assert!(s.best_saving() > 0.0, "saving {}", s.best_saving());
    }

    #[test]
    fn costs_are_positive_and_finite() {
        let s = run(&[0.30, 0.50], 2, 31);
        for p in &s.points {
            assert!(p.annual_cost.is_finite() && p.annual_cost > 0.0);
            assert!(p.lifetime_days > 0.0);
        }
    }
}
