//! Figure 22: performance benefit of planned aging vs the expected
//! battery service life.
//!
//! When the replacement batteries will outlive the datacenter, BAAT
//! shifts unused battery life into present performance (up to ~33 % more
//! productivity). The benefit fades at both ends: with a very short
//! horizon the DoD is already capped (>90 % DoD is off-limits), and with
//! a very long horizon there is little unused life to shift.

use baat_core::{BaatConfig, PlannedAging};
use baat_solar::Weather;

use crate::runner::plan_config;

/// One service-horizon sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HorizonPoint {
    /// Expected battery service life (days from install to datacenter
    /// end-of-life).
    pub service_days: f64,
    /// Useful work under planned-aging BAAT.
    pub work: f64,
    /// Per-day productivity improvement vs e-Buff.
    pub improvement: f64,
    /// Total productivity shifted over the whole horizon, in relative
    /// work-days (`improvement × service_days`) — the quantity the
    /// paper's Fig 22 peaks in the interior: very short horizons cap the
    /// DoD at 90 % and leave few days to harvest, very long ones have
    /// little unused life to shift.
    pub benefit_work_days: f64,
}

/// The Fig 22 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonSweep {
    /// Points, shortest horizon first.
    pub points: Vec<HorizonPoint>,
}

impl HorizonSweep {
    /// The best per-day productivity improvement across horizons.
    pub fn peak_improvement(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.improvement)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `true` if the *total shifted productivity* peaks in the interior
    /// of the sweep (fades at both ends), as the paper observes.
    pub fn interior_peak(&self) -> bool {
        let best = self
            .points
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.benefit_work_days.total_cmp(&b.benefit_work_days))
            .map(|(i, _)| i)
            .unwrap_or(0);
        best != 0 && best != self.points.len() - 1
    }
}

/// Runs the sweep on scarcity-heavy days.
pub fn run(horizons_days: &[f64], days: usize, seed: u64) -> HorizonSweep {
    let plan: Vec<Weather> = (0..days)
        .map(|i| {
            if i % 2 == 0 {
                Weather::Cloudy
            } else {
                Weather::Rainy
            }
        })
        .collect();
    let policies = horizons_days.iter().map(|&service_days| BaatConfig {
        planned: Some(PlannedAging {
            service_days,
            cycles_per_day: 1.0,
        }),
        ..BaatConfig::default()
    });
    let (reports, ebuff) = super::baat_sweep(policies, plan_config(plan, seed));
    let points = horizons_days
        .iter()
        .zip(&reports)
        .map(|(&service_days, report)| {
            let improvement = report.total_work / ebuff.total_work - 1.0;
            HorizonPoint {
                service_days,
                work: report.total_work,
                improvement,
                benefit_work_days: improvement * service_days,
            }
        })
        .collect();
    HorizonSweep { points }
}

/// The paper's sweep of service horizons.
pub fn run_paper(seed: u64) -> HorizonSweep {
    run(&[200.0, 400.0, 800.0, 1600.0, 3200.0], 4, seed)
}

/// Renders the sweep.
pub fn render(s: &HorizonSweep) -> String {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0} d", p.service_days),
                format!("{:.0}", p.work),
                crate::table::pct(p.improvement),
                format!("{:.1}", p.benefit_work_days),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &[
            "service horizon",
            "work core-h",
            "vs e-Buff",
            "total benefit (work-days)",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\npeak planned-aging per-day benefit: {} (paper: up to ~33%) — \
         total benefit peaks in the interior: {}\n",
        crate::table::pct(s.peak_improvement()),
        s.interior_peak(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_aging_improves_on_ebuff_somewhere() {
        let s = run(&[300.0, 900.0], 2, 59);
        assert!(
            s.peak_improvement() > -0.05,
            "planned aging should roughly match or beat e-Buff, got {}",
            s.peak_improvement()
        );
    }

    #[test]
    fn points_follow_horizons() {
        let s = run(&[300.0, 900.0], 2, 59);
        assert_eq!(s.points.len(), 2);
        assert!(s.points[0].service_days < s.points[1].service_days);
    }
}
