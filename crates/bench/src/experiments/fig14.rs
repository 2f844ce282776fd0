//! Figure 14: battery lifetime vs solar availability (sunshine fraction).
//!
//! The paper sweeps geographic locations by sunshine fraction and finds
//! lifetime grows with solar availability; on average BAAT extends
//! battery life by ~69 % over e-Buff (BAAT-s +37 %, BAAT-h +29 %), with
//! slowdown mattering more than balancing.

use baat_core::{weather_plan_for_sunshine, LifetimeEstimate, Scheme};
use baat_units::Fraction;

use crate::runner::{plan_config, run_scenarios, runner_threads, Scenario};

/// Lifetime estimates for the four schemes at one sunshine fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SunshinePoint {
    /// Sunshine fraction in `[0, 1]`.
    pub sunshine: f64,
    /// Worst-node lifetime days per scheme, Table-4 order.
    pub lifetime_days: [f64; 4],
}

/// The Fig 14 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeSweep {
    /// Sweep points, dimmest first.
    pub points: Vec<SunshinePoint>,
}

impl LifetimeSweep {
    /// Mean lifetime improvement of one scheme over e-Buff across the
    /// sweep.
    pub fn mean_improvement(&self, scheme: Scheme) -> f64 {
        let idx = Scheme::ALL
            .iter()
            .position(|s| *s == scheme)
            .expect("scheme in table");
        let mut sum = 0.0;
        for p in &self.points {
            sum += p.lifetime_days[idx] / p.lifetime_days[0] - 1.0;
        }
        sum / self.points.len() as f64
    }

    /// `true` if every scheme's lifetime grows with sunshine.
    pub fn lifetime_grows_with_sunshine(&self) -> bool {
        for idx in 0..4 {
            for pair in self.points.windows(2) {
                if pair[1].lifetime_days[idx] <= pair[0].lifetime_days[idx] * 0.9 {
                    return false;
                }
            }
        }
        true
    }
}

/// Runs the sweep: `fractions` sunshine values × 4 schemes, each
/// estimated from `days` representative days. All cells fan out across
/// the parallel scenario runner; schemes share one seed per point
/// (matched days, per the paper's methodology).
pub fn run(fractions: &[f64], days: usize, seed: u64) -> LifetimeSweep {
    let scenarios: Vec<Scenario> = fractions
        .iter()
        .flat_map(|&sunshine| {
            let plan = weather_plan_for_sunshine(
                Fraction::new(sunshine).expect("fraction valid"),
                days,
                seed,
            );
            Scheme::ALL
                .iter()
                .map(|&scheme| Scenario::new(scheme, plan_config(plan.clone(), seed)))
                .collect::<Vec<_>>()
        })
        .collect();
    let reports = run_scenarios(scenarios, runner_threads());
    let points = fractions
        .iter()
        .zip(reports.chunks(Scheme::ALL.len()))
        .map(|(&sunshine, chunk)| {
            let mut lifetime_days = [0.0; 4];
            for (i, report) in chunk.iter().enumerate() {
                let est =
                    LifetimeEstimate::from_report(report).expect("cycling always causes damage");
                lifetime_days[i] = est.worst_days;
            }
            SunshinePoint {
                sunshine,
                lifetime_days,
            }
        })
        .collect();
    LifetimeSweep { points }
}

/// The paper's sweep: six sunshine fractions, eight-day windows.
pub fn run_paper(seed: u64) -> LifetimeSweep {
    run(&[0.40, 0.50, 0.60, 0.70, 0.80, 0.90], 8, seed)
}

/// Renders the sweep plus the headline improvements.
pub fn render(s: &LifetimeSweep) -> String {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            let mut row = vec![crate::table::pct(p.sunshine)];
            row.extend(p.lifetime_days.iter().map(|d| format!("{d:.0}")));
            row
        })
        .collect();
    let mut out = crate::table::markdown(
        &["sunshine", "e-Buff d", "BAAT-s d", "BAAT-h d", "BAAT d"],
        &rows,
    );
    out.push_str(&format!(
        "\nmean lifetime improvement vs e-Buff — BAAT: {} (paper 69%), \
         BAAT-s: {} (paper 37%), BAAT-h: {} (paper 29%)\n",
        crate::table::pct(s.mean_improvement(Scheme::Baat)),
        crate::table::pct(s.mean_improvement(Scheme::BaatS)),
        crate::table::pct(s.mean_improvement(Scheme::BaatH)),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_grows_with_sunshine_for_all_schemes() {
        let s = run(&[0.45, 0.85], 3, 17);
        assert!(s.lifetime_grows_with_sunshine());
    }

    #[test]
    fn baat_extends_lifetime() {
        let s = run(&[0.55], 3, 17);
        assert!(
            s.mean_improvement(Scheme::Baat) > 0.0,
            "BAAT gain {}",
            s.mean_improvement(Scheme::Baat)
        );
    }
}
