//! Figure 17: servers that can be added without raising TCO, vs sunshine
//! fraction.
//!
//! "BAAT allows existing green datacenters to expand (scale-out) without
//! increasing the total cost of ownership" — the battery-depreciation
//! savings buy servers, capped by the available solar budget; sunnier
//! sites can add up to ~15 % more servers.

use baat_core::{weather_plan_for_sunshine, LifetimeEstimate, Scheme};
use baat_cost::{BatteryCostModel, TcoModel};
use baat_units::{Dollars, Fraction, WattHours, Watts};

use crate::runner::{plan_config, run_scenarios, runner_threads, Scenario};

/// One sunshine sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionPoint {
    /// Sunshine fraction.
    pub sunshine: f64,
    /// e-Buff battery lifetime (days).
    pub ebuff_days: f64,
    /// BAAT battery lifetime (days).
    pub baat_days: f64,
    /// Fraction of the fleet addable without raising TCO.
    pub expansion: f64,
}

/// The Fig 17 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionSweep {
    /// Points, dimmest first.
    pub points: Vec<ExpansionPoint>,
}

impl ExpansionSweep {
    /// The maximum expansion across the sweep (paper: up to ~15 %).
    pub fn max_expansion(&self) -> f64 {
        self.points.iter().map(|p| p.expansion).fold(0.0, f64::max)
    }
}

/// Runs the sweep at a reference fleet of 1000 servers.
pub fn run(fractions: &[f64], days: usize, seed: u64) -> ExpansionSweep {
    let battery = BatteryCostModel::from_energy_price(WattHours::new(840.0), Dollars::new(150.0))
        .expect("static prices are valid");
    let tco = TcoModel::new(Dollars::new(180.0), battery).expect("static cost is valid");
    let fleet = 1000;
    let scenarios: Vec<Scenario> = fractions
        .iter()
        .flat_map(|&sunshine| {
            let plan = weather_plan_for_sunshine(
                Fraction::new(sunshine).expect("fraction valid"),
                days,
                seed,
            );
            [Scheme::EBuff, Scheme::Baat]
                .into_iter()
                .map(|scheme| Scenario::new(scheme, plan_config(plan.clone(), seed)))
                .collect::<Vec<_>>()
        })
        .collect();
    let reports = run_scenarios(scenarios, runner_threads());
    let points = fractions
        .iter()
        .zip(reports.chunks(2))
        .map(|(&sunshine, chunk)| {
            let life = |report| {
                LifetimeEstimate::from_report(report)
                    .expect("cycling causes damage")
                    .worst_days
            };
            let ebuff_days = life(&chunk[0]);
            let baat_days = life(&chunk[1]);
            // Solar headroom scales with sunshine: surplus energy beyond
            // the fleet's demand, expressed as spare power at ~130 W per
            // server-slot of surplus.
            let headroom_w = (sunshine - 0.35).max(0.0) * fleet as f64 * 55.0;
            let expansion = tco
                .expansion_ratio(
                    fleet,
                    ebuff_days,
                    baat_days,
                    Watts::new(headroom_w),
                    Watts::new(130.0),
                )
                .expect("positive lifetimes")
                .value();
            ExpansionPoint {
                sunshine,
                ebuff_days,
                baat_days,
                expansion,
            }
        })
        .collect();
    ExpansionSweep { points }
}

/// The paper's sweep.
pub fn run_paper(seed: u64) -> ExpansionSweep {
    run(&[0.40, 0.50, 0.60, 0.70, 0.80, 0.90], 6, seed)
}

/// Renders the sweep.
pub fn render(s: &ExpansionSweep) -> String {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            vec![
                crate::table::pct(p.sunshine),
                format!("{:.0}", p.ebuff_days),
                format!("{:.0}", p.baat_days),
                crate::table::pct(p.expansion),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &["sunshine", "e-Buff days", "BAAT days", "servers addable"],
        &rows,
    );
    out.push_str(&format!(
        "\nmax expansion without TCO increase: {} (paper: up to ~15%)\n",
        crate::table::pct(s.max_expansion())
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_exists_and_grows_with_sunshine() {
        let s = run(&[0.45, 0.85], 3, 37);
        assert!(s.max_expansion() > 0.0);
        assert!(
            s.points[1].expansion >= s.points[0].expansion,
            "sunnier sites should afford at least as many servers"
        );
    }
}
