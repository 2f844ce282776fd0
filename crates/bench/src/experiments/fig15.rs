//! Figure 15: battery lifetime vs server-to-battery capacity ratio.
//!
//! Paper findings: (1) raising the ratio from 2 W/Ah to 10 W/Ah cuts
//! average battery lifetime by ~35 %; (2) BAAT's advantage over e-Buff
//! *grows* with the ratio (37 % → 1.4×); (3) doubling battery capacity
//! buys < 30 % lifetime — capacity planning has diminishing returns.

use baat_core::{weather_plan_for_sunshine, LifetimeEstimate, Scheme};
use baat_server::ServerPowerModel;
use baat_sim::{SimConfig, SimReport};
use baat_units::{Fraction, Watts};

use crate::runner::{run_scenarios, runner_threads, Scenario, EXPERIMENT_DT};

/// One ratio sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioPoint {
    /// Server-to-battery ratio in W/Ah (peak server power over nominal
    /// battery Ah).
    pub ratio_w_per_ah: f64,
    /// e-Buff worst-node lifetime (days).
    pub ebuff_days: f64,
    /// BAAT worst-node lifetime (days).
    pub baat_days: f64,
}

/// The Fig 15 sweep plus the battery-doubling probe.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioSweep {
    /// Sweep points, light loading first.
    pub points: Vec<RatioPoint>,
    /// e-Buff lifetime at the lightest ratio with doubled battery
    /// capacity.
    pub doubled_battery_days: f64,
    /// The lightest-ratio baseline it compares against.
    pub baseline_days: f64,
}

impl RatioSweep {
    /// Mean lifetime reduction from the lightest to the heaviest ratio
    /// (paper ~35 %).
    pub fn heavy_loading_penalty(&self) -> f64 {
        let first = self.points.first().expect("points non-empty");
        let last = self.points.last().expect("points non-empty");
        let mean = |p: &RatioPoint| (p.ebuff_days + p.baat_days) / 2.0;
        1.0 - mean(last) / mean(first)
    }

    /// BAAT-over-e-Buff improvement at each ratio; the paper sees it grow
    /// from ~37 % to ~1.4×.
    pub fn baat_gain_by_ratio(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| p.baat_days / p.ebuff_days - 1.0)
            .collect()
    }

    /// Lifetime gain from doubling the battery (paper < 30 %).
    pub fn doubling_gain(&self) -> f64 {
        self.doubled_battery_days / self.baseline_days - 1.0
    }
}

fn config_for(ratio_w_per_ah: f64, battery_scale: f64, days: usize, seed: u64) -> SimConfig {
    let battery_ah = 70.0 * battery_scale;
    let peak = ratio_w_per_ah * battery_ah;
    let idle = peak * 0.29;
    let plan = weather_plan_for_sunshine(Fraction::new(0.6).expect("static fraction"), days, seed);
    let mut spec = baat_battery::BatterySpec::builder();
    spec.capacity(baat_units::AmpHours::new(battery_ah))
        .internal_resistance(baat_units::Ohms::new(0.006 / battery_scale))
        .max_charge_current(baat_units::Amperes::new(battery_ah / 4.0))
        .max_discharge_current(baat_units::Amperes::new(battery_ah));
    let mut b = SimConfig::builder();
    b.weather_plan(plan)
        .dt(EXPERIMENT_DT)
        .sample_every(40)
        .seed(seed)
        .battery_spec(spec.build().expect("derived spec is valid"))
        .server_power(
            ServerPowerModel::new(Watts::new(idle), Watts::new(peak))
                .expect("derived powers are valid"),
        );
    b.build().expect("derived config is valid")
}

fn worst_days(report: &SimReport) -> f64 {
    LifetimeEstimate::from_report(report)
        .expect("cycling always causes damage")
        .worst_days
}

/// Runs the ratio sweep over the given W/Ah ratios.
///
/// Every lifetime estimate is the mean over four seeded weather windows
/// (one window is noisy); all (job × window) cells fan out through the
/// parallel scenario runner at once.
pub fn run(ratios: &[f64], days: usize, seed: u64) -> RatioSweep {
    // One job per mean-lifetime estimate: the sweep cells, then the
    // doubling probe. The probe runs at the light end of the sweep: with
    // the fleet fully power-starved (high ratios), extra storage cannot
    // help — exactly the paper's "excessively increasing battery
    // capacity … may not be wise".
    let mut jobs: Vec<(Scheme, f64, f64)> = Vec::new();
    for &ratio in ratios {
        jobs.push((Scheme::EBuff, ratio, 1.0));
        jobs.push((Scheme::Baat, ratio, 1.0));
    }
    let light = ratios[0];
    jobs.push((Scheme::EBuff, light, 1.0));
    jobs.push((Scheme::EBuff, light / 2.0, 2.0));

    let window_seeds = [
        seed,
        seed.wrapping_add(101),
        seed.wrapping_add(211),
        seed.wrapping_add(331),
    ];
    let scenarios: Vec<Scenario> = jobs
        .iter()
        .flat_map(|&(scheme, ratio, scale)| {
            window_seeds
                .iter()
                .map(move |&s| Scenario::new(scheme, config_for(ratio, scale, days, s)))
        })
        .collect();
    let means: Vec<f64> = run_scenarios(scenarios, runner_threads())
        .chunks(window_seeds.len())
        .map(|chunk| chunk.iter().map(worst_days).sum::<f64>() / chunk.len() as f64)
        .collect();

    let points = ratios
        .iter()
        .enumerate()
        .map(|(i, &ratio)| RatioPoint {
            ratio_w_per_ah: ratio,
            ebuff_days: means[2 * i],
            baat_days: means[2 * i + 1],
        })
        .collect();
    RatioSweep {
        points,
        doubled_battery_days: means[means.len() - 1],
        baseline_days: means[means.len() - 2],
    }
}

/// The paper's sweep: 2–10 W/Ah.
pub fn run_paper(seed: u64) -> RatioSweep {
    run(&[2.0, 4.0, 6.0, 8.0, 10.0], 6, seed)
}

/// Renders the sweep plus the headline findings.
pub fn render(s: &RatioSweep) -> String {
    let rows: Vec<Vec<String>> = s
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0} W/Ah", p.ratio_w_per_ah),
                format!("{:.0}", p.ebuff_days),
                format!("{:.0}", p.baat_days),
                crate::table::pct(p.baat_days / p.ebuff_days - 1.0),
            ]
        })
        .collect();
    let mut out =
        crate::table::markdown(&["ratio", "e-Buff days", "BAAT days", "BAAT gain"], &rows);
    out.push_str(&format!(
        "\nheavy-loading lifetime penalty (2→10 W/Ah): {} (paper ~35%)\n\
         battery-doubling lifetime gain: {} (paper <30%)\n",
        crate::table::pct(s.heavy_loading_penalty()),
        crate::table::pct(s.doubling_gain()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavier_loading_shortens_life() {
        let s = run(&[2.0, 8.0], 2, 23);
        assert!(
            s.heavy_loading_penalty() > 0.0,
            "penalty {}",
            s.heavy_loading_penalty()
        );
    }

    #[test]
    fn doubling_battery_helps_but_subproportionally() {
        let s = run(&[2.0, 6.0, 10.0], 2, 23);
        let gain = s.doubling_gain();
        assert!(gain > 0.0, "doubling gain {gain}");
        assert!(gain < 1.0, "gain should be sub-proportional, got {gain}");
    }
}
