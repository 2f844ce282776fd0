//! Figure 12: system runtime profiling under different weather.
//!
//! The paper profiles one e-Buff day per weather class and reports:
//! battery usage varies across the six packs (12a), batteries yield less
//! Ah-throughput on sunny days (12b–d: high CF and PC on sunny days,
//! high NAT / low CF / low PC on cloudy/rainy), and the aging metric
//! trajectories (12e–k).

use baat_core::Scheme;
use baat_sim::Simulation;
use baat_solar::Weather;

use crate::runner::{day_config, run_scenarios, runner_threads, Scenario};

/// One hourly snapshot of the worst battery node's metrics (the paper's
/// Fig 12e–k trajectories).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourlySample {
    /// Hour of day (8–18 inside the operating window).
    pub hour: u32,
    /// Worst-node NAT so far today.
    pub nat: f64,
    /// Worst-node charge factor so far today.
    pub cf: Option<f64>,
    /// Worst-node Eq-4 partial cycling so far today.
    pub pc: f64,
    /// Worst-node SoC at the snapshot.
    pub soc: f64,
}

/// Drives one e-Buff day stepwise, snapshotting the worst node hourly,
/// and finds the hour at which the accumulated NAT crosses
/// `nat_threshold` — the paper's "slowdown time varies in different
/// weathers" marker from Fig 12e–g.
pub fn hourly_trajectory(
    weather: Weather,
    seed: u64,
    nat_threshold: f64,
) -> (Vec<HourlySample>, Option<u32>) {
    let config = day_config(weather, seed);
    let dt = config.dt;
    let steps_per_hour = 3600 / dt.as_secs();
    let total_steps = 86_400 / dt.as_secs();
    let mut sim = Simulation::new(config).expect("config validated");
    let mut policy = Scheme::EBuff.build();
    let mut samples = Vec::new();
    let mut crossed = None;
    for step in 0..total_steps {
        sim.step(&mut policy).expect("engine invariants hold");
        if step % steps_per_hour == 0 {
            let hour = (step / steps_per_hour) as u32;
            if (8..=18).contains(&hour) {
                let view = sim.build_view().expect("engine invariants hold");
                let worst = view
                    .nodes
                    .iter()
                    .max_by(|a, b| a.window_metrics.nat.total_cmp(&b.window_metrics.nat))
                    .expect("nodes exist");
                if crossed.is_none() && worst.window_metrics.nat >= nat_threshold {
                    crossed = Some(hour);
                }
                samples.push(HourlySample {
                    hour,
                    nat: worst.window_metrics.nat,
                    cf: worst.window_metrics.cf,
                    pc: worst.window_metrics.pc.weighted_value(),
                    soc: worst.soc.value(),
                });
            }
        }
    }
    (samples, crossed)
}

/// Profiling outcome for one weather class.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherProfile {
    /// The weather class.
    pub weather: Weather,
    /// Per-node discharged Ah over the day (Fig 12a's usage variation).
    pub node_ah: Vec<f64>,
    /// Worst-node NAT at end of day (Eq 1).
    pub nat: f64,
    /// Worst-node charge factor (Eq 2), if the battery discharged.
    pub cf: Option<f64>,
    /// Worst-node Eq-4 partial-cycling value (higher = more low-SoC
    /// cycling).
    pub pc_weighted: f64,
    /// Worst-node share of discharge done at high SoC (the paper's
    /// evaluation-section reading of "PC value").
    pub pc_high_soc_share: f64,
    /// Worst-node deep-discharge time fraction (Eq 5).
    pub ddt: f64,
}

/// The Fig 12 profile across the three weather classes.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeProfile {
    /// Per-weather profiles, sunny first.
    pub profiles: Vec<WeatherProfile>,
}

impl RuntimeProfile {
    /// Profile for one weather class.
    pub fn for_weather(&self, weather: Weather) -> &WeatherProfile {
        self.profiles
            .iter()
            .find(|p| p.weather == weather)
            .expect("all weather classes profiled")
    }

    /// Relative spread of per-node usage (max/min Ah) on the cloudiest
    /// day — Fig 12a's "usage frequency … varies significantly".
    pub fn usage_spread(&self) -> f64 {
        let p = self.for_weather(Weather::Rainy);
        let max = p.node_ah.iter().cloned().fold(0.0, f64::max);
        let min = p.node_ah.iter().cloned().fold(f64::INFINITY, f64::min);
        if min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    }
}

/// Runs the per-weather profiling under e-Buff (the paper profiles its
/// unmanaged prototype).
pub fn run(seed: u64) -> RuntimeProfile {
    let cells = Weather::ALL
        .iter()
        .map(|&weather| Scenario::new(Scheme::EBuff, day_config(weather, seed)))
        .collect();
    let profiles = Weather::ALL
        .iter()
        .zip(run_scenarios(cells, runner_threads()))
        .map(|(&weather, report)| {
            // NAT × CAP_nom (the default 70 Ah node rates 35 000 Ah
            // life-long) recovers absolute discharged Ah.
            let node_ah: Vec<f64> = report
                .nodes
                .iter()
                .map(|n| n.lifetime_metrics.nat * 35_000.0)
                .collect();
            let worst = report.worst_node().expect("nodes exist");
            WeatherProfile {
                weather,
                node_ah,
                nat: worst.lifetime_metrics.nat,
                cf: worst.lifetime_metrics.cf,
                pc_weighted: worst.lifetime_metrics.pc.weighted_value(),
                pc_high_soc_share: worst.lifetime_metrics.pc.high_soc_share().value(),
                ddt: worst.lifetime_metrics.ddt.value(),
            }
        })
        .collect();
    RuntimeProfile { profiles }
}

/// Renders the Fig 12e–k hourly trajectories plus the slowdown markers.
pub fn render_trajectories(seed: u64, nat_threshold: f64) -> String {
    let mut out = String::new();
    for weather in Weather::ALL {
        let (samples, crossed) = hourly_trajectory(weather, seed, nat_threshold);
        out.push_str(&format!("\n{weather} (worst node, hourly):\n\n"));
        let rows: Vec<Vec<String>> = samples
            .iter()
            .map(|s| {
                vec![
                    format!("{:02}:00", s.hour),
                    crate::table::f(s.nat * 1000.0),
                    s.cf.map_or("—".into(), crate::table::f),
                    crate::table::f(s.pc),
                    crate::table::pct(s.soc),
                ]
            })
            .collect();
        out.push_str(&crate::table::markdown(
            &["hour", "NAT ×1000", "CF", "PC", "SoC"],
            &rows,
        ));
        out.push_str(&match crossed {
            Some(h) => format!(
                "\nNAT threshold {nat_threshold} crossed at {h:02}:00 — slowdown would engage here\n"
            ),
            None => {
                format!("\nNAT threshold {nat_threshold} never crossed — no slowdown needed\n")
            }
        });
    }
    out
}

/// Renders the per-weather metric table.
pub fn render(p: &RuntimeProfile) -> String {
    let rows: Vec<Vec<String>> = p
        .profiles
        .iter()
        .map(|w| {
            vec![
                w.weather.to_string(),
                crate::table::f(w.nat * 1000.0),
                w.cf.map_or("—".into(), crate::table::f),
                crate::table::f(w.pc_weighted),
                crate::table::pct(w.pc_high_soc_share),
                crate::table::pct(w.ddt),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &[
            "weather",
            "NAT ×1000",
            "CF",
            "PC (Eq 4)",
            "high-SoC share",
            "DDT",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\nrainy-day per-node usage spread (max/min Ah): {:.2}×\n",
        p.usage_spread()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sunny_days_stress_batteries_least() {
        let p = run(7);
        let sunny = p.for_weather(Weather::Sunny);
        let cloudy = p.for_weather(Weather::Cloudy);
        let rainy = p.for_weather(Weather::Rainy);
        // Fig 12b: less Ah-throughput on sunny days.
        assert!(sunny.nat < cloudy.nat, "sunny NAT must be lowest");
        assert!(sunny.nat < rainy.nat);
        // Fig 12d reading: sunny cycling happens at higher SoC.
        assert!(sunny.pc_weighted <= cloudy.pc_weighted + 1e-9);
        assert!(sunny.ddt <= rainy.ddt);
    }

    #[test]
    fn slowdown_marker_comes_earlier_on_darker_days() {
        // The paper's Fig 12e–g: the Ah-throughput threshold is reached
        // sooner when solar is scarce (or not at all on a sunny day).
        let threshold = 0.0015;
        let (_, sunny) = hourly_trajectory(Weather::Sunny, 7, threshold);
        let (_, cloudy) = hourly_trajectory(Weather::Cloudy, 7, threshold);
        let crossing = |c: Option<u32>| c.unwrap_or(24);
        assert!(
            crossing(cloudy) <= crossing(sunny),
            "cloudy {cloudy:?} should cross no later than sunny {sunny:?}"
        );
    }

    #[test]
    fn trajectories_are_monotone_in_nat() {
        let (samples, _) = hourly_trajectory(Weather::Cloudy, 7, 1.0);
        assert!(!samples.is_empty());
        for pair in samples.windows(2) {
            assert!(pair[1].nat >= pair[0].nat - 1e-12, "NAT accumulates");
        }
    }

    #[test]
    fn usage_varies_across_packs() {
        let p = run(7);
        assert!(p.usage_spread() > 1.01, "spread {:.3}", p.usage_spread());
    }
}
