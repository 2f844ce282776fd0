//! Figure 20: one-day compute throughput of the four schemes.
//!
//! Paper findings: e-Buff "intuitively" performs best until its battery
//! trips and the server shuts down (throughput zero during downtime);
//! BAAT-s pays a steady DVFS penalty; BAAT-h pays migration overhead; the
//! coordinated BAAT wins the scarcity cases — +28 % over e-Buff in the
//! worst case (cloudy, old batteries).

use baat_core::Scheme;
use baat_solar::Weather;

use crate::runner::{day_config, run_scenarios, runner_threads, Scenario, OLD_BATTERY_DAMAGE};

/// Throughput of the four schemes in one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputRow {
    /// Weather of the matched day.
    pub weather: Weather,
    /// `true` for pre-aged batteries.
    pub old: bool,
    /// Useful work (core-hours) per scheme, Table-4 order.
    pub work: [f64; 4],
    /// Server downtime seconds per scheme (explains the e-Buff losses).
    pub downtime_secs: [u64; 4],
}

/// The Fig 20 study.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputStudy {
    /// Scenario rows.
    pub rows: Vec<ThroughputRow>,
}

impl ThroughputStudy {
    /// BAAT-over-e-Buff throughput gain in the hardest scenario run.
    pub fn worst_case_baat_gain(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.work[3] / r.work[0] - 1.0)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The scenario row for one weather/age pair.
    pub fn row(&self, weather: Weather, old: bool) -> &ThroughputRow {
        self.rows
            .iter()
            .find(|r| r.weather == weather && r.old == old)
            .expect("scenario present")
    }
}

/// Runs the scenarios (matched solar days per the §VI.B methodology).
pub fn run(scenarios: &[(Weather, bool)], seed: u64) -> ThroughputStudy {
    let cells: Vec<Scenario> = scenarios
        .iter()
        .flat_map(|&(weather, old)| {
            Scheme::ALL.iter().map(move |&scheme| {
                let mut cell = Scenario::new(scheme, day_config(weather, seed));
                if old {
                    cell = cell.pre_aged(OLD_BATTERY_DAMAGE);
                }
                cell
            })
        })
        .collect();
    let reports = run_scenarios(cells, runner_threads());
    let rows = scenarios
        .iter()
        .zip(reports.chunks(Scheme::ALL.len()))
        .map(|(&(weather, old), chunk)| {
            let mut work = [0.0; 4];
            let mut downtime_secs = [0; 4];
            for (i, report) in chunk.iter().enumerate() {
                work[i] = report.total_work;
                downtime_secs[i] = report.nodes.iter().map(|n| n.downtime.as_secs()).sum();
            }
            ThroughputRow {
                weather,
                old,
                work,
                downtime_secs,
            }
        })
        .collect();
    ThroughputStudy { rows }
}

/// The paper's four scenarios.
pub fn run_paper(seed: u64) -> ThroughputStudy {
    run(
        &[
            (Weather::Sunny, false),
            (Weather::Cloudy, false),
            (Weather::Cloudy, true),
            (Weather::Rainy, true),
        ],
        seed,
    )
}

/// Renders the study.
pub fn render(t: &ThroughputStudy) -> String {
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.weather.to_string(),
                if r.old { "old" } else { "young" }.into(),
                format!("{:.0} ({:.0}s down)", r.work[0], r.downtime_secs[0]),
                format!("{:.0}", r.work[1]),
                format!("{:.0}", r.work[2]),
                format!("{:.0} ({:.0}s down)", r.work[3], r.downtime_secs[3]),
                crate::table::pct(r.work[3] / r.work[0] - 1.0),
            ]
        })
        .collect();
    let mut out = crate::table::markdown(
        &[
            "weather",
            "age",
            "e-Buff",
            "BAAT-s",
            "BAAT-h",
            "BAAT",
            "BAAT vs e-Buff",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\nworst-case BAAT throughput gain: {} (paper ~28%)\n",
        crate::table::pct(t.worst_case_baat_gain())
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baat_wins_under_scarcity() {
        let t = run(&[(Weather::Rainy, true)], 47);
        let r = &t.rows[0];
        assert!(
            r.work[3] > r.work[0],
            "BAAT {} must beat e-Buff {} when power is scarce",
            r.work[3],
            r.work[0]
        );
    }

    #[test]
    fn ebuff_downtime_explains_its_losses() {
        let t = run(&[(Weather::Rainy, true)], 47);
        let r = &t.rows[0];
        assert!(
            r.downtime_secs[0] > r.downtime_secs[3],
            "e-Buff downtime {} should exceed BAAT {}",
            r.downtime_secs[0],
            r.downtime_secs[3]
        );
    }

    #[test]
    fn baat_s_pays_throttle_penalty() {
        let t = run(&[(Weather::Cloudy, true)], 47);
        let r = &t.rows[0];
        assert!(
            r.work[1] <= r.work[3],
            "BAAT-s {} should not beat coordinated BAAT {}",
            r.work[1],
            r.work[3]
        );
    }
}
