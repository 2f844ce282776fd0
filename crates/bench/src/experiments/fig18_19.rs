//! Figures 18 and 19: low-SoC duration and the SoC distribution.
//!
//! Fig 18: e-Buff leaves batteries in low-SoC states for long stretches,
//! risking single points of failure; BAAT cuts the worst-node low-SoC
//! duration (paper: availability +47 %). Fig 19: over a long run, e-Buff
//! piles probability mass into the low SoC bins while BAAT shifts it
//! toward 90–100 %.

use baat_core::{
    availability_improvement, critical_improvement, soc_distribution, LowSocSummary, Scheme,
};
use baat_sim::SimReport;
use baat_solar::Weather;

use crate::runner::{plan_config, run_scenarios, runner_threads, Scenario};

/// Low-SoC and distribution results for one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeAvailability {
    /// The scheme.
    pub scheme: Scheme,
    /// Low-SoC exposure summary (Fig 18).
    pub low_soc: LowSocSummary,
    /// Normalized 7-bin SoC distribution (Fig 19).
    pub distribution: [f64; 7],
}

/// The combined Fig 18/19 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityStudy {
    /// Per-scheme results, Table-4 order.
    pub schemes: Vec<SchemeAvailability>,
    /// Availability improvement of BAAT over e-Buff by worst-node
    /// low-SoC duration (<40 %).
    pub baat_improvement: Option<f64>,
    /// Improvement by worst-node *critical* exposure (<15 % SoC) — the
    /// SPOF reading of §VI.E.
    pub baat_critical_improvement: Option<f64>,
}

impl AvailabilityStudy {
    /// Result for one scheme.
    pub fn for_scheme(&self, scheme: Scheme) -> &SchemeAvailability {
        self.schemes
            .iter()
            .find(|s| s.scheme == scheme)
            .expect("all schemes present")
    }

    /// Probability mass in the top bin (SoC ≥ 90 %) for a scheme.
    pub fn top_bin_mass(&self, scheme: Scheme) -> f64 {
        self.for_scheme(scheme).distribution[6]
    }

    /// Probability mass below 45 % SoC (bins 0–2) for a scheme.
    pub fn low_mass(&self, scheme: Scheme) -> f64 {
        self.for_scheme(scheme).distribution[..3].iter().sum()
    }
}

/// Runs the study over a mixed multi-day window.
pub fn run(days: usize, seed: u64) -> AvailabilityStudy {
    // A scarcity-weighted mix: the paper's six-month record includes all
    // weathers; low-SoC behaviour shows on the harder days.
    let plan: Vec<Weather> = (0..days)
        .map(|i| match i % 3 {
            0 => Weather::Sunny,
            1 => Weather::Cloudy,
            _ => Weather::Rainy,
        })
        .collect();
    let scenarios = Scheme::ALL
        .iter()
        .map(|&scheme| Scenario::new(scheme, plan_config(plan.clone(), seed)))
        .collect();
    let reports: Vec<(Scheme, SimReport)> = Scheme::ALL
        .iter()
        .copied()
        .zip(run_scenarios(scenarios, runner_threads()))
        .collect();
    let baat_report = &reports
        .iter()
        .find(|(s, _)| *s == Scheme::Baat)
        .expect("BAAT in table")
        .1;
    let baat_improvement = availability_improvement(&reports[0].1, baat_report);
    let baat_critical_improvement = critical_improvement(&reports[0].1, baat_report);
    let schemes = reports
        .into_iter()
        .map(|(scheme, report)| SchemeAvailability {
            scheme,
            low_soc: LowSocSummary::from_report(&report),
            distribution: soc_distribution(&report),
        })
        .collect();
    AvailabilityStudy {
        schemes,
        baat_improvement,
        baat_critical_improvement,
    }
}

/// The paper-scale run (its record spans six months; six days of each
/// weather already show the distribution shift).
pub fn run_paper(seed: u64) -> AvailabilityStudy {
    run(18, seed)
}

/// Renders both figures' tables.
pub fn render(a: &AvailabilityStudy) -> String {
    let fig18_rows: Vec<Vec<String>> = a
        .schemes
        .iter()
        .map(|s| {
            vec![
                s.scheme.to_string(),
                format!("{}", s.low_soc.worst),
                format!("{}", s.low_soc.mean),
                format!("{}", s.low_soc.worst_critical),
            ]
        })
        .collect();
    let mut out = String::from("Fig 18 — low-SoC duration (worst node):\n\n");
    out.push_str(&crate::table::markdown(
        &["scheme", "worst <40%", "mean <40%", "worst <15%"],
        &fig18_rows,
    ));
    out.push_str(&format!(
        "\nBAAT low-SoC (<40%) duration reduction: {} — critical (<15%) \
         exposure reduction: {} (paper ~47%)\n",
        a.baat_improvement.map_or("—".into(), crate::table::pct),
        a.baat_critical_improvement
            .map_or("—".into(), crate::table::pct),
    ));
    out.push_str("\nFig 19 — SoC distribution (time-weighted):\n\n");
    let bins = [
        "0-15%", "15-30%", "30-45%", "45-60%", "60-75%", "75-90%", "90-100%",
    ];
    let fig19_rows: Vec<Vec<String>> = a
        .schemes
        .iter()
        .map(|s| {
            let mut row = vec![s.scheme.to_string()];
            row.extend(s.distribution.iter().map(|v| crate::table::pct(*v)));
            row
        })
        .collect();
    let mut header = vec!["scheme"];
    header.extend(bins);
    out.push_str(&crate::table::markdown(&header, &fig19_rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baat_cuts_low_soc_exposure() {
        let a = run(3, 41);
        let ebuff = a.for_scheme(Scheme::EBuff).low_soc.worst;
        let baat = a.for_scheme(Scheme::Baat).low_soc.worst;
        assert!(baat <= ebuff, "BAAT {baat} vs e-Buff {ebuff}");
    }

    #[test]
    fn distributions_are_normalized() {
        let a = run(3, 41);
        for s in &a.schemes {
            let total: f64 = s.distribution.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", s.scheme);
        }
    }

    #[test]
    fn baat_shifts_mass_upward() {
        let a = run(3, 41);
        assert!(
            a.low_mass(Scheme::Baat) <= a.low_mass(Scheme::EBuff) + 1e-9,
            "BAAT {} vs e-Buff {}",
            a.low_mass(Scheme::Baat),
            a.low_mass(Scheme::EBuff)
        );
    }
}
