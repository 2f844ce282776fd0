//! Table-3 sensitivities and the Eq-6 weighted aging value.
//!
//! BAAT's aging-hiding scheduler ranks battery nodes by a weighted
//! combination of NAT, CF and PC. The weighting factors depend on the
//! incoming workload's power/energy demand class (paper Table 3): a, b, c
//! in Eq 6 are 50 % for "High" sensitivity, 30 % for "Medium" and 20 %
//! for "Low".

use baat_workload::{DemandClass, EnergyDemand, PowerDemand};

use crate::five::AgingMetrics;

/// Sensitivity of a metric to a workload's demand class (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sensitivity {
    /// High impact — Eq 6 weight 0.5.
    High,
    /// Medium impact — Eq 6 weight 0.3.
    Medium,
    /// Low impact — Eq 6 weight 0.2.
    Low,
}

impl Sensitivity {
    /// The Eq-6 weighting factor for this sensitivity.
    pub fn weight(self) -> f64 {
        match self {
            Sensitivity::High => 0.5,
            Sensitivity::Medium => 0.3,
            Sensitivity::Low => 0.2,
        }
    }
}

/// The per-metric sensitivities of one Table-3 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricSensitivities {
    /// ΔNAT sensitivity.
    pub nat: Sensitivity,
    /// ΔCF sensitivity.
    pub cf: Sensitivity,
    /// ΔPC sensitivity.
    pub pc: Sensitivity,
}

/// Looks up the Table-3 row for a workload demand class.
///
/// | Power | Energy | ΔNAT | ΔCF | ΔPC |
/// |-------|--------|------|-----|-----|
/// | Large | Less   | Medium | High | High |
/// | Large | More   | High | High | High |
/// | Small | More   | High | Low  | Medium |
/// | Small | Less   | Low  | Low  | Low |
pub fn table3_sensitivities(class: DemandClass) -> MetricSensitivities {
    use EnergyDemand::{Less, More};
    use PowerDemand::{Large, Small};
    match (class.power, class.energy) {
        (Large, Less) => MetricSensitivities {
            nat: Sensitivity::Medium,
            cf: Sensitivity::High,
            pc: Sensitivity::High,
        },
        (Large, More) => MetricSensitivities {
            nat: Sensitivity::High,
            cf: Sensitivity::High,
            pc: Sensitivity::High,
        },
        (Small, More) => MetricSensitivities {
            nat: Sensitivity::High,
            cf: Sensitivity::Low,
            pc: Sensitivity::Medium,
        },
        (Small, Less) => MetricSensitivities {
            nat: Sensitivity::Low,
            cf: Sensitivity::Low,
            pc: Sensitivity::Low,
        },
    }
}

/// Normalized per-metric "badness" scores in `[0, 1]`, higher = faster
/// aging, derived from the §IV.B.2.b reading of each metric:
///
/// * NAT — "a very high value of Ah-throughput indicates faster aging";
/// * CF — "a low CF value implies that the battery has more discharging
///   events than charging (to their full capacity)";
/// * PC — cycling concentrated at low SoC (high Eq-4 value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingScores {
    /// Throughput badness: NAT clamped to `[0, 1]`.
    pub nat: f64,
    /// Recharge-deficiency badness: shortfall of CF below the healthy
    /// band, scaled so CF ≤ 0.6 saturates at 1.
    pub cf: f64,
    /// Low-SoC cycling badness: Eq-4 PC rescaled from `[0.25, 1]` to
    /// `[0, 1]`.
    pub pc: f64,
}

impl AgingScores {
    /// Derives the badness scores from raw metrics.
    pub fn from_metrics(m: &AgingMetrics) -> Self {
        let nat = m.nat.clamp(0.0, 1.0);
        let cf = match m.cf {
            // CF at/above 1.0 is healthy; each 0.1 below adds 0.25.
            Some(cf) => ((1.0 - cf) / 0.4).clamp(0.0, 1.0),
            None => 0.0,
        };
        let pc_raw = m.pc.weighted_value();
        let pc = if pc_raw <= 0.0 {
            0.0
        } else {
            ((pc_raw - 0.25) / 0.75).clamp(0.0, 1.0)
        };
        Self { nat, cf, pc }
    }
}

/// The Eq-6 weighted aging value for one battery under a prospective
/// workload class:
///
/// `Weighted_aging = a·ΔCF + b·ΔPC + c·ΔNAT`
///
/// Larger values indicate faster aging; BAAT places new load on the node
/// with the *smallest* weighted aging.
///
/// # Examples
///
/// ```
/// use baat_battery::UsageAccumulator;
/// use baat_metrics::{weighted_aging, AgingMetrics, BatteryRatings};
/// use baat_units::AmpHours;
/// use baat_workload::{DemandClass, EnergyDemand, PowerDemand};
///
/// let ratings = BatteryRatings {
///     capacity: AmpHours::new(35.0),
///     lifetime_throughput: AmpHours::new(17_500.0),
/// };
/// let metrics = AgingMetrics::from_accumulator(&UsageAccumulator::default(), &ratings);
/// let class = DemandClass { power: PowerDemand::Large, energy: EnergyDemand::More };
/// assert_eq!(weighted_aging(&metrics, class), 0.0);
/// ```
pub fn weighted_aging(metrics: &AgingMetrics, class: DemandClass) -> f64 {
    let s = table3_sensitivities(class);
    let scores = AgingScores::from_metrics(metrics);
    s.cf.weight() * scores.cf + s.pc.weight() * scores.pc + s.nat.weight() * scores.nat
}

/// All four Table-3 demand classes, in [`class_index`] order. Fleet-wide
/// score caches keep one weighted-aging value per entry.
pub const DEMAND_CLASSES: [DemandClass; 4] = [
    DemandClass {
        power: PowerDemand::Large,
        energy: EnergyDemand::Less,
    },
    DemandClass {
        power: PowerDemand::Large,
        energy: EnergyDemand::More,
    },
    DemandClass {
        power: PowerDemand::Small,
        energy: EnergyDemand::Less,
    },
    DemandClass {
        power: PowerDemand::Small,
        energy: EnergyDemand::More,
    },
];

/// Dense index of a demand class into [`DEMAND_CLASSES`].
pub fn class_index(class: DemandClass) -> usize {
    let p = match class.power {
        PowerDemand::Large => 0,
        PowerDemand::Small => 1,
    };
    let e = match class.energy {
        EnergyDemand::Less => 0,
        EnergyDemand::More => 1,
    };
    p * 2 + e
}

/// The Eq-6 weighted aging value for every demand class at once, indexed
/// by [`class_index`]. Each entry is computed by the same
/// [`weighted_aging`] call a per-class lookup would make, so the values
/// are bit-identical to scoring classes one at a time.
pub fn weighted_aging_all(metrics: &AgingMetrics) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (slot, class) in out.iter_mut().zip(DEMAND_CLASSES) {
        *slot = weighted_aging(metrics, class);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::five::{BatteryRatings, PartialCycling};
    use baat_battery::UsageAccumulator;
    use baat_units::{AmpHours, Amperes, Fraction, SimDuration, Soc, Volts, WattHours};

    fn class(p: PowerDemand, e: EnergyDemand) -> DemandClass {
        DemandClass {
            power: p,
            energy: e,
        }
    }

    fn ratings() -> BatteryRatings {
        BatteryRatings {
            capacity: AmpHours::new(35.0),
            lifetime_throughput: AmpHours::new(17_500.0),
        }
    }

    fn metrics_with(nat: f64, cf: Option<f64>, low_soc_share: f64) -> AgingMetrics {
        AgingMetrics {
            nat,
            cf,
            pc: PartialCycling {
                share_by_range: [1.0 - low_soc_share, 0.0, 0.0, low_soc_share],
            },
            ddt: Fraction::ZERO,
            dr: crate::five::DischargeRate {
                peak_c_rate: 0.0,
                mean_c_rate: 0.0,
            },
        }
    }

    #[test]
    fn sensitivity_weights_match_paper() {
        assert_eq!(Sensitivity::High.weight(), 0.5);
        assert_eq!(Sensitivity::Medium.weight(), 0.3);
        assert_eq!(Sensitivity::Low.weight(), 0.2);
    }

    #[test]
    fn table3_rows_match_paper() {
        let ll = table3_sensitivities(class(PowerDemand::Large, EnergyDemand::Less));
        assert_eq!(
            (ll.nat, ll.cf, ll.pc),
            (Sensitivity::Medium, Sensitivity::High, Sensitivity::High)
        );
        let lm = table3_sensitivities(class(PowerDemand::Large, EnergyDemand::More));
        assert_eq!(
            (lm.nat, lm.cf, lm.pc),
            (Sensitivity::High, Sensitivity::High, Sensitivity::High)
        );
        let sm = table3_sensitivities(class(PowerDemand::Small, EnergyDemand::More));
        assert_eq!(
            (sm.nat, sm.cf, sm.pc),
            (Sensitivity::High, Sensitivity::Low, Sensitivity::Medium)
        );
        let sl = table3_sensitivities(class(PowerDemand::Small, EnergyDemand::Less));
        assert_eq!(
            (sl.nat, sl.cf, sl.pc),
            (Sensitivity::Low, Sensitivity::Low, Sensitivity::Low)
        );
    }

    #[test]
    fn worn_battery_scores_higher() {
        let fresh = metrics_with(0.05, Some(1.1), 0.0);
        let worn = metrics_with(0.6, Some(0.8), 0.8);
        let c = class(PowerDemand::Large, EnergyDemand::More);
        assert!(weighted_aging(&worn, c) > weighted_aging(&fresh, c));
    }

    #[test]
    fn low_cf_raises_score() {
        let good_cf = metrics_with(0.2, Some(1.2), 0.2);
        let bad_cf = metrics_with(0.2, Some(0.7), 0.2);
        let c = class(PowerDemand::Large, EnergyDemand::Less);
        assert!(weighted_aging(&bad_cf, c) > weighted_aging(&good_cf, c));
    }

    #[test]
    fn ranking_orders_least_aged_first() {
        let c = class(PowerDemand::Large, EnergyDemand::More);
        let score = |nat, cf, low| weighted_aging(&metrics_with(nat, Some(cf), low), c);
        assert!(score(0.1, 1.2, 0.1) < score(0.5, 0.9, 0.5));
        assert!(score(0.5, 0.9, 0.5) < score(0.9, 0.7, 0.9));
    }

    #[test]
    fn scores_bounded_zero_one() {
        let extreme = metrics_with(5.0, Some(-1.0), 1.0);
        let s = AgingScores::from_metrics(&extreme);
        for v in [s.nat, s.cf, s.pc] {
            assert!((0.0..=1.0).contains(&v), "score {v}");
        }
    }

    #[test]
    fn fresh_accumulator_scores_zero() {
        let m = AgingMetrics::from_accumulator(&UsageAccumulator::default(), &ratings());
        for c in [
            class(PowerDemand::Large, EnergyDemand::More),
            class(PowerDemand::Small, EnergyDemand::Less),
        ] {
            assert_eq!(weighted_aging(&m, c), 0.0);
        }
    }

    #[test]
    fn all_classes_scores_match_per_class_calls() {
        let m = metrics_with(0.37, Some(0.83), 0.44);
        let all = weighted_aging_all(&m);
        for class in DEMAND_CLASSES {
            assert_eq!(all[class_index(class)], weighted_aging(&m, class));
        }
        // The dense index is a bijection over the four classes.
        let mut seen = [false; 4];
        for class in DEMAND_CLASSES {
            seen[class_index(class)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn real_accumulator_flows_through() {
        let mut acc = UsageAccumulator::default();
        let dt = SimDuration::from_hours(1);
        acc.record(
            Soc::new(0.3).unwrap(),
            Amperes::new(10.0),
            Amperes::new(10.0) * dt,
            AmpHours::ZERO,
            Volts::new(12.0) * Amperes::new(10.0) * dt,
            WattHours::ZERO,
            dt,
        );
        let m = AgingMetrics::from_accumulator(&acc, &ratings());
        let w = weighted_aging(&m, class(PowerDemand::Large, EnergyDemand::More));
        assert!(w > 0.0);
    }
}
