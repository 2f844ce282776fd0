//! Battery packs with unit-to-unit manufacturing variation.
//!
//! The paper (§IV.B.1) attributes aging variation to (1) manufacturing
//! deviations from nominal specifications and (2) differing per-server
//! usage. This module models (1): each unit in a pack draws a capacity
//! scale and an aging-rate multiplier from narrow distributions.

use baat_rng::StdRng;
use baat_units::{Fraction, Ohms, Scale};

use crate::aging::{AgingModel, AgingState};
use crate::chemistry::{AnyBattery, BatteryModel, Chemistry};
use crate::error::BatteryError;
use crate::liion::LiIonBattery;
use crate::model::Battery;
use crate::spec::BatterySpec;

/// Spread parameters for unit-to-unit manufacturing variation.
///
/// Construct with [`VariationParams::new`] (validated [`Fraction`]
/// spreads), or use [`VariationParams::NONE`] / `default()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationParams {
    capacity_spread: f64,
    resistance_spread: f64,
    aging_rate_spread: f64,
}

impl Default for VariationParams {
    fn default() -> Self {
        Self {
            capacity_spread: 0.03,
            resistance_spread: 0.08,
            aging_rate_spread: 0.10,
        }
    }
}

impl VariationParams {
    /// No variation: every unit is exactly nominal.
    pub const NONE: VariationParams = VariationParams {
        capacity_spread: 0.0,
        resistance_spread: 0.0,
        aging_rate_spread: 0.0,
    };

    /// Builds validated spread parameters. Each spread is the half-width
    /// of a uniform distribution around 1.0 (e.g. 0.03 = ±3 %).
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidSpec`] if any spread is ≥ 0.5 (a
    /// half-width that large would allow non-positive scales).
    pub fn new(
        capacity_spread: Fraction,
        resistance_spread: Fraction,
        aging_rate_spread: Fraction,
    ) -> Result<Self, BatteryError> {
        let params = Self {
            capacity_spread: capacity_spread.value(),
            resistance_spread: resistance_spread.value(),
            aging_rate_spread: aging_rate_spread.value(),
        };
        params.validate()?;
        Ok(params)
    }

    /// Half-width of the uniform capacity spread.
    pub fn capacity_spread(&self) -> f64 {
        self.capacity_spread
    }

    /// Half-width of the uniform internal-resistance spread.
    pub fn resistance_spread(&self) -> f64 {
        self.resistance_spread
    }

    /// Half-width of the uniform aging-rate spread.
    pub fn aging_rate_spread(&self) -> f64 {
        self.aging_rate_spread
    }

    fn validate(&self) -> Result<(), BatteryError> {
        for (field, v) in [
            ("capacity_spread", self.capacity_spread),
            ("resistance_spread", self.resistance_spread),
            ("aging_rate_spread", self.aging_rate_spread),
        ] {
            if !(0.0..0.5).contains(&v) {
                return Err(BatteryError::InvalidSpec {
                    field,
                    reason: format!("spread must be in [0, 0.5), got {v}"),
                });
            }
        }
        Ok(())
    }

    fn draw(&self, rng: &mut StdRng, spread: f64) -> f64 {
        if spread == 0.0 {
            1.0
        } else {
            rng.random_range(1.0 - spread..=1.0 + spread)
        }
    }
}

/// A group of battery units deployed together (one per server, or a shared
/// per-rack pool — paper Fig 7 supports both architectures).
///
/// Units are [`AnyBattery`] values: the pack's [`BatterySpec`] chemistry
/// decides which dynamic model each unit runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryPack {
    units: Vec<AnyBattery>,
}

impl BatteryPack {
    /// Builds a pack of `count` units from a common spec with seeded
    /// manufacturing variation.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidSpec`] if `count` is zero or any
    /// spread is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), baat_battery::BatteryError> {
    /// use baat_battery::{BatteryPack, BatterySpec, VariationParams};
    ///
    /// let pack = BatteryPack::manufacture(
    ///     BatterySpec::prototype(),
    ///     6,
    ///     VariationParams::default(),
    ///     42,
    /// )?;
    /// assert_eq!(pack.len(), 6);
    /// # Ok(())
    /// # }
    /// ```
    pub fn manufacture(
        spec: BatterySpec,
        count: usize,
        variation: VariationParams,
        seed: u64,
    ) -> Result<Self, BatteryError> {
        if count == 0 {
            return Err(BatteryError::InvalidSpec {
                field: "count",
                reason: "pack must contain at least one battery".to_owned(),
            });
        }
        variation.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let units = (0..count)
            .map(|_| {
                // The draw order (capacity, resistance, rate) is part of
                // the determinism contract: changing it would reshuffle
                // every seeded fleet.
                let cap_scale = variation.draw(&mut rng, variation.capacity_spread);
                let r_scale = variation.draw(&mut rng, variation.resistance_spread);
                let rate = variation.draw(&mut rng, variation.aging_rate_spread);
                // Per-unit resistance deviation folds into the spec.
                let unit_spec = {
                    let mut b = BatterySpec::builder();
                    b.chemistry(spec.chemistry())
                        .nominal_voltage(spec.nominal_voltage())
                        .capacity(spec.capacity())
                        .internal_resistance(Ohms::new(
                            spec.internal_resistance().as_f64() * r_scale,
                        ))
                        .cutoff_voltage(spec.cutoff_voltage())
                        .max_charge_current(spec.max_charge_current())
                        .max_discharge_current(spec.max_discharge_current())
                        .lifetime_throughput(spec.lifetime_throughput())
                        .manufacturer(spec.manufacturer())
                        .coulombic_efficiency(spec.coulombic_efficiency())
                        .self_discharge_per_day(spec.self_discharge_per_day())
                        .ambient(spec.ambient());
                    b.build().expect("derived spec stays valid")
                };
                let cap_scale = Scale::new(cap_scale).expect("drawn scale is positive");
                let rate_scale = Scale::new(rate).expect("drawn rate is positive");
                match unit_spec.chemistry() {
                    Chemistry::LeadAcid => {
                        let aging = AgingState::new(
                            AgingModel::new(unit_spec.lifetime_throughput().as_f64())
                                .with_rate_multiplier(rate),
                        );
                        AnyBattery::LeadAcid(Battery::with_aging(unit_spec, aging, cap_scale))
                    }
                    Chemistry::LiIon => AnyBattery::LiIon(LiIonBattery::with_variation(
                        unit_spec, rate_scale, cap_scale,
                    )),
                }
            })
            .collect();
        Ok(Self { units })
    }

    /// Builds a pack of identical nominal units (no variation).
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidSpec`] if `count` is zero.
    pub fn uniform(spec: BatterySpec, count: usize) -> Result<Self, BatteryError> {
        Self::manufacture(spec, count, VariationParams::NONE, 0)
    }

    /// Number of units in the pack.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// `true` if the pack holds no units (never true for constructed
    /// packs).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Immutable view of a unit.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::UnknownBattery`] for an out-of-range index.
    pub fn unit(&self, index: usize) -> Result<&AnyBattery, BatteryError> {
        self.units.get(index).ok_or(BatteryError::UnknownBattery {
            index,
            len: self.units.len(),
        })
    }

    /// Mutable view of a unit.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::UnknownBattery`] for an out-of-range index.
    pub fn unit_mut(&mut self, index: usize) -> Result<&mut AnyBattery, BatteryError> {
        let len = self.units.len();
        self.units
            .get_mut(index)
            .ok_or(BatteryError::UnknownBattery { index, len })
    }

    /// Iterates over the units.
    pub fn iter(&self) -> impl Iterator<Item = &AnyBattery> {
        self.units.iter()
    }

    /// Iterates mutably over the units.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut AnyBattery> {
        self.units.iter_mut()
    }

    /// The units as one mutable slice — the sharding seam: the engine
    /// splits the pack into disjoint per-bank ranges (`split_at_mut`)
    /// so independent banks step on separate threads. Each unit owns
    /// its memo caches, so a `&mut` range is safe to step in isolation.
    pub fn units_mut(&mut self) -> &mut [AnyBattery] {
        &mut self.units
    }

    /// Index of the unit with the highest accumulated damage (the paper's
    /// "worst battery node").
    pub fn most_aged(&self) -> usize {
        self.units
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_damage().total_cmp(&b.total_damage()))
            .map(|(i, _)| i)
            .expect("pack is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_units::{Celsius, SimDuration, SimInstant, Watts};

    use crate::model::BatteryOp;

    #[test]
    fn manufacture_is_deterministic_per_seed() {
        let a =
            BatteryPack::manufacture(BatterySpec::prototype(), 6, VariationParams::default(), 7)
                .unwrap();
        let b =
            BatteryPack::manufacture(BatterySpec::prototype(), 6, VariationParams::default(), 7)
                .unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.effective_capacity(), y.effective_capacity());
        }
    }

    #[test]
    fn different_seeds_give_different_units() {
        let a =
            BatteryPack::manufacture(BatterySpec::prototype(), 6, VariationParams::default(), 1)
                .unwrap();
        let b =
            BatteryPack::manufacture(BatterySpec::prototype(), 6, VariationParams::default(), 2)
                .unwrap();
        let same = a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.effective_capacity() == y.effective_capacity());
        assert!(!same);
    }

    #[test]
    fn variation_stays_within_spread() {
        let pack =
            BatteryPack::manufacture(BatterySpec::prototype(), 50, VariationParams::default(), 3)
                .unwrap();
        for unit in pack.iter() {
            let cap = unit.effective_capacity().as_f64();
            assert!((35.0 * 0.97..=35.0 * 1.03).contains(&cap), "cap {cap}");
            let rate = unit
                .as_lead_acid()
                .unwrap()
                .aging()
                .model()
                .rate_multiplier();
            assert!((0.9..=1.1).contains(&rate), "rate {rate}");
        }
    }

    #[test]
    fn uniform_pack_has_identical_units() {
        let pack = BatteryPack::uniform(BatterySpec::prototype(), 4).unwrap();
        let cap0 = pack.unit(0).unwrap().effective_capacity();
        assert!(pack.iter().all(|u| u.effective_capacity() == cap0));
    }

    #[test]
    fn empty_pack_is_rejected() {
        assert!(BatteryPack::uniform(BatterySpec::prototype(), 0).is_err());
    }

    #[test]
    fn unknown_index_is_an_error() {
        let pack = BatteryPack::uniform(BatterySpec::prototype(), 2).unwrap();
        assert!(matches!(
            pack.unit(5),
            Err(BatteryError::UnknownBattery { index: 5, len: 2 })
        ));
    }

    #[test]
    fn most_aged_tracks_heavier_usage() {
        let mut pack = BatteryPack::uniform(BatterySpec::prototype(), 3).unwrap();
        let dt = SimDuration::from_minutes(10);
        let mut now = SimInstant::START;
        for _ in 0..200 {
            // Unit 1 works much harder than the others.
            pack.unit_mut(0).unwrap().step(
                BatteryOp::Discharge(Watts::new(10.0)),
                Celsius::new(25.0),
                now,
                dt,
            );
            pack.unit_mut(1).unwrap().step(
                BatteryOp::Discharge(Watts::new(150.0)),
                Celsius::new(25.0),
                now,
                dt,
            );
            pack.unit_mut(2)
                .unwrap()
                .step(BatteryOp::Idle, Celsius::new(25.0), now, dt);
            now += dt;
        }
        assert_eq!(pack.most_aged(), 1);
    }

    #[test]
    fn aging_rate_variation_produces_aging_spread() {
        // Identical usage, different units → different damage (paper
        // §IV.B.1 aging variation).
        let mut pack =
            BatteryPack::manufacture(BatterySpec::prototype(), 6, VariationParams::default(), 11)
                .unwrap();
        let dt = SimDuration::from_minutes(10);
        let mut now = SimInstant::START;
        for _ in 0..500 {
            for unit in pack.iter_mut() {
                unit.step(
                    BatteryOp::Discharge(Watts::new(80.0)),
                    Celsius::new(25.0),
                    now,
                    dt,
                );
            }
            now += dt;
        }
        let damages: Vec<f64> = pack.iter().map(|u| u.total_damage()).collect();
        let min = damages.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = damages.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.02, "damage spread expected: {damages:?}");
        // Damage must track the drawn aging-rate multiplier: the
        // normalized damage (damage / rate) is nearly unit-independent.
        let normalized: Vec<f64> = pack
            .iter()
            .map(|u| {
                let pb = u.as_lead_acid().unwrap();
                pb.total_damage() / pb.aging().model().rate_multiplier()
            })
            .collect();
        let n_min = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
        let n_max = normalized.iter().cloned().fold(0.0, f64::max);
        assert!(
            n_max / n_min < 1.05,
            "normalized damage should collapse: {normalized:?}"
        );
    }

    #[test]
    fn li_ion_spec_manufactures_li_ion_units_with_variation() {
        let pack = BatteryPack::manufacture(
            BatterySpec::li_ion_prototype(),
            8,
            VariationParams::default(),
            21,
        )
        .unwrap();
        let mut caps = Vec::new();
        for unit in pack.iter() {
            let li = unit.as_li_ion().expect("chemistry must follow the spec");
            assert!((0.9..=1.1).contains(&li.aging().rate_multiplier()));
            caps.push(unit.effective_capacity().as_f64());
        }
        assert!(caps.iter().any(|c| (c - caps[0]).abs() > 1e-9));
    }

    #[test]
    fn variation_params_reject_wide_spreads() {
        assert!(
            VariationParams::new(Fraction::saturating(0.5), Fraction::ZERO, Fraction::ZERO)
                .is_err()
        );
        let p = VariationParams::new(
            Fraction::saturating(0.03),
            Fraction::saturating(0.08),
            Fraction::saturating(0.10),
        )
        .unwrap();
        assert_eq!(p, VariationParams::default());
    }
}
