//! Battery specification and builder.

use baat_units::{AmpHours, Amperes, Celsius, Fraction, Ohms, Volts};

use crate::chemistry::Chemistry;
use crate::cycle_life::Manufacturer;
use crate::error::BatteryError;

/// Static parameters of one battery unit, for any [`Chemistry`].
///
/// The defaults model the paper's prototype hardware: twelve 12 V 35 Ah
/// sealed (VRLA) lead-acid batteries (§V.A). Use
/// [`BatterySpec::li_ion_prototype`] for the Li-ion equivalent.
///
/// Construct with [`BatterySpec::builder`]:
///
/// ```
/// # fn main() -> Result<(), baat_battery::BatteryError> {
/// use baat_battery::BatterySpec;
/// use baat_units::AmpHours;
///
/// let spec = BatterySpec::builder()
///     .capacity(AmpHours::new(35.0))
///     .build()?;
/// assert_eq!(spec.capacity(), AmpHours::new(35.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatterySpec {
    chemistry: Chemistry,
    nominal_voltage: Volts,
    capacity: AmpHours,
    internal_resistance: Ohms,
    cutoff_voltage: Volts,
    max_charge_current: Amperes,
    max_discharge_current: Amperes,
    lifetime_throughput: AmpHours,
    manufacturer: Manufacturer,
    coulombic_efficiency: Fraction,
    self_discharge_per_day: Fraction,
    thermal_resistance: f64,
    thermal_time_constant_s: f64,
    ambient: Celsius,
}

impl BatterySpec {
    /// Starts building a specification from the prototype defaults.
    pub fn builder() -> BatterySpecBuilder {
        BatterySpecBuilder::default()
    }

    /// A builder starting from this spec, so a derived spec sets only
    /// the fields it changes. The lifetime throughput counts as set:
    /// changing the capacity keeps it, so a derivation that scales the
    /// capacity scales the throughput explicitly.
    pub fn to_builder(&self) -> BatterySpecBuilder {
        BatterySpecBuilder {
            spec: self.clone(),
            lifetime_throughput_set: true,
        }
    }

    /// The paper's prototype battery: 12 V, 35 Ah sealed lead-acid.
    ///
    /// # Examples
    ///
    /// ```
    /// use baat_battery::BatterySpec;
    ///
    /// let spec = BatterySpec::prototype();
    /// assert_eq!(spec.nominal_voltage().as_f64(), 12.0);
    /// ```
    pub fn prototype() -> Self {
        BatterySpecBuilder::default()
            .build()
            .expect("prototype defaults are valid")
    }

    /// An LFP-flavoured Li-ion drop-in for the prototype bay: a 4s pack
    /// at 12.8 V nominal with the same 35 Ah capacity, but lower
    /// resistance, faster charging, near-unity coulombic efficiency and
    /// a ~2000 full-cycle life.
    ///
    /// # Examples
    ///
    /// ```
    /// use baat_battery::{BatterySpec, Chemistry};
    ///
    /// let spec = BatterySpec::li_ion_prototype();
    /// assert_eq!(spec.chemistry(), Chemistry::LiIon);
    /// assert!(spec.lifetime_throughput() > BatterySpec::prototype().lifetime_throughput());
    /// ```
    pub fn li_ion_prototype() -> Self {
        BatterySpec::builder()
            .chemistry(Chemistry::LiIon)
            .nominal_voltage(Volts::new(12.8))
            .capacity(AmpHours::new(35.0))
            .internal_resistance(Ohms::new(0.008))
            .cutoff_voltage(Volts::new(10.0))
            .max_charge_current(Amperes::new(17.5)) // C/2
            .max_discharge_current(Amperes::new(70.0)) // 2C
            // ~2000 full-equivalent cycles, set after capacity() so the
            // lead-acid 500-cycle auto-scaling does not overwrite it.
            .lifetime_throughput(AmpHours::new(35.0 * 2_000.0))
            .coulombic_efficiency(Fraction::saturating(0.99))
            .self_discharge_per_day(Fraction::saturating(0.000_3))
            .build()
            .expect("li-ion prototype defaults are valid")
    }

    /// The electrochemistry this unit implements.
    pub fn chemistry(&self) -> Chemistry {
        self.chemistry
    }

    /// Nominal terminal voltage (12 V for the prototype units).
    pub fn nominal_voltage(&self) -> Volts {
        self.nominal_voltage
    }

    /// Nominal capacity at the rated discharge current.
    pub fn capacity(&self) -> AmpHours {
        self.capacity
    }

    /// Internal series resistance when new.
    pub fn internal_resistance(&self) -> Ohms {
        self.internal_resistance
    }

    /// Terminal voltage below which the battery must be disconnected
    /// (under-voltage cutoff, paper §II.B cites \[29\]).
    pub fn cutoff_voltage(&self) -> Volts {
        self.cutoff_voltage
    }

    /// Maximum safe charging current.
    pub fn max_charge_current(&self) -> Amperes {
        self.max_charge_current
    }

    /// Maximum safe discharging current.
    pub fn max_discharge_current(&self) -> Amperes {
        self.max_discharge_current
    }

    /// Nominal life-long Ah output `CAP_nom` in the paper's Eq 1: the
    /// aggregate charge that can be cycled before wear-out ([31, 32]).
    pub fn lifetime_throughput(&self) -> AmpHours {
        self.lifetime_throughput
    }

    /// The manufacturer whose cycle-life curve (Fig 10) applies.
    pub fn manufacturer(&self) -> Manufacturer {
        self.manufacturer
    }

    /// Coulombic (charge) efficiency in `(0, 1]`.
    pub fn coulombic_efficiency(&self) -> Fraction {
        self.coulombic_efficiency
    }

    /// Fraction of stored charge lost per idle day.
    pub fn self_discharge_per_day(&self) -> Fraction {
        self.self_discharge_per_day
    }

    /// Steady-state temperature rise per watt of internal dissipation
    /// (K/W).
    pub fn thermal_resistance(&self) -> f64 {
        self.thermal_resistance
    }

    /// First-order thermal time constant in seconds.
    pub fn thermal_time_constant_s(&self) -> f64 {
        self.thermal_time_constant_s
    }

    /// Design ambient temperature.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }
}

impl Default for BatterySpec {
    fn default() -> Self {
        Self::prototype()
    }
}

/// Builder for [`BatterySpec`].
#[derive(Debug, Clone)]
pub struct BatterySpecBuilder {
    spec: BatterySpec,
    lifetime_throughput_set: bool,
}

impl Default for BatterySpecBuilder {
    fn default() -> Self {
        // 12 V 35 Ah VRLA defaults. Lifetime throughput follows the
        // constant-Ah rule of thumb (Bindner et al. [32]): roughly the
        // nominal capacity cycled once a day for ~500 full-equivalent
        // cycles.
        Self {
            spec: BatterySpec {
                chemistry: Chemistry::LeadAcid,
                nominal_voltage: Volts::new(12.0),
                capacity: AmpHours::new(35.0),
                internal_resistance: Ohms::new(0.012),
                cutoff_voltage: Volts::new(10.5),
                max_charge_current: Amperes::new(8.75), // C/4
                max_discharge_current: Amperes::new(35.0), // 1C
                lifetime_throughput: AmpHours::new(35.0 * 500.0),
                manufacturer: Manufacturer::Trojan,
                coulombic_efficiency: Fraction::saturating(0.90),
                self_discharge_per_day: Fraction::saturating(0.001),
                thermal_resistance: 0.6,
                thermal_time_constant_s: 3_600.0,
                ambient: Celsius::new(25.0),
            },
            lifetime_throughput_set: false,
        }
    }
}

impl BatterySpecBuilder {
    /// Sets the electrochemistry. The dynamic model (lead-acid or
    /// Li-ion) is chosen from this when the unit is constructed.
    pub fn chemistry(&mut self, c: Chemistry) -> &mut Self {
        self.spec.chemistry = c;
        self
    }

    /// Sets the nominal voltage.
    pub fn nominal_voltage(&mut self, v: Volts) -> &mut Self {
        self.spec.nominal_voltage = v;
        self
    }

    /// Sets the nominal capacity. Unless overridden, the lifetime
    /// throughput scales with it (500 full-equivalent cycles).
    pub fn capacity(&mut self, c: AmpHours) -> &mut Self {
        self.spec.capacity = c;
        if !self.lifetime_throughput_set {
            self.spec.lifetime_throughput = AmpHours::new(c.as_f64() * 500.0);
        }
        self
    }

    /// Sets the internal series resistance.
    pub fn internal_resistance(&mut self, r: Ohms) -> &mut Self {
        self.spec.internal_resistance = r;
        self
    }

    /// Sets the under-voltage cutoff.
    pub fn cutoff_voltage(&mut self, v: Volts) -> &mut Self {
        self.spec.cutoff_voltage = v;
        self
    }

    /// Sets the maximum charging current.
    pub fn max_charge_current(&mut self, i: Amperes) -> &mut Self {
        self.spec.max_charge_current = i;
        self
    }

    /// Sets the maximum discharging current.
    pub fn max_discharge_current(&mut self, i: Amperes) -> &mut Self {
        self.spec.max_discharge_current = i;
        self
    }

    /// Sets `CAP_nom`, the nominal life-long Ah throughput.
    pub fn lifetime_throughput(&mut self, q: AmpHours) -> &mut Self {
        self.spec.lifetime_throughput = q;
        self.lifetime_throughput_set = true;
        self
    }

    /// Sets the manufacturer cycle-life curve.
    pub fn manufacturer(&mut self, m: Manufacturer) -> &mut Self {
        self.spec.manufacturer = m;
        self
    }

    /// Sets the coulombic efficiency. The [`Fraction`] newtype already
    /// bounds it to `[0, 1]`; [`build`](Self::build) rejects zero.
    pub fn coulombic_efficiency(&mut self, eff: Fraction) -> &mut Self {
        self.spec.coulombic_efficiency = eff;
        self
    }

    /// Sets the idle self-discharge rate per day (must stay below 10 %).
    pub fn self_discharge_per_day(&mut self, rate: Fraction) -> &mut Self {
        self.spec.self_discharge_per_day = rate;
        self
    }

    /// Sets the design ambient temperature.
    pub fn ambient(&mut self, t: Celsius) -> &mut Self {
        self.spec.ambient = t;
        self
    }

    /// Validates the parameters and produces the specification.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidSpec`] if any parameter is
    /// non-positive, non-finite, or inconsistent (e.g. cutoff voltage at or
    /// above nominal voltage).
    pub fn build(&self) -> Result<BatterySpec, BatteryError> {
        let s = &self.spec;
        let positive = [
            ("nominal_voltage", s.nominal_voltage.as_f64()),
            ("capacity", s.capacity.as_f64()),
            ("internal_resistance", s.internal_resistance.as_f64()),
            ("cutoff_voltage", s.cutoff_voltage.as_f64()),
            ("max_charge_current", s.max_charge_current.as_f64()),
            ("max_discharge_current", s.max_discharge_current.as_f64()),
            ("lifetime_throughput", s.lifetime_throughput.as_f64()),
            ("thermal_resistance", s.thermal_resistance),
            ("thermal_time_constant_s", s.thermal_time_constant_s),
        ];
        for (field, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(BatteryError::InvalidSpec {
                    field,
                    reason: format!("must be positive and finite, got {v}"),
                });
            }
        }
        if s.cutoff_voltage >= s.nominal_voltage {
            return Err(BatteryError::InvalidSpec {
                field: "cutoff_voltage",
                reason: format!(
                    "cutoff {} must be below nominal {}",
                    s.cutoff_voltage, s.nominal_voltage
                ),
            });
        }
        if s.coulombic_efficiency.value() <= 0.0 {
            return Err(BatteryError::InvalidSpec {
                field: "coulombic_efficiency",
                reason: format!("must be in (0, 1], got {}", s.coulombic_efficiency.value()),
            });
        }
        if s.self_discharge_per_day.value() >= 0.1 {
            return Err(BatteryError::InvalidSpec {
                field: "self_discharge_per_day",
                reason: format!(
                    "must be in [0, 0.1), got {}",
                    s.self_discharge_per_day.value()
                ),
            });
        }
        Ok(s.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototypes_round_trip_through_their_builders() {
        for spec in [BatterySpec::prototype(), BatterySpec::li_ion_prototype()] {
            assert_eq!(spec.to_builder().build().unwrap(), spec);
            // A derived capacity keeps the resolved throughput.
            let mut b = spec.to_builder();
            b.capacity(spec.capacity() * 2.0);
            let derived = b.build().unwrap();
            assert_eq!(derived.lifetime_throughput(), spec.lifetime_throughput());
            assert_eq!(derived.thermal_resistance(), spec.thermal_resistance());
        }
    }

    #[test]
    fn prototype_matches_paper_hardware() {
        let spec = BatterySpec::prototype();
        assert_eq!(spec.nominal_voltage(), Volts::new(12.0));
        assert_eq!(spec.capacity(), AmpHours::new(35.0));
        assert!(spec.cutoff_voltage() < spec.nominal_voltage());
    }

    #[test]
    fn capacity_scales_default_lifetime_throughput() {
        let spec = BatterySpec::builder()
            .capacity(AmpHours::new(70.0))
            .build()
            .unwrap();
        assert_eq!(spec.lifetime_throughput(), AmpHours::new(35_000.0));
    }

    #[test]
    fn explicit_lifetime_throughput_survives_capacity_change() {
        let spec = BatterySpec::builder()
            .lifetime_throughput(AmpHours::new(9_999.0))
            .capacity(AmpHours::new(70.0))
            .build()
            .unwrap();
        assert_eq!(spec.lifetime_throughput(), AmpHours::new(9_999.0));
    }

    #[test]
    fn rejects_nonpositive_capacity() {
        let err = BatterySpec::builder()
            .capacity(AmpHours::new(0.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, BatteryError::InvalidSpec { field, .. } if field == "capacity"));
    }

    #[test]
    fn rejects_cutoff_above_nominal() {
        let err = BatterySpec::builder()
            .cutoff_voltage(Volts::new(13.0))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, BatteryError::InvalidSpec { field, .. } if field == "cutoff_voltage")
        );
    }

    #[test]
    fn rejects_bad_efficiency() {
        // Out-of-range values can no longer be expressed: the Fraction
        // newtype rejects them at construction...
        assert!(Fraction::new(1.2).is_err());
        // ...and the builder still rejects the in-range-but-useless zero.
        assert!(BatterySpec::builder()
            .coulombic_efficiency(Fraction::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn li_ion_prototype_is_valid_and_distinct() {
        let li = BatterySpec::li_ion_prototype();
        let pb = BatterySpec::prototype();
        assert_eq!(li.chemistry(), Chemistry::LiIon);
        assert_eq!(pb.chemistry(), Chemistry::LeadAcid);
        assert_ne!(li, pb);
        assert!(li.coulombic_efficiency().value() > pb.coulombic_efficiency().value());
        assert!(li.cutoff_voltage() < li.nominal_voltage());
    }
}
