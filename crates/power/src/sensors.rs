//! Battery sensor front-ends with measurement noise.
//!
//! The prototype instruments every battery with voltage, current and
//! temperature sensors whose signals pass through an NI BNC-2110 block
//! into a PCI-6221 acquisition card (§V.A, Table 2). The model adds
//! bounded uniform measurement noise to the true values — the BAAT
//! controller only ever sees these noisy readings.

use baat_battery::{Battery, BatteryModel, SensorSample};
use baat_rng::StdRng;
use baat_units::{Amperes, Celsius, SimInstant, Volts};

/// Relative/absolute noise bounds of one sensor channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpec {
    /// Half-width of the voltage noise (volts).
    pub voltage: f64,
    /// Half-width of the current noise (amperes).
    pub current: f64,
    /// Half-width of the temperature noise (°C).
    pub temperature: f64,
}

impl Default for NoiseSpec {
    fn default() -> Self {
        // Hall-effect current sensor and thermistor class accuracy.
        Self {
            voltage: 0.02,
            current: 0.05,
            temperature: 0.5,
        }
    }
}

impl NoiseSpec {
    /// A noiseless (ideal) sensor.
    pub const IDEAL: NoiseSpec = NoiseSpec {
        voltage: 0.0,
        current: 0.0,
        temperature: 0.0,
    };
}

/// A per-battery sensor front-end.
#[derive(Debug, Clone)]
pub struct BatterySensor {
    noise: NoiseSpec,
    rng: StdRng,
}

impl BatterySensor {
    /// Creates a sensor with the given noise and deterministic seed.
    pub fn new(noise: NoiseSpec, seed: u64) -> Self {
        Self {
            noise,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Checkpoint view: the noise-stream position.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds a sensor at a saved noise-stream position.
    pub fn restore(noise: NoiseSpec, rng_state: [u64; 4]) -> Self {
        Self {
            noise,
            rng: StdRng::from_state(rng_state),
        }
    }

    fn jitter(&mut self, half_width: f64) -> f64 {
        if half_width == 0.0 {
            0.0
        } else {
            self.rng.random_range(-half_width..=half_width)
        }
    }

    /// Samples a battery, returning a noisy [`SensorSample`].
    ///
    /// `true_current` and `true_voltage` come from the battery's last step
    /// result; SoC is re-derived from the noisy voltage the way the
    /// prototype derives it ("discharging voltage used for calculating
    /// SoC", Table 2) — here we keep the true SoC but perturb the
    /// electrical channels. Only temperature and SoC are read from the
    /// battery.
    pub fn sample(
        &mut self,
        battery: &Battery,
        true_voltage: Volts,
        true_current: Amperes,
        at: SimInstant,
    ) -> SensorSample {
        SensorSample {
            at,
            voltage: Volts::new(true_voltage.as_f64() + self.jitter(self.noise.voltage)),
            current: Amperes::new(true_current.as_f64() + self.jitter(self.noise.current)),
            temperature: Celsius::new(
                battery.temperature().as_f64() + self.jitter(self.noise.temperature),
            ),
            soc: battery.soc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_battery::BatterySpec;

    #[test]
    fn ideal_sensor_reports_exact_values() {
        let battery = Battery::new(BatterySpec::prototype());
        let mut sensor = BatterySensor::new(NoiseSpec::IDEAL, 1);
        let s = sensor.sample(
            &battery,
            Volts::new(12.5),
            Amperes::new(3.0),
            SimInstant::START,
        );
        assert_eq!(s.voltage, Volts::new(12.5));
        assert_eq!(s.current, Amperes::new(3.0));
        assert_eq!(s.temperature, battery.temperature());
    }

    #[test]
    fn noisy_sensor_stays_within_bounds() {
        let battery = Battery::new(BatterySpec::prototype());
        let mut sensor = BatterySensor::new(NoiseSpec::default(), 2);
        for _ in 0..1000 {
            let s = sensor.sample(
                &battery,
                Volts::new(12.5),
                Amperes::new(3.0),
                SimInstant::START,
            );
            assert!((s.voltage.as_f64() - 12.5).abs() <= 0.02 + 1e-12);
            assert!((s.current.as_f64() - 3.0).abs() <= 0.05 + 1e-12);
            assert!((s.temperature.as_f64() - battery.temperature().as_f64()).abs() <= 0.5 + 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let battery = Battery::new(BatterySpec::prototype());
        let mut a = BatterySensor::new(NoiseSpec::default(), 7);
        let mut b = BatterySensor::new(NoiseSpec::default(), 7);
        for _ in 0..10 {
            let sa = a.sample(
                &battery,
                Volts::new(12.0),
                Amperes::new(1.0),
                SimInstant::START,
            );
            let sb = b.sample(
                &battery,
                Volts::new(12.0),
                Amperes::new(1.0),
                SimInstant::START,
            );
            assert_eq!(sa.voltage, sb.voltage);
            assert_eq!(sa.current, sb.current);
        }
    }
}
