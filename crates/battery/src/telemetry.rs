//! Battery telemetry: the sensor data of paper Table 2 and the usage
//! aggregates the five aging metrics are computed from.
//!
//! A [`TelemetryLog`] keeps only its latest sensor sample next to the
//! accumulators. The sample history a checkpoint carries per unit (the
//! newest `max_samples` rows) is retained outside the unit, by whoever
//! steps it: the simulation engine appends each step's sample to an
//! append-only journal keyed by bank.

use baat_units::{AmpHours, Amperes, Celsius, SimDuration, SimInstant, Soc, Volts, WattHours};

/// One reading from the battery's front-end sensor (paper Table 2:
/// current, voltage, temperature, time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSample {
    /// Sample timestamp.
    pub at: SimInstant,
    /// Terminal voltage.
    pub voltage: Volts,
    /// Battery current (positive = discharge).
    pub current: Amperes,
    /// Battery surface temperature.
    pub temperature: Celsius,
    /// State of charge at sample time.
    pub soc: Soc,
}

/// Number of SoC histogram bins used by paper Fig 19
/// (`[0,15) [15,30) [30,45) [45,60) [60,75) [75,90) [90,100]`).
pub const SOC_HISTOGRAM_BINS: usize = 7;

/// Usage counters over an observation window — the integrals in the
/// paper's Eqs 1–5.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageAccumulator {
    /// Cumulative discharged charge `∫ I_discharge dt`.
    pub ah_discharged: AmpHours,
    /// Cumulative charging charge `∫ I_charge dt`.
    pub ah_charged: AmpHours,
    /// Discharged charge per SoC range A–D (Eq 3 numerators).
    pub ah_discharged_by_range: [AmpHours; 4],
    /// Total observed time `∫ dt`.
    pub observed: SimDuration,
    /// Time spent below 40 % SoC (Eq 5 numerator).
    pub deep_discharge_time: SimDuration,
    /// Time-weighted SoC histogram over the 7 Fig-19 bins.
    pub soc_time_histogram: [SimDuration; SOC_HISTOGRAM_BINS],
    /// Largest discharge current observed.
    pub peak_discharge: Amperes,
    /// Discharge-current · time integral (for mean discharge rate).
    pub discharge_amp_seconds: f64,
    /// Time spent discharging.
    pub discharge_time: SimDuration,
    /// Energy delivered at the terminals.
    pub energy_out: WattHours,
    /// Energy absorbed at the terminals.
    pub energy_in: WattHours,
    /// Number of times the battery reached full charge.
    pub full_charge_events: u64,
}

impl UsageAccumulator {
    /// Folds one step of battery activity into the counters.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        soc: Soc,
        current: Amperes,
        discharged: AmpHours,
        charged: AmpHours,
        energy_out: WattHours,
        energy_in: WattHours,
        dt: SimDuration,
    ) {
        self.ah_discharged += discharged;
        self.ah_charged += charged;
        self.ah_discharged_by_range[soc.cycling_range() as usize] += discharged;
        self.observed += dt;
        if soc.is_deep_discharge() {
            self.deep_discharge_time += dt;
        }
        let bin = Self::soc_bin(soc);
        self.soc_time_histogram[bin] += dt;
        if current.as_f64() > 0.0 {
            self.peak_discharge = self.peak_discharge.max(current);
            self.discharge_amp_seconds += current.as_f64() * dt.as_secs() as f64;
            self.discharge_time += dt;
        }
        self.energy_out += energy_out;
        self.energy_in += energy_in;
    }

    /// The Fig-19 histogram bin for a SoC value.
    pub fn soc_bin(soc: Soc) -> usize {
        let pct = soc.as_percent();
        if pct >= 90.0 {
            6
        } else {
            (pct / 15.0) as usize
        }
    }

    /// Mean discharge current while discharging, or zero if the battery
    /// never discharged.
    pub fn mean_discharge_current(&self) -> Amperes {
        if self.discharge_time.is_zero() {
            return Amperes::ZERO;
        }
        Amperes::new(self.discharge_amp_seconds / self.discharge_time.as_secs() as f64)
    }

    /// Round-trip energy efficiency `E_out / E_in` over the window, or
    /// `None` if no energy was absorbed.
    pub fn round_trip_efficiency(&self) -> Option<f64> {
        if self.energy_in.as_f64() <= 0.0 {
            return None;
        }
        Some(self.energy_out.as_f64() / self.energy_in.as_f64())
    }

    /// Fraction of observed time spent below 40 % SoC (Eq 5), in `[0, 1]`.
    pub fn deep_discharge_fraction(&self) -> f64 {
        if self.observed.is_zero() {
            return 0.0;
        }
        self.deep_discharge_time.as_secs() as f64 / self.observed.as_secs() as f64
    }
}

/// Telemetry store for one battery: the latest raw sensor sample plus
/// lifetime and resettable-window usage accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryLog {
    latest: Option<SensorSample>,
    max_samples: usize,
    lifetime: UsageAccumulator,
    window: UsageAccumulator,
}

impl TelemetryLog {
    /// Sample history a unit's checkpoint carries by default.
    pub const DEFAULT_MAX_SAMPLES: usize = 4_096;

    /// Creates a log whose checkpoints carry at most `max_samples` raw
    /// sensor readings; at 0 it keeps no sample at all.
    pub fn new(max_samples: usize) -> Self {
        Self {
            latest: None,
            max_samples,
            lifetime: UsageAccumulator::default(),
            window: UsageAccumulator::default(),
        }
    }

    /// Records a raw sensor sample as the latest one.
    pub fn push_sample(&mut self, sample: SensorSample) {
        if self.max_samples > 0 {
            self.latest = Some(sample);
        }
    }

    /// Folds one step of activity into both accumulators.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        soc: Soc,
        current: Amperes,
        discharged: AmpHours,
        charged: AmpHours,
        energy_out: WattHours,
        energy_in: WattHours,
        dt: SimDuration,
    ) {
        self.lifetime
            .record(soc, current, discharged, charged, energy_out, energy_in, dt);
        self.window
            .record(soc, current, discharged, charged, energy_out, energy_in, dt);
    }

    /// Registers a full-charge event in both accumulators.
    pub fn record_full_charge(&mut self) {
        self.lifetime.full_charge_events += 1;
        self.window.full_charge_events += 1;
    }

    /// The most recent sensor sample, if any.
    pub fn latest(&self) -> Option<&SensorSample> {
        self.latest.as_ref()
    }

    /// The number of samples this unit's checkpoints carry at most.
    pub fn max_samples(&self) -> usize {
        self.max_samples
    }

    /// Usage counters since the battery was installed.
    pub fn lifetime(&self) -> &UsageAccumulator {
        &self.lifetime
    }

    /// Usage counters since the last [`TelemetryLog::reset_window`].
    pub fn window(&self) -> &UsageAccumulator {
        &self.window
    }

    /// Resets the window accumulator (e.g. at the start of each control
    /// period) and returns the counters it held.
    pub fn reset_window(&mut self) -> UsageAccumulator {
        std::mem::take(&mut self.window)
    }

    /// Captures the log for a checkpoint: its latest sample (if any)
    /// and the accumulators.
    pub fn capture(&self) -> crate::state::TelemetryState {
        crate::state::TelemetryState {
            max_samples: self.max_samples,
            latest: self.latest,
            lifetime: self.lifetime,
            window: self.window,
        }
    }

    /// Rebuilds a log from captured contents: the captured sample
    /// becomes the latest one, unless `max_samples` is 0.
    pub fn restore(state: &crate::state::TelemetryState) -> Self {
        let mut log = Self::new(state.max_samples);
        if let Some(sample) = state.latest {
            log.push_sample(sample);
        }
        log.lifetime = state.lifetime;
        log.window = state.window;
        log
    }
}

impl Default for TelemetryLog {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_SAMPLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soc(v: f64) -> Soc {
        Soc::new(v).unwrap()
    }

    fn record_step(acc: &mut UsageAccumulator, soc_v: f64, amps: f64, secs: u64) {
        let dt = SimDuration::from_secs(secs);
        let (dis, chg) = if amps >= 0.0 {
            (Amperes::new(amps) * dt, AmpHours::ZERO)
        } else {
            (AmpHours::ZERO, Amperes::new(-amps) * dt)
        };
        let (e_out, e_in) = if amps >= 0.0 {
            (Volts::new(12.0) * Amperes::new(amps) * dt, WattHours::ZERO)
        } else {
            (WattHours::ZERO, Volts::new(13.0) * Amperes::new(-amps) * dt)
        };
        acc.record(soc(soc_v), Amperes::new(amps), dis, chg, e_out, e_in, dt);
    }

    #[test]
    fn soc_bins_match_fig19_edges() {
        assert_eq!(UsageAccumulator::soc_bin(soc(0.0)), 0);
        assert_eq!(UsageAccumulator::soc_bin(soc(0.149)), 0);
        assert_eq!(UsageAccumulator::soc_bin(soc(0.15)), 1);
        assert_eq!(UsageAccumulator::soc_bin(soc(0.449)), 2);
        assert_eq!(UsageAccumulator::soc_bin(soc(0.60)), 4);
        assert_eq!(UsageAccumulator::soc_bin(soc(0.899)), 5);
        assert_eq!(UsageAccumulator::soc_bin(soc(0.90)), 6);
        assert_eq!(UsageAccumulator::soc_bin(soc(1.0)), 6);
    }

    #[test]
    fn deep_discharge_time_counts_only_below_forty() {
        let mut acc = UsageAccumulator::default();
        record_step(&mut acc, 0.5, 5.0, 600);
        record_step(&mut acc, 0.3, 5.0, 300);
        assert_eq!(acc.deep_discharge_time, SimDuration::from_secs(300));
        assert!((acc.deep_discharge_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn charge_discharge_split_by_sign() {
        let mut acc = UsageAccumulator::default();
        record_step(&mut acc, 0.5, 7.2, 3600); // 7.2 Ah out
        record_step(&mut acc, 0.5, -3.6, 3600); // 3.6 Ah in
        assert!((acc.ah_discharged.as_f64() - 7.2).abs() < 1e-9);
        assert!((acc.ah_charged.as_f64() - 3.6).abs() < 1e-9);
    }

    #[test]
    fn range_attribution_of_discharge() {
        let mut acc = UsageAccumulator::default();
        record_step(&mut acc, 0.9, 1.0, 3600); // range A
        record_step(&mut acc, 0.3, 2.0, 3600); // range D
        assert!((acc.ah_discharged_by_range[0].as_f64() - 1.0).abs() < 1e-9);
        assert!((acc.ah_discharged_by_range[3].as_f64() - 2.0).abs() < 1e-9);
        assert_eq!(acc.ah_discharged_by_range[1], AmpHours::ZERO);
    }

    #[test]
    fn mean_and_peak_discharge_current() {
        let mut acc = UsageAccumulator::default();
        record_step(&mut acc, 0.5, 2.0, 100);
        record_step(&mut acc, 0.5, 6.0, 100);
        record_step(&mut acc, 0.5, -3.0, 100); // charging, ignored
        assert_eq!(acc.peak_discharge, Amperes::new(6.0));
        assert!((acc.mean_discharge_current().as_f64() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn round_trip_efficiency_requires_energy_in() {
        let mut acc = UsageAccumulator::default();
        assert!(acc.round_trip_efficiency().is_none());
        record_step(&mut acc, 0.5, -5.0, 3600);
        record_step(&mut acc, 0.5, 5.0, 3600);
        let eff = acc.round_trip_efficiency().unwrap();
        assert!((eff - 12.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn log_window_resets_but_lifetime_persists() {
        let mut log = TelemetryLog::new(16);
        let dt = SimDuration::from_secs(60);
        log.record(
            soc(0.5),
            Amperes::new(5.0),
            Amperes::new(5.0) * dt,
            AmpHours::ZERO,
            WattHours::new(6.0),
            WattHours::ZERO,
            dt,
        );
        let taken = log.reset_window();
        assert!(taken.ah_discharged.as_f64() > 0.0);
        assert_eq!(log.window().ah_discharged, AmpHours::ZERO);
        assert!(log.lifetime().ah_discharged.as_f64() > 0.0);
    }

    #[test]
    fn latest_sample_survives_capture_unless_capacity_is_zero() {
        let sample = |i| SensorSample {
            at: SimInstant::from_secs(i),
            voltage: Volts::new(12.0),
            current: Amperes::ZERO,
            temperature: Celsius::new(25.0),
            soc: soc(0.5),
        };
        let mut log = TelemetryLog::default();
        assert!(log.latest().is_none());
        log.push_sample(sample(1));
        log.push_sample(sample(2));
        assert_eq!(log.latest(), Some(&sample(2)));
        let mut state = log.capture();
        assert_eq!(state.latest, Some(sample(2)));
        assert_eq!(TelemetryLog::restore(&state), log);
        state.latest = Some(sample(5));
        assert_eq!(TelemetryLog::restore(&state).latest(), Some(&sample(5)));
        state.max_samples = 0;
        let mut log = TelemetryLog::restore(&state);
        log.push_sample(sample(7));
        assert!(log.latest().is_none());
    }
}
