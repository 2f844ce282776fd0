//! Battery telemetry: the sensor data of paper Table 2 and the usage
//! aggregates the five aging metrics are computed from.

use std::collections::VecDeque;

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

/// Telemetry store for one battery: recent raw sensor samples plus
/// lifetime and resettable-window usage accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryLog {
    samples: VecDeque<SensorSample>,
    max_samples: usize,
    lifetime: UsageAccumulator,
    window: UsageAccumulator,
}

impl TelemetryLog {
    /// Creates a log retaining at most `max_samples` raw sensor readings.
    pub fn new(max_samples: usize) -> Self {
        Self {
            samples: VecDeque::with_capacity(max_samples.min(4096)),
            max_samples,
            lifetime: UsageAccumulator::default(),
            window: UsageAccumulator::default(),
        }
    }

    /// Appends a raw sensor sample, evicting the oldest beyond capacity.
    pub fn push_sample(&mut self, sample: SensorSample) {
        crate::ring::push(&mut self.samples, sample, self.max_samples);
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

    /// Retained raw sensor samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &SensorSample> {
        self.samples.iter()
    }

    /// The most recent sensor sample, if any.
    pub fn latest(&self) -> Option<&SensorSample> {
        self.samples.back()
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

    /// Captures the full log contents for a checkpoint.
    pub fn capture(&self) -> crate::state::TelemetryState {
        crate::state::TelemetryState {
            max_samples: self.max_samples,
            samples: crate::ring::rows(&self.samples),
            lifetime: self.lifetime,
            window: self.window,
        }
    }

    /// Rebuilds a log from captured contents. The restored log holds the
    /// rows [`TelemetryLog::capture`] saw, in the same eviction order;
    /// samples beyond `max_samples` keep only the newest, as
    /// [`TelemetryLog::push_sample`] would. Ring capacity follows
    /// [`crate::ring::restore`], not [`TelemetryLog::new`]'s preallocation.
    pub fn restore(state: &crate::state::TelemetryState) -> Self {
        Self {
            samples: crate::ring::restore(&state.samples, state.max_samples),
            max_samples: state.max_samples,
            lifetime: state.lifetime,
            window: state.window,
        }
    }
}

impl Default for TelemetryLog {
    fn default() -> Self {
        Self::new(4096)
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
    fn restore_keeps_the_newest_samples_within_capacity() {
        let sample = |i| SensorSample {
            at: SimInstant::from_secs(i),
            voltage: Volts::new(12.0),
            current: Amperes::ZERO,
            temperature: Celsius::new(25.0),
            soc: soc(0.5),
        };
        let mut state = TelemetryLog::new(4).capture();
        state.samples = (0..6).map(sample).collect();
        let mut log = TelemetryLog::restore(&state);
        assert_eq!(log.samples().count(), 4);
        assert_eq!(log.samples().next().unwrap().at, SimInstant::from_secs(2));
        log.push_sample(sample(6));
        assert_eq!(log.samples().count(), 4);
        state.max_samples = 0;
        let mut log = TelemetryLog::restore(&state);
        log.push_sample(sample(7));
        assert!(log.latest().is_none());
    }

    #[test]
    fn sample_ring_evicts_oldest() {
        let mut log = TelemetryLog::new(2);
        for i in 0..3 {
            log.push_sample(SensorSample {
                at: SimInstant::from_secs(i),
                voltage: Volts::new(12.0),
                current: Amperes::ZERO,
                temperature: Celsius::new(25.0),
                soc: soc(0.5),
            });
        }
        assert_eq!(log.samples().count(), 2);
        assert_eq!(log.latest().unwrap().at, SimInstant::from_secs(2));
        assert_eq!(log.samples().next().unwrap().at, SimInstant::from_secs(1));
    }
}
