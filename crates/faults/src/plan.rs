//! Fault taxonomy, timed fault windows, and seeded plan generation.

use baat_rng::{derive_seed, StdRng};
use baat_units::{SimDuration, SimInstant};

/// Stream label for plan generation (see `baat_rng::derive_seed`).
const PLAN_STREAM: u64 = 0xFA17;

/// Default telemetry staleness bound: a node whose freshest power-table
/// row is older than this at a control tick is considered degraded (the
/// prototype's controller polls every minute; five missed polls means
/// the sensor chain is gone, not slow).
pub const DEFAULT_STALENESS_LIMIT: SimDuration = SimDuration::from_minutes(5);

/// One injectable disturbance, matching a physical failure mode of the
/// prototype (§V) and a well-defined seam of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The bank's sensor front-end stops producing rows (broken DAQ
    /// channel): no new telemetry reaches the power table.
    SensorDropout {
        /// Affected battery bank.
        bank: usize,
    },
    /// The bank's sensor repeats its reading from fault onset, timestamp
    /// included (wedged acquisition buffer).
    SensorStuckAt {
        /// Affected battery bank.
        bank: usize,
    },
    /// Extra zero-mean Gaussian noise on the bank's electrical channels
    /// (ground loop / EMI on the BNC block).
    SensorNoise {
        /// Affected battery bank.
        bank: usize,
        /// Noise standard deviation, applied in volts to the voltage
        /// channel and in amperes to the current channel.
        sigma: f64,
    },
    /// Linear calibration drift on the bank's voltage channel.
    SensorDrift {
        /// Affected battery bank.
        bank: usize,
        /// Drift rate in volts per hour since fault onset.
        volts_per_hour: f64,
    },
    /// The PV feed drops out entirely (tripped combiner breaker).
    PvOutage,
    /// The inverter derates the PV feed to a fraction of its output
    /// (thermal derating / MPPT fault).
    InverterDerate {
        /// Fraction of PV output *lost* while the fault is active, in
        /// `(0, 1)`.
        fraction: f64,
    },
    /// The bank's charger fails outright: no charging in any stage.
    ChargerFailure {
        /// Affected battery bank.
        bank: usize,
    },
    /// The bank's charger is stuck in float: only the maintenance
    /// trickle flows regardless of SoC (mode-control thrash latched
    /// low).
    ChargerModeStuck {
        /// Affected battery bank.
        bank: usize,
    },
    /// The bank's battery string goes open-circuit (corroded terminal):
    /// no charge or discharge current flows.
    BatteryOpenCircuit {
        /// Affected battery bank.
        bank: usize,
    },
    /// The bank's thermal sensor freezes at its onset reading; the
    /// electrical channels stay live.
    ThermalSensorLoss {
        /// Affected battery bank.
        bank: usize,
    },
    /// The host crashes and stays down while the fault is active; the
    /// engine's normal restart path revives it afterwards.
    HostFailure {
        /// Affected server node.
        node: usize,
    },
    /// The migration control path is broken cluster-wide: every
    /// requested migration is rejected while the fault is active.
    MigrationsBlocked,
}

impl FaultKind {
    /// Stable snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SensorDropout { .. } => "sensor_dropout",
            FaultKind::SensorStuckAt { .. } => "sensor_stuck_at",
            FaultKind::SensorNoise { .. } => "sensor_noise",
            FaultKind::SensorDrift { .. } => "sensor_drift",
            FaultKind::PvOutage => "pv_outage",
            FaultKind::InverterDerate { .. } => "inverter_derate",
            FaultKind::ChargerFailure { .. } => "charger_failure",
            FaultKind::ChargerModeStuck { .. } => "charger_mode_stuck",
            FaultKind::BatteryOpenCircuit { .. } => "battery_open_circuit",
            FaultKind::ThermalSensorLoss { .. } => "thermal_sensor_loss",
            FaultKind::HostFailure { .. } => "host_failure",
            FaultKind::MigrationsBlocked => "migrations_blocked",
        }
    }

    /// The bank or node index the fault targets, if it targets one.
    pub fn target(self) -> Option<usize> {
        match self {
            FaultKind::SensorDropout { bank }
            | FaultKind::SensorStuckAt { bank }
            | FaultKind::SensorNoise { bank, .. }
            | FaultKind::SensorDrift { bank, .. }
            | FaultKind::ChargerFailure { bank }
            | FaultKind::ChargerModeStuck { bank }
            | FaultKind::BatteryOpenCircuit { bank }
            | FaultKind::ThermalSensorLoss { bank } => Some(bank),
            FaultKind::HostFailure { node } => Some(node),
            FaultKind::PvOutage
            | FaultKind::InverterDerate { .. }
            | FaultKind::MigrationsBlocked => None,
        }
    }

    /// The fault's scalar parameter (noise sigma, drift rate, derate
    /// fraction), if it has one.
    pub fn param(self) -> Option<f64> {
        match self {
            FaultKind::SensorNoise { sigma, .. } => Some(sigma),
            FaultKind::SensorDrift { volts_per_hour, .. } => Some(volts_per_hour),
            FaultKind::InverterDerate { fraction } => Some(fraction),
            _ => None,
        }
    }
}

/// One fault scheduled over a time window `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What is injected.
    pub kind: FaultKind,
    /// When the fault begins.
    pub start: SimInstant,
    /// How long it lasts.
    pub duration: SimDuration,
}

impl FaultSpec {
    /// The instant the fault clears.
    pub fn end(&self) -> SimInstant {
        self.start + self.duration
    }

    /// `true` while the fault is in force at `now` (half-open window).
    pub fn active_at(&self, now: SimInstant) -> bool {
        now >= self.start && now < self.end()
    }
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A fault targets a bank or node outside the topology.
    TargetOutOfRange {
        /// "bank" or "node".
        what: &'static str,
        /// The out-of-range index.
        index: usize,
        /// Number of valid targets.
        len: usize,
    },
    /// A fault's scalar parameter is outside its valid domain.
    BadParam {
        /// The offending fault kind name.
        kind: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// A fault window has zero duration.
    EmptyWindow {
        /// The offending fault kind name.
        kind: &'static str,
    },
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultError::TargetOutOfRange { what, index, len } => {
                write!(f, "fault targets {what} {index}, but only {len} exist")
            }
            FaultError::BadParam { kind, reason } => {
                write!(f, "fault `{kind}` has an invalid parameter: {reason}")
            }
            FaultError::EmptyWindow { kind } => {
                write!(f, "fault `{kind}` has a zero-length window")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A replayable schedule of faults plus the staleness contract the
/// engine degrades under.
///
/// The default plan is empty and injects nothing; an engine configured
/// with it behaves bit-identically to one without fault support.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
    staleness_limit: SimDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            faults: Vec::new(),
            staleness_limit: DEFAULT_STALENESS_LIMIT,
        }
    }
}

impl FaultPlan {
    /// Creates an empty plan with the default staleness limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fault window.
    pub fn push(&mut self, spec: FaultSpec) -> &mut Self {
        self.faults.push(spec);
        self
    }

    /// The scheduled fault windows, in insertion order.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The telemetry staleness bound past which a node degrades.
    pub fn staleness_limit(&self) -> SimDuration {
        self.staleness_limit
    }

    /// Checks every scheduled fault against the topology (`nodes`
    /// servers, `banks` battery banks) and its parameter domain.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] found.
    pub fn validate(&self, nodes: usize, banks: usize) -> Result<(), FaultError> {
        if self.staleness_limit.is_zero() {
            return Err(FaultError::BadParam {
                kind: "staleness_limit",
                reason: "must be positive".to_owned(),
            });
        }
        for spec in &self.faults {
            let kind = spec.kind.name();
            if spec.duration.is_zero() {
                return Err(FaultError::EmptyWindow { kind });
            }
            match spec.kind {
                FaultKind::HostFailure { node } => {
                    if node >= nodes {
                        return Err(FaultError::TargetOutOfRange {
                            what: "node",
                            index: node,
                            len: nodes,
                        });
                    }
                }
                FaultKind::SensorNoise { bank, sigma } => {
                    check_bank(bank, banks)?;
                    if !(sigma.is_finite() && sigma > 0.0) {
                        return Err(FaultError::BadParam {
                            kind,
                            reason: format!("sigma must be positive and finite, got {sigma}"),
                        });
                    }
                }
                FaultKind::SensorDrift {
                    bank,
                    volts_per_hour,
                } => {
                    check_bank(bank, banks)?;
                    if !volts_per_hour.is_finite() {
                        return Err(FaultError::BadParam {
                            kind,
                            reason: format!("drift rate must be finite, got {volts_per_hour}"),
                        });
                    }
                }
                FaultKind::InverterDerate { fraction } => {
                    if !(fraction.is_finite() && fraction > 0.0 && fraction < 1.0) {
                        return Err(FaultError::BadParam {
                            kind,
                            reason: format!("derate fraction must be in (0, 1), got {fraction}"),
                        });
                    }
                }
                FaultKind::SensorDropout { bank }
                | FaultKind::SensorStuckAt { bank }
                | FaultKind::ChargerFailure { bank }
                | FaultKind::ChargerModeStuck { bank }
                | FaultKind::BatteryOpenCircuit { bank }
                | FaultKind::ThermalSensorLoss { bank } => check_bank(bank, banks)?,
                FaultKind::PvOutage | FaultKind::MigrationsBlocked => {}
            }
        }
        Ok(())
    }

    /// Generates a random but fully seed-determined plan: `mix.per_day`
    /// faults on each of `days` days, targets drawn over `nodes` servers
    /// and `banks` banks, windows inside the prototype's operating day.
    ///
    /// The same `(seed, days, nodes, banks, mix)` always yields the same
    /// plan — this is the replayable scenario matrix the bench sweeps
    /// run clean vs. faulted.
    pub fn generate(seed: u64, days: usize, nodes: usize, banks: usize, mix: &FaultMix) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, PLAN_STREAM));
        let mut plan = Self::new();
        let min_secs = SimDuration::from_minutes(5).as_secs();
        let max_secs = mix.max_duration.as_secs().max(min_secs + 1);
        for day in 0..days {
            for _ in 0..mix.per_day {
                // Draw in a fixed order so the plan is a pure function of
                // the seed: kind class, target, parameter, window.
                let kind = match rng.random_range(0..12u32) {
                    0 => FaultKind::SensorDropout {
                        bank: rng.random_range(0..banks),
                    },
                    1 => FaultKind::SensorStuckAt {
                        bank: rng.random_range(0..banks),
                    },
                    2 => FaultKind::SensorNoise {
                        bank: rng.random_range(0..banks),
                        sigma: rng.random_range(0.05..0.5),
                    },
                    3 => FaultKind::SensorDrift {
                        bank: rng.random_range(0..banks),
                        volts_per_hour: rng.random_range(0.01..0.2),
                    },
                    4 => FaultKind::PvOutage,
                    5 => FaultKind::InverterDerate {
                        fraction: rng.random_range(0.2..0.8),
                    },
                    6 => FaultKind::ChargerFailure {
                        bank: rng.random_range(0..banks),
                    },
                    7 => FaultKind::ChargerModeStuck {
                        bank: rng.random_range(0..banks),
                    },
                    8 => FaultKind::BatteryOpenCircuit {
                        bank: rng.random_range(0..banks),
                    },
                    9 => FaultKind::ThermalSensorLoss {
                        bank: rng.random_range(0..banks),
                    },
                    10 => FaultKind::HostFailure {
                        node: rng.random_range(0..nodes),
                    },
                    _ => FaultKind::MigrationsBlocked,
                };
                // Start inside 09:00–17:00 so every fault overlaps the
                // operating window where it can actually bite.
                let start_tod = rng.random_range(9 * 3600..17 * 3600u64);
                let duration = SimDuration::from_secs(rng.random_range(min_secs..=max_secs));
                plan.push(FaultSpec {
                    kind,
                    start: SimInstant::from_secs(day as u64 * 86_400 + start_tod),
                    duration,
                });
            }
        }
        plan
    }
}

fn check_bank(bank: usize, banks: usize) -> Result<(), FaultError> {
    if bank >= banks {
        return Err(FaultError::TargetOutOfRange {
            what: "bank",
            index: bank,
            len: banks,
        });
    }
    Ok(())
}

/// Intensity knobs for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Faults scheduled per simulated day.
    pub per_day: usize,
    /// Longest fault window drawn (windows are uniform between five
    /// minutes and this).
    pub max_duration: SimDuration,
}

impl FaultMix {
    /// A light disturbance day: two faults, up to half an hour each.
    pub fn light() -> Self {
        Self {
            per_day: 2,
            max_duration: SimDuration::from_minutes(30),
        }
    }

    /// A heavy disturbance day: six faults, up to two hours each.
    pub fn heavy() -> Self {
        Self {
            per_day: 6,
            max_duration: SimDuration::from_hours(2),
        }
    }

    /// Parses a mix name (`"light"` / `"heavy"`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "light" => Some(Self::light()),
            "heavy" => Some(Self::heavy()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default_and_valid() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.staleness_limit(), DEFAULT_STALENESS_LIMIT);
        assert_eq!(plan, FaultPlan::default());
        plan.validate(6, 6).unwrap();
    }

    #[test]
    fn window_arithmetic() {
        let spec = FaultSpec {
            kind: FaultKind::PvOutage,
            start: SimInstant::from_secs(100),
            duration: SimDuration::from_secs(50),
        };
        assert!(!spec.active_at(SimInstant::from_secs(99)));
        assert!(spec.active_at(SimInstant::from_secs(100)));
        assert!(spec.active_at(SimInstant::from_secs(149)));
        assert!(!spec.active_at(SimInstant::from_secs(150)));
    }

    #[test]
    fn validation_rejects_bad_targets_and_params() {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind: FaultKind::SensorDropout { bank: 9 },
            start: SimInstant::START,
            duration: SimDuration::from_secs(1),
        });
        assert!(matches!(
            plan.validate(6, 6),
            Err(FaultError::TargetOutOfRange { what: "bank", .. })
        ));

        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind: FaultKind::HostFailure { node: 6 },
            start: SimInstant::START,
            duration: SimDuration::from_secs(1),
        });
        assert!(matches!(
            plan.validate(6, 6),
            Err(FaultError::TargetOutOfRange { what: "node", .. })
        ));

        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind: FaultKind::InverterDerate { fraction: 1.5 },
            start: SimInstant::START,
            duration: SimDuration::from_secs(1),
        });
        assert!(matches!(
            plan.validate(6, 6),
            Err(FaultError::BadParam { .. })
        ));

        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind: FaultKind::PvOutage,
            start: SimInstant::START,
            duration: SimDuration::ZERO,
        });
        assert!(matches!(
            plan.validate(6, 6),
            Err(FaultError::EmptyWindow { .. })
        ));
    }

    #[test]
    fn generated_plans_are_seed_deterministic_and_valid() {
        let a = FaultPlan::generate(7, 3, 6, 6, &FaultMix::heavy());
        let b = FaultPlan::generate(7, 3, 6, 6, &FaultMix::heavy());
        assert_eq!(a, b);
        assert_eq!(a.len(), 18);
        a.validate(6, 6).unwrap();
        let c = FaultPlan::generate(8, 3, 6, 6, &FaultMix::heavy());
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn kind_names_targets_and_params_are_stable() {
        let k = FaultKind::SensorNoise {
            bank: 2,
            sigma: 0.1,
        };
        assert_eq!(k.name(), "sensor_noise");
        assert_eq!(k.target(), Some(2));
        assert_eq!(k.param(), Some(0.1));
        assert_eq!(FaultKind::PvOutage.target(), None);
        assert_eq!(FaultKind::MigrationsBlocked.param(), None);
        assert_eq!(FaultKind::HostFailure { node: 4 }.target(), Some(4));
    }
}
