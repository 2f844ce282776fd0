//! The engine-facing fault injector: window activation tracking and
//! per-seam effect queries.

use baat_battery::SensorSample;
use baat_rng::{derive_seed, StdRng};
use baat_units::{Amperes, SimInstant, Volts};

use crate::plan::{FaultKind, FaultPlan, FaultSpec};

/// Stream label for injection-time noise (see `baat_rng::derive_seed`).
const NOISE_STREAM: u64 = 0xFA02;

/// One fault entering or leaving force at a step boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTransition {
    /// Index of the fault in the plan.
    pub index: usize,
    /// The fault that changed state.
    pub kind: FaultKind,
    /// `true` when the fault was injected, `false` when it cleared.
    pub entered: bool,
}

/// The sensor/charger/battery perturbations in force on one bank.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BankFaults {
    /// No new telemetry rows flow.
    pub sensor_dropout: bool,
    /// Telemetry repeats the onset reading.
    pub sensor_stuck: bool,
    /// The charger delivers no power.
    pub charger_failed: bool,
    /// The charger is latched in float trickle.
    pub charger_stuck: bool,
    /// The battery string is open-circuit: no charge or discharge.
    pub open_circuit: bool,
}

/// Checkpointable dynamic state of a [`FaultInjector`]: activation
/// flags, stuck-at/thermal holds and the noise-stream position.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectorState {
    /// Per-fault activation flags, in plan order.
    pub active: Vec<bool>,
    /// Per-bank sample held by an active stuck-at fault.
    pub held: Vec<Option<SensorSample>>,
    /// Per-bank temperature held by an active thermal-loss fault.
    pub held_temp: Vec<Option<baat_units::Celsius>>,
    /// Noise-stream position.
    pub rng_state: [u64; 4],
}

/// Tracks which faults of a [`FaultPlan`] are in force and applies their
/// effects at the engine's seams.
///
/// The injector is fully deterministic: activation is a function of
/// simulated time, and its private RNG (Gaussian sensor noise) advances
/// only while a noise fault is active. An injector over an empty plan
/// does nothing and draws nothing.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    active: Vec<bool>,
    /// Per-bank sample held by an active stuck-at fault.
    held: Vec<Option<SensorSample>>,
    /// Per-bank temperature held by an active thermal-loss fault.
    held_temp: Vec<Option<baat_units::Celsius>>,
    rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector for `plan` over `banks` battery banks, with
    /// its noise stream derived from the simulation seed.
    pub fn new(plan: &FaultPlan, banks: usize, seed: u64) -> Self {
        Self {
            specs: plan.faults().to_vec(),
            active: vec![false; plan.len()],
            held: vec![None; banks],
            held_temp: vec![None; banks],
            rng: StdRng::seed_from_u64(derive_seed(seed, NOISE_STREAM)),
        }
    }

    /// `true` if the plan schedules nothing — the engine can skip every
    /// fault hook.
    pub fn is_idle(&self) -> bool {
        self.specs.is_empty()
    }

    /// Captures the injector's dynamic state for checkpointing: which
    /// faults are in force, the per-bank held samples/temperatures, and
    /// the noise-stream position. The specs themselves are reproduced
    /// from the fault plan at restore time.
    pub fn capture_state(&self) -> InjectorState {
        InjectorState {
            active: self.active.clone(),
            held: self.held.clone(),
            held_temp: self.held_temp.clone(),
            rng_state: self.rng.state(),
        }
    }

    /// Re-applies a captured dynamic state onto this injector. The
    /// injector must have been built over the same plan and bank count
    /// as the captured one: a state whose lengths do not fit is refused
    /// with `false`, leaving the injector untouched.
    #[must_use]
    pub fn restore_state(&mut self, state: &InjectorState) -> bool {
        let fits = state.active.len() == self.active.len()
            && state.held.len() == self.held.len()
            && state.held_temp.len() == self.held_temp.len();
        if fits {
            self.active.clone_from(&state.active);
            self.held.clone_from(&state.held);
            self.held_temp.clone_from(&state.held_temp);
            self.rng = StdRng::from_state(state.rng_state);
        }
        fits
    }

    /// Number of faults currently in force.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Advances the injector to `now` and returns the faults that
    /// entered or left force, in plan order.
    pub fn begin_step(&mut self, now: SimInstant) -> Vec<FaultTransition> {
        let mut transitions = Vec::new();
        for i in 0..self.specs.len() {
            let now_active = self.specs[i].active_at(now);
            if now_active == self.active[i] {
                continue;
            }
            self.active[i] = now_active;
            transitions.push(FaultTransition {
                index: i,
                kind: self.specs[i].kind,
                entered: now_active,
            });
            if !now_active {
                // Release holds when the last holding fault on the bank
                // clears, so recovery resumes live readings.
                match self.specs[i].kind {
                    FaultKind::SensorStuckAt { bank }
                        if !self.any_active(
                            |k| matches!(k, FaultKind::SensorStuckAt { bank: b } if b == bank),
                        ) =>
                    {
                        self.held[bank] = None;
                    }
                    FaultKind::ThermalSensorLoss { bank }
                        if !self.any_active(
                            |k| matches!(k, FaultKind::ThermalSensorLoss { bank: b } if b == bank),
                        ) =>
                    {
                        self.held_temp[bank] = None;
                    }
                    _ => {}
                }
            }
        }
        transitions
    }

    fn any_active(&self, pred: impl Fn(FaultKind) -> bool) -> bool {
        self.specs
            .iter()
            .zip(&self.active)
            .any(|(s, &a)| a && pred(s.kind))
    }

    /// The factor the PV feed is scaled by right now: `0` during an
    /// outage, the product of active derates otherwise, `1` when clean.
    pub fn solar_scale(&self) -> f64 {
        let mut scale = 1.0;
        for (spec, &active) in self.specs.iter().zip(&self.active) {
            if !active {
                continue;
            }
            match spec.kind {
                FaultKind::PvOutage => return 0.0,
                FaultKind::InverterDerate { fraction } => scale *= 1.0 - fraction,
                _ => {}
            }
        }
        scale
    }

    /// The charger/battery perturbations in force on `bank`.
    pub fn bank(&self, bank: usize) -> BankFaults {
        let mut f = BankFaults::default();
        for (spec, &active) in self.specs.iter().zip(&self.active) {
            if !active {
                continue;
            }
            match spec.kind {
                FaultKind::SensorDropout { bank: b } if b == bank => f.sensor_dropout = true,
                FaultKind::SensorStuckAt { bank: b } if b == bank => f.sensor_stuck = true,
                FaultKind::ChargerFailure { bank: b } if b == bank => f.charger_failed = true,
                FaultKind::ChargerModeStuck { bank: b } if b == bank => f.charger_stuck = true,
                FaultKind::BatteryOpenCircuit { bank: b } if b == bank => f.open_circuit = true,
                _ => {}
            }
        }
        f
    }

    /// `true` while a host-failure fault pins `node` down.
    pub fn host_down(&self, node: usize) -> bool {
        self.any_active(|k| matches!(k, FaultKind::HostFailure { node: n } if n == node))
    }

    /// `true` while a migrations-blocked fault is in force.
    pub fn migrations_blocked(&self) -> bool {
        self.any_active(|k| matches!(k, FaultKind::MigrationsBlocked))
    }

    /// Passes a freshly sensed sample through the bank's active sensor
    /// faults: `None` under dropout, the held onset reading under
    /// stuck-at, otherwise the sample with drift, noise, and thermal
    /// freeze applied in that fixed order.
    pub fn observe_sample(
        &mut self,
        bank: usize,
        fresh: SensorSample,
        now: SimInstant,
    ) -> Option<SensorSample> {
        let faults = self.bank(bank);
        if faults.sensor_dropout {
            return None;
        }
        if faults.sensor_stuck {
            return Some(*self.held[bank].get_or_insert(fresh));
        }
        let mut sample = fresh;
        let mut freeze_temp = false;
        for i in 0..self.specs.len() {
            if !self.active[i] {
                continue;
            }
            match self.specs[i].kind {
                FaultKind::SensorDrift {
                    bank: b,
                    volts_per_hour,
                } if b == bank => {
                    let hours = now.saturating_since(self.specs[i].start).as_hours();
                    sample.voltage = Volts::new(sample.voltage.as_f64() + volts_per_hour * hours);
                }
                FaultKind::SensorNoise { bank: b, sigma } if b == bank => {
                    sample.voltage = Volts::new(sample.voltage.as_f64() + sigma * self.gaussian());
                    sample.current =
                        Amperes::new(sample.current.as_f64() + sigma * self.gaussian());
                }
                FaultKind::ThermalSensorLoss { bank: b } if b == bank => freeze_temp = true,
                _ => {}
            }
        }
        if freeze_temp {
            sample.temperature = *self.held_temp[bank].get_or_insert(fresh.temperature);
        }
        Some(sample)
    }

    /// Standard normal draw via Box–Muller (two uniforms per draw, no
    /// caching, so the stream position is a pure function of the number
    /// of draws).
    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.next_f64().max(f64::MIN_POSITIVE);
        let u2: f64 = self.rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_units::{Celsius, SimDuration, Soc};

    fn sample(at: u64, volts: f64) -> SensorSample {
        SensorSample {
            at: SimInstant::from_secs(at),
            voltage: Volts::new(volts),
            current: Amperes::new(2.0),
            temperature: Celsius::new(25.0),
            soc: Soc::new(0.8).unwrap(),
        }
    }

    fn plan_of(kind: FaultKind, start: u64, secs: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec {
            kind,
            start: SimInstant::from_secs(start),
            duration: SimDuration::from_secs(secs),
        });
        plan
    }

    #[test]
    fn transitions_fire_on_entry_and_exit() {
        let plan = plan_of(FaultKind::PvOutage, 100, 50);
        let mut inj = FaultInjector::new(&plan, 1, 1);
        assert!(inj.begin_step(SimInstant::from_secs(0)).is_empty());
        let enter = inj.begin_step(SimInstant::from_secs(100));
        assert_eq!(enter.len(), 1);
        assert!(enter[0].entered);
        assert_eq!(inj.active_count(), 1);
        assert!(inj.begin_step(SimInstant::from_secs(120)).is_empty());
        let exit = inj.begin_step(SimInstant::from_secs(150));
        assert_eq!(exit.len(), 1);
        assert!(!exit[0].entered);
        assert_eq!(inj.active_count(), 0);
    }

    #[test]
    fn dropout_swallows_and_stuck_holds() {
        let mut plan = plan_of(FaultKind::SensorDropout { bank: 0 }, 0, 10);
        plan.push(FaultSpec {
            kind: FaultKind::SensorStuckAt { bank: 0 },
            start: SimInstant::from_secs(20),
            duration: SimDuration::from_secs(10),
        });
        let mut inj = FaultInjector::new(&plan, 1, 1);
        inj.begin_step(SimInstant::from_secs(0));
        assert_eq!(
            inj.observe_sample(0, sample(0, 12.0), SimInstant::from_secs(0)),
            None
        );
        inj.begin_step(SimInstant::from_secs(20));
        let first = inj
            .observe_sample(0, sample(20, 12.0), SimInstant::from_secs(20))
            .unwrap();
        let later = inj
            .observe_sample(0, sample(25, 11.0), SimInstant::from_secs(25))
            .unwrap();
        assert_eq!(first, later, "stuck sensor repeats the onset reading");
        assert_eq!(later.at, SimInstant::from_secs(20));
        // After the fault clears, live readings resume.
        inj.begin_step(SimInstant::from_secs(30));
        let live = inj
            .observe_sample(0, sample(30, 11.5), SimInstant::from_secs(30))
            .unwrap();
        assert_eq!(live.voltage, Volts::new(11.5));
    }

    #[test]
    fn drift_grows_with_elapsed_time() {
        let plan = plan_of(
            FaultKind::SensorDrift {
                bank: 0,
                volts_per_hour: 0.1,
            },
            0,
            7200,
        );
        let mut inj = FaultInjector::new(&plan, 1, 1);
        inj.begin_step(SimInstant::from_secs(3600));
        let s = inj
            .observe_sample(0, sample(3600, 12.0), SimInstant::from_secs(3600))
            .unwrap();
        assert!((s.voltage.as_f64() - 12.1).abs() < 1e-9);
    }

    #[test]
    fn noise_is_seed_deterministic_and_zero_when_clean() {
        let plan = plan_of(
            FaultKind::SensorNoise {
                bank: 0,
                sigma: 0.2,
            },
            0,
            100,
        );
        let mut a = FaultInjector::new(&plan, 1, 7);
        let mut b = FaultInjector::new(&plan, 1, 7);
        a.begin_step(SimInstant::START);
        b.begin_step(SimInstant::START);
        for t in 0..10 {
            let sa = a.observe_sample(0, sample(t, 12.0), SimInstant::from_secs(t));
            let sb = b.observe_sample(0, sample(t, 12.0), SimInstant::from_secs(t));
            assert_eq!(sa, sb);
        }
        // Other banks are untouched.
        let clean = a.observe_sample(0, sample(200, 12.0), SimInstant::from_secs(200));
        a.begin_step(SimInstant::from_secs(200));
        let after = a
            .observe_sample(0, sample(200, 12.0), SimInstant::from_secs(200))
            .unwrap();
        assert_ne!(clean.unwrap(), after, "noise was active before clearing");
        assert_eq!(after.voltage, Volts::new(12.0));
    }

    #[test]
    fn thermal_loss_freezes_only_temperature() {
        let plan = plan_of(FaultKind::ThermalSensorLoss { bank: 0 }, 0, 100);
        let mut inj = FaultInjector::new(&plan, 1, 1);
        inj.begin_step(SimInstant::START);
        let first = inj
            .observe_sample(0, sample(0, 12.0), SimInstant::START)
            .unwrap();
        let mut warmer = sample(50, 11.5);
        warmer.temperature = Celsius::new(40.0);
        let later = inj
            .observe_sample(0, warmer, SimInstant::from_secs(50))
            .unwrap();
        assert_eq!(later.temperature, first.temperature);
        assert_eq!(later.voltage, Volts::new(11.5), "electrical channels live");
    }

    #[test]
    fn solar_faults_scale_the_feed() {
        let mut plan = plan_of(FaultKind::InverterDerate { fraction: 0.5 }, 0, 100);
        plan.push(FaultSpec {
            kind: FaultKind::PvOutage,
            start: SimInstant::from_secs(50),
            duration: SimDuration::from_secs(10),
        });
        let mut inj = FaultInjector::new(&plan, 1, 1);
        assert_eq!(inj.solar_scale(), 1.0);
        inj.begin_step(SimInstant::START);
        assert!((inj.solar_scale() - 0.5).abs() < 1e-12);
        inj.begin_step(SimInstant::from_secs(50));
        assert_eq!(inj.solar_scale(), 0.0, "outage dominates");
    }

    #[test]
    fn bank_host_and_migration_queries() {
        let mut plan = plan_of(FaultKind::ChargerFailure { bank: 1 }, 0, 100);
        plan.push(FaultSpec {
            kind: FaultKind::HostFailure { node: 3 },
            start: SimInstant::START,
            duration: SimDuration::from_secs(100),
        });
        plan.push(FaultSpec {
            kind: FaultKind::MigrationsBlocked,
            start: SimInstant::START,
            duration: SimDuration::from_secs(100),
        });
        let mut inj = FaultInjector::new(&plan, 2, 1);
        inj.begin_step(SimInstant::START);
        assert!(inj.bank(1).charger_failed);
        assert!(!inj.bank(0).charger_failed);
        assert!(inj.host_down(3));
        assert!(!inj.host_down(0));
        assert!(inj.migrations_blocked());
        inj.begin_step(SimInstant::from_secs(100));
        assert!(!inj.migrations_blocked());
        assert!(!inj.is_idle());
    }

    #[test]
    fn empty_plan_is_idle_and_inert() {
        let plan = FaultPlan::new();
        let mut inj = FaultInjector::new(&plan, 3, 9);
        assert!(inj.is_idle());
        assert!(inj.begin_step(SimInstant::from_secs(1_000)).is_empty());
        assert_eq!(inj.solar_scale(), 1.0);
        assert_eq!(inj.bank(0), BankFaults::default());
        let s = sample(5, 12.0);
        assert_eq!(
            inj.observe_sample(0, s, SimInstant::from_secs(5)),
            Some(s),
            "clean path must be the identity"
        );
    }
}
