//! Byte pins for the snapshot encoder over every variant it can write.
//!
//! A running simulation reaches only some enum variants in a short run
//! (no rejected migration, no stuck charger), so a round-trip test over
//! real runs can miss a tag that moved. These states are built by
//! editing decoded snapshots until, together, they hold every variant of
//! every enum the format carries, both chemistries' aging breakdowns, a
//! shared battery pool, in-flight migrations, a pending queue and a
//! policy state both present and absent. The FNV-1a hash of each state's
//! `to_bytes()` is pinned, so any change to a tag table, a field order or
//! a width moves a pin.

use baat_battery::Chemistry;
use baat_power::ChargeStage;
use baat_server::{DvfsLevel, InFlightState, ServerId};
use baat_sim::{
    fnv1a, Action, ActionOutcome, ActionResult, BatteryTopology, ChemistrySpec, Event, FaultKind,
    FaultMix, FaultPlan, PolicyState, RejectReason, RoundRobinPolicy, SimConfig, SimSnapshot,
    SimState, Simulation, TimedEvent,
};
use baat_solar::Weather;
use baat_units::{Celsius, SimDuration, SimInstant, Soc, TimeOfDay};
use baat_workload::{Arrival, VmId, VmSnapshot, VmState, WorkloadKind};

/// A faulted coarse-step day under `chemistry` on `topology`, paused at
/// step 120 of 288 and decoded from its bytes.
fn paused(chemistry: Chemistry, topology: BatteryTopology) -> SimSnapshot {
    let nodes = 4;
    let mut b = SimConfig::builder();
    b.weather_plan(vec![Weather::Cloudy])
        .nodes(nodes)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(4242)
        .chemistry(ChemistrySpec::new(chemistry))
        .topology(topology)
        .faults(FaultPlan::generate(
            4242,
            1,
            nodes,
            topology.banks(nodes),
            &FaultMix::heavy(),
        ));
    let mut sim = Simulation::new(b.build().expect("config is valid")).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, 120).expect("prefix runs");
    let bytes = sim.snapshot_with_policy(&policy).to_bytes();
    SimSnapshot::from_bytes(&bytes).expect("decodes")
}

const VM_STATES: [VmState; 4] = [
    VmState::Running,
    VmState::Paused,
    VmState::Migrating,
    VmState::Completed,
];

const STAGES: [ChargeStage; 3] = [
    ChargeStage::Bulk,
    ChargeStage::Absorption,
    ChargeStage::Float,
];

const REJECTS: [RejectReason; 6] = [
    RejectReason::UnknownNode,
    RejectReason::UnknownVm,
    RejectReason::AlreadyMigrating,
    RejectReason::TargetIsSource,
    RejectReason::TargetFull,
    RejectReason::FaultInjected,
];

/// Fails to compile when a variant is added to an enum whose variants
/// the lists here spell out, so that the lists stay complete.
#[allow(dead_code)]
fn lists_are_exhaustive(
    v: VmState,
    s: ChargeStage,
    r: RejectReason,
    a: Action,
    f: FaultKind,
    e: Event,
) {
    match v {
        VmState::Running | VmState::Paused | VmState::Migrating | VmState::Completed => {}
    }
    match s {
        ChargeStage::Bulk | ChargeStage::Absorption | ChargeStage::Float => {}
    }
    match r {
        RejectReason::UnknownNode
        | RejectReason::UnknownVm
        | RejectReason::AlreadyMigrating
        | RejectReason::TargetIsSource
        | RejectReason::TargetFull
        | RejectReason::FaultInjected => {}
    }
    match a {
        Action::SetDvfs { .. } | Action::Migrate { .. } | Action::SetSocFloor { .. } => {}
    }
    match f {
        FaultKind::SensorDropout { .. }
        | FaultKind::SensorStuckAt { .. }
        | FaultKind::SensorNoise { .. }
        | FaultKind::SensorDrift { .. }
        | FaultKind::PvOutage
        | FaultKind::InverterDerate { .. }
        | FaultKind::ChargerFailure { .. }
        | FaultKind::ChargerModeStuck { .. }
        | FaultKind::BatteryOpenCircuit { .. }
        | FaultKind::ThermalSensorLoss { .. }
        | FaultKind::HostFailure { .. }
        | FaultKind::MigrationsBlocked => {}
    }
    match e {
        Event::ServerShutdown { .. }
        | Event::ServerRestart { .. }
        | Event::DvfsChanged { .. }
        | Event::MigrationStarted { .. }
        | Event::Action { .. }
        | Event::BatteryCutoff { .. }
        | Event::SocFloorChanged { .. }
        | Event::PlacementFailed { .. }
        | Event::FaultInjected { .. }
        | Event::FaultCleared { .. }
        | Event::DegradedMode { .. } => {}
    }
}

fn actions() -> Vec<Action> {
    let mut out: Vec<Action> = DvfsLevel::ALL
        .iter()
        .enumerate()
        .map(|(node, &level)| Action::SetDvfs { node, level })
        .collect();
    out.push(Action::Migrate {
        vm: VmId(7),
        target: 2,
    });
    out.push(Action::SetSocFloor {
        node: 3,
        floor: Soc::saturating(0.35),
    });
    out
}

fn outcomes() -> Vec<ActionOutcome> {
    let results = std::iter::once(ActionResult::Applied).chain(REJECTS.map(ActionResult::Rejected));
    results
        .zip(actions().into_iter().cycle())
        .map(|(result, action)| ActionOutcome { action, result })
        .collect()
}

fn faults() -> Vec<FaultKind> {
    vec![
        FaultKind::SensorDropout { bank: 1 },
        FaultKind::SensorStuckAt { bank: 2 },
        FaultKind::SensorNoise {
            bank: 0,
            sigma: 0.4,
        },
        FaultKind::SensorDrift {
            bank: 3,
            volts_per_hour: -0.01,
        },
        FaultKind::PvOutage,
        FaultKind::InverterDerate { fraction: 0.5 },
        FaultKind::ChargerFailure { bank: 1 },
        FaultKind::ChargerModeStuck { bank: 0 },
        FaultKind::BatteryOpenCircuit { bank: 2 },
        FaultKind::ThermalSensorLoss { bank: 1 },
        FaultKind::HostFailure { node: 3 },
        FaultKind::MigrationsBlocked,
    ]
}

fn events() -> Vec<Event> {
    let mut all = vec![
        Event::ServerShutdown { node: 1 },
        Event::ServerRestart { node: 1 },
        Event::MigrationStarted {
            vm: VmId(9),
            from: 0,
            to: 3,
        },
        Event::BatteryCutoff { node: 2 },
        Event::SocFloorChanged {
            node: 0,
            floor: Soc::saturating(0.3),
        },
        Event::PlacementFailed { node: 4 },
        Event::DegradedMode {
            node: 2,
            active: true,
        },
        Event::DegradedMode {
            node: 2,
            active: false,
        },
    ];
    all.extend(
        DvfsLevel::ALL
            .iter()
            .map(|&level| Event::DvfsChanged { node: 1, level }),
    );
    all.extend(
        outcomes()
            .into_iter()
            .map(|outcome| Event::Action { outcome }),
    );
    all.extend(
        faults()
            .into_iter()
            .map(|fault| Event::FaultInjected { fault }),
    );
    all.extend(
        faults()
            .into_iter()
            .map(|fault| Event::FaultCleared { fault }),
    );
    all
}

/// One VM of every workload kind in every state.
fn vms() -> Vec<VmSnapshot> {
    let mut out = Vec::new();
    for (k, &kind) in WorkloadKind::ALL.iter().enumerate() {
        for (s, &state) in VM_STATES.iter().enumerate() {
            let id = 1_000 + (k * VM_STATES.len() + s) as u64;
            out.push(VmSnapshot {
                id: VmId(id),
                kind,
                state,
                progress: 0.125 * s as f64,
                work_done: 3.5 * k as f64,
                migrations: s as u32,
            });
        }
    }
    out
}

/// Writes every variant the format carries into `s`, beside what the
/// run left there.
fn every_variant(s: &mut SimState) {
    let at = s.now;
    s.started_day = None;
    s.events
        .extend(events().into_iter().map(|event| TimedEvent { at, event }));
    s.last_outcomes = outcomes();
    s.fallback_rejected = actions();
    s.pending = vms();
    s.arrivals_today = WorkloadKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| Arrival {
            at: TimeOfDay::from_secs(40_000 + 60 * i as u32),
            kind,
        })
        .collect();
    for (i, stage) in s.stage_last.iter_mut().enumerate() {
        *stage = STAGES.get(i).copied();
    }
    s.offline_since[1] = Some(SimInstant::from_secs(1_234));
    s.degraded[0] = true;
    for (host, &level) in s
        .cluster
        .hosts
        .iter_mut()
        .zip(DvfsLevel::ALL.iter().cycle())
    {
        host.dvfs = level;
    }
    s.cluster.hosts[2].online = false;
    s.cluster.hosts[3].vms.extend(vms().into_iter().take(2));
    s.cluster.in_flight = vms()
        .into_iter()
        .skip(2)
        .take(3)
        .enumerate()
        .map(|(i, vm)| InFlightState {
            vm,
            to: ServerId(i),
            completes_at: SimInstant::from_secs(at.as_secs() + 600),
        })
        .collect();
    s.injector.held[0] = None;
    s.injector.held[1] = s.batteries[0].telemetry.latest;
    assert!(s.injector.held[1].is_some());
    s.injector.held_temp[0] = None;
    s.injector.held_temp[1] = Some(Celsius::new(31.5));
    s.policy = Some(PolicyState {
        name: "BAAT-h".to_owned(),
        data: vec![4, 0x8000_0000_0000_0001, 17],
    });
}

/// FNV-1a of `snapshot`'s bytes, after checking that they decode and
/// re-encode to themselves.
fn pinned_hash(snapshot: &SimSnapshot) -> u64 {
    let bytes = snapshot.to_bytes();
    let decoded = SimSnapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(decoded.to_bytes(), bytes, "re-encodes to the same bytes");
    fnv1a(&bytes)
}

#[test]
fn lead_acid_state_with_every_variant_is_byte_stable() {
    let mut snapshot = paused(Chemistry::LeadAcid, BatteryTopology::PerServer);
    assert!(snapshot.state.batteries.iter().all(|b| !b.aging.is_empty()));
    every_variant(&mut snapshot.state);
    assert_eq!(pinned_hash(&snapshot), 0x965b_6de7_c10d_9ee6);
}

#[test]
fn li_ion_shared_pool_state_with_every_variant_is_byte_stable() {
    let mut snapshot = paused(Chemistry::LiIon, BatteryTopology::SharedPool { pools: 2 });
    assert_eq!(snapshot.state.batteries.len(), 2);
    assert!(snapshot.state.batteries.iter().all(|b| !b.aging.is_empty()));
    every_variant(&mut snapshot.state);
    assert_eq!(pinned_hash(&snapshot), 0x698f_ac27_c9ae_ed16);
}

/// Every weather, and a state without policy state and with a started
/// day, each hashed in turn.
#[test]
fn every_weather_and_an_absent_policy_are_byte_stable() {
    let mut snapshot = paused(Chemistry::LeadAcid, BatteryTopology::PerServer);
    snapshot.state.policy = None;
    snapshot.state.started_day = Some(3);
    let hashes: Vec<u8> = Weather::ALL
        .iter()
        .flat_map(|&weather| {
            snapshot.state.weather_today = weather;
            pinned_hash(&snapshot).to_le_bytes()
        })
        .collect();
    assert_eq!(fnv1a(&hashes), 0x554d_d89c_97de_881f);
}
