//! Engine behaviour tests driven by scripted policies: verify that the
//! engine actually enforces the actions policies request.

use baat_server::DvfsLevel;
use baat_sim::{Action, ControlCtx, Policy, RejectReason, SimConfig, Simulation, SystemView};
use baat_solar::Weather;
use baat_units::{SimDuration, Soc};
use baat_workload::WorkloadKind;

fn config(weather: Weather, seed: u64) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .dt(SimDuration::from_secs(60))
        .sample_every(10)
        .seed(seed);
    b.build().expect("config is valid")
}

/// A policy that pins every battery's SoC floor and throttles one node.
struct Scripted {
    floor: Soc,
    issued: bool,
}

impl Policy for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn control(&mut self, view: &SystemView, _ctx: &ControlCtx<'_>) -> Vec<Action> {
        if self.issued {
            return Vec::new();
        }
        self.issued = true;
        let mut actions: Vec<Action> = view
            .nodes
            .iter()
            .map(|n| Action::SetSocFloor {
                node: n.node,
                floor: self.floor,
            })
            .collect();
        actions.push(Action::SetDvfs {
            node: 0,
            level: DvfsLevel::P3,
        });
        // An out-of-range action must be rejected, not crash.
        actions.push(Action::SetDvfs {
            node: 999,
            level: DvfsLevel::P1,
        });
        actions
    }

    fn placement_order(&mut self, _kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        (0..view.nodes.len()).collect()
    }
}

#[test]
fn soc_floors_are_enforced_by_the_engine() {
    // A 55 % floor on a rainy day: batteries must never be discharged
    // below it (self-discharge aside).
    let mut policy = Scripted {
        floor: Soc::saturating(0.55),
        issued: false,
    };
    let report = Simulation::new(config(Weather::Rainy, 5))
        .expect("config valid")
        .run(&mut policy)
        .expect("run succeeds");
    for row in report.recorder.rows() {
        for &soc in &row.soc {
            assert!(soc >= 0.53, "floor violated: soc {soc} at {}", row.at);
        }
    }
    // The floor starves the servers instead: demand goes unserved.
    assert!(
        report.unserved_energy.as_f64() > 0.0,
        "a high floor on a rainy day must shed load"
    );
}

#[test]
fn rejected_actions_are_logged_not_fatal() {
    use baat_sim::Event;
    let mut policy = Scripted {
        floor: Soc::saturating(0.2),
        issued: false,
    };
    let report = Simulation::new(config(Weather::Sunny, 6))
        .expect("config valid")
        .run(&mut policy)
        .expect("run succeeds");
    let rejected: Vec<RejectReason> = report
        .events
        .iter()
        .filter_map(|e| match &e.event {
            Event::Action { outcome } => outcome.reject_reason(),
            _ => None,
        })
        .collect();
    assert!(
        rejected.contains(&RejectReason::UnknownNode),
        "the node-999 DVFS request must be rejected as unknown-node, got {rejected:?}"
    );
    assert!(
        report
            .events
            .count(|e| matches!(e, Event::SocFloorChanged { .. }))
            >= 6,
        "floor changes must be logged per node"
    );
    assert!(
        report
            .events
            .count(|e| matches!(e, Event::DvfsChanged { node: 0, .. }))
            >= 1
    );
}

/// A policy that migrates the first VM it sees, once.
struct MigrateOnce {
    done: bool,
}

impl Policy for MigrateOnce {
    fn name(&self) -> &'static str {
        "migrate-once"
    }

    fn control(&mut self, view: &SystemView, _ctx: &ControlCtx<'_>) -> Vec<Action> {
        if self.done {
            return Vec::new();
        }
        for node in &view.nodes {
            for vm in &node.vms {
                let request = vm.kind.resource_request();
                let target = view.nodes.iter().find(|t| {
                    t.node != node.node
                        && t.online
                        && t.free_resources.0 >= request.0
                        && t.free_resources.1 >= request.1
                });
                if let Some(target) = target {
                    self.done = true;
                    return vec![Action::Migrate {
                        vm: vm.id,
                        target: target.node,
                    }];
                }
            }
        }
        Vec::new()
    }

    fn placement_order(&mut self, _kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        (0..view.nodes.len()).collect()
    }
}

#[test]
fn policy_migrations_flow_through_the_cluster() {
    let mut policy = MigrateOnce { done: false };
    let report = Simulation::new(config(Weather::Sunny, 9))
        .expect("config valid")
        .run(&mut policy)
        .expect("run succeeds");
    assert_eq!(report.migrations, 1, "exactly one migration was requested");
}

/// A policy that requests an impossible migration and records whether the
/// engine fed the failure back on the next control interval.
struct FeedbackProbe {
    requested: bool,
    saw_rejection: bool,
}

impl Policy for FeedbackProbe {
    fn name(&self) -> &'static str {
        "feedback-probe"
    }

    fn control(&mut self, _view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        if self.requested {
            for vm in ctx.rejected_migrations() {
                assert_eq!(vm, baat_workload::VmId(u64::MAX));
                self.saw_rejection = true;
            }
            for outcome in ctx.last_outcomes {
                assert_eq!(outcome.reject_reason(), Some(RejectReason::UnknownVm));
            }
            return Vec::new();
        }
        self.requested = true;
        vec![Action::Migrate {
            vm: baat_workload::VmId(u64::MAX),
            target: 0,
        }]
    }

    fn placement_order(&mut self, _kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        (0..view.nodes.len()).collect()
    }
}

#[test]
fn rejected_migrations_are_fed_back_to_the_policy() {
    let mut policy = FeedbackProbe {
        requested: false,
        saw_rejection: false,
    };
    Simulation::new(config(Weather::Sunny, 17))
        .expect("config valid")
        .run(&mut policy)
        .expect("run succeeds");
    assert!(
        policy.saw_rejection,
        "the next ControlCtx must surface the rejected migration"
    );
}

#[test]
fn pending_jobs_carry_over_between_days() {
    use baat_sim::{Event, RoundRobinPolicy};
    // Overload a tiny cluster so the queue cannot drain in one day.
    let mut b = SimConfig::builder();
    b.weather_plan(vec![Weather::Sunny, Weather::Sunny])
        .nodes(2)
        .dt(SimDuration::from_secs(60))
        .sample_every(10)
        .workload_mix(2, 60)
        .seed(8);
    let report = Simulation::new(b.build().expect("config valid"))
        .expect("sim builds")
        .run(&mut RoundRobinPolicy::new())
        .expect("run succeeds");
    // Day 2 reports the carried-over queue.
    assert!(
        report
            .events
            .count(|e| matches!(e, Event::PlacementFailed { .. }))
            > 0,
        "an overloaded 2-node cluster must carry jobs over"
    );
    assert!(report.completed_jobs > 0);
}

#[test]
fn grid_charging_happens_only_at_night() {
    use baat_sim::RoundRobinPolicy;
    let report = Simulation::new(config(Weather::Sunny, 11))
        .expect("config valid")
        .run(&mut RoundRobinPolicy::new())
        .expect("run succeeds");
    // Overnight utility charging replaces what the day drained; with
    // batteries starting full it is bounded by a day's worth of cycling.
    assert!(report.grid_charge_energy.as_f64() >= 0.0);
    assert!(
        report.grid_charge_energy.as_kwh() < 12.0,
        "grid draw implausibly large: {}",
        report.grid_charge_energy
    );
}

fn one_fault_config(kind: baat_sim::FaultKind, start_s: u64, minutes: u64) -> SimConfig {
    use baat_sim::{FaultPlan, FaultSpec};
    use baat_units::SimInstant;
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec {
        kind,
        start: SimInstant::from_secs(start_s),
        duration: SimDuration::from_minutes(minutes),
    });
    let mut b = SimConfig::builder();
    b.weather_plan(vec![Weather::Sunny])
        .dt(SimDuration::from_secs(60))
        .sample_every(10)
        .seed(21)
        .faults(plan);
    b.build().expect("config is valid")
}

#[test]
fn degraded_mode_tracks_the_staleness_bound() {
    use baat_sim::{Event, FaultKind, RoundRobinPolicy, DEFAULT_STALENESS_LIMIT};
    // Bank 0's sensor drops out from 10:00 for 20 minutes. With the
    // default 5-minute staleness bound, node 0 must enter degraded mode
    // one bound past its last fresh sample and leave within one control
    // interval of telemetry returning.
    let fault_start = 10 * 3600;
    let fault_end = fault_start + 20 * 60;
    let report = Simulation::new(one_fault_config(
        FaultKind::SensorDropout { bank: 0 },
        fault_start,
        20,
    ))
    .expect("config valid")
    .run(&mut RoundRobinPolicy::new())
    .expect("run succeeds");

    let transitions: Vec<(u64, bool)> = report
        .events
        .iter()
        .filter_map(|e| match e.event {
            Event::DegradedMode { node: 0, active } => Some((e.at.as_secs(), active)),
            _ => None,
        })
        .collect();
    let [(entered_at, true), (exited_at, false)] = transitions[..] else {
        panic!("expected exactly one enter/exit pair, got {transitions:?}");
    };
    let limit = DEFAULT_STALENESS_LIMIT.as_secs();
    assert!(
        (fault_start + limit..=fault_start + limit + 120).contains(&entered_at),
        "entered at {entered_at}, expected ~{}",
        fault_start + limit
    );
    assert!(
        (fault_end..=fault_end + 120).contains(&exited_at),
        "exited at {exited_at}, expected ~{fault_end}"
    );

    // While degraded, the fallback scheme must have raised the floor to
    // 0.5 and throttled to P4 — each exactly once: once the node is in
    // the conservative state, nothing more is issued.
    let fallback_floors = report
        .events
        .count(|e| matches!(e, Event::SocFloorChanged { node: 0, floor } if floor.value() == 0.5));
    assert_eq!(fallback_floors, 1, "floor raised exactly once");
    let throttles = report
        .events
        .count(|e| matches!(e, Event::DvfsChanged { node: 0, level } if *level == DvfsLevel::P4));
    assert_eq!(throttles, 1, "DVFS forced to P4 exactly once");
}

#[test]
fn blocked_migrations_reject_with_the_fault_reason() {
    use baat_sim::{Event, FaultKind};
    // Migrations blocked for the whole operating window: the requested
    // migration must be rejected with the typed fault reason and never
    // reach the cluster.
    let report = Simulation::new(one_fault_config(
        FaultKind::MigrationsBlocked,
        8 * 3600,
        10 * 60,
    ))
    .expect("config valid")
    .run(&mut MigrateOnce { done: false })
    .expect("run succeeds");
    assert_eq!(report.migrations, 0, "no migration may start");
    let rejected: Vec<RejectReason> = report
        .events
        .iter()
        .filter_map(|e| match &e.event {
            Event::Action { outcome } => outcome.reject_reason(),
            _ => None,
        })
        .collect();
    assert_eq!(rejected, vec![RejectReason::FaultInjected]);
}

#[test]
fn host_failure_pins_the_server_down_for_its_window() {
    use baat_sim::{Event, FaultKind, RoundRobinPolicy};
    let fault_start = 12 * 3600;
    let fault_end = fault_start + 30 * 60;
    let report = Simulation::new(one_fault_config(
        FaultKind::HostFailure { node: 1 },
        fault_start,
        30,
    ))
    .expect("config valid")
    .run(&mut RoundRobinPolicy::new())
    .expect("run succeeds");
    let shutdown = report
        .events
        .iter()
        .find(|e| matches!(e.event, Event::ServerShutdown { node: 1 }))
        .expect("the failed host must shut down");
    assert_eq!(shutdown.at.as_secs(), fault_start);
    let restart = report
        .events
        .iter()
        .find(|e| matches!(e.event, Event::ServerRestart { node: 1 }))
        .expect("the host must come back after the fault clears");
    assert!(
        restart.at.as_secs() >= fault_end,
        "restarted at {} while the fault held until {fault_end}",
        restart.at.as_secs()
    );
    assert!(
        restart.at.as_secs() <= fault_end + 30 * 60,
        "a sunny midday must restart the node promptly"
    );
    assert!(report.nodes[1].downtime >= SimDuration::from_minutes(30));
}

#[test]
fn fallback_scheme_backs_off_from_rejections() {
    // The public no-repeat contract: an action the engine rejected on
    // one interval is withheld on the next and may retry after.
    use baat_sim::{ActionOutcome, ActionResult, FallbackInput, FallbackScheme, FALLBACK_DVFS};
    let mut scheme = FallbackScheme::new();
    let degraded = [FallbackInput {
        node: 0,
        degraded: true,
        soc_floor: Soc::EMPTY,
        dvfs: DvfsLevel::P0,
    }];
    let first = scheme.plan(degraded);
    assert_eq!(first.len(), 2, "floor raise + throttle");
    assert!(first
        .iter()
        .any(|a| matches!(a, Action::SetDvfs { node: 0, level } if *level == FALLBACK_DVFS)));
    scheme.record_outcomes(
        &first
            .iter()
            .map(|&action| ActionOutcome {
                action,
                result: ActionResult::Rejected(RejectReason::UnknownNode),
            })
            .collect::<Vec<_>>(),
    );
    assert!(
        scheme.plan(degraded).is_empty(),
        "freshly rejected actions must not repeat"
    );
    scheme.record_outcomes(&[]);
    assert_eq!(
        scheme.plan(degraded).len(),
        2,
        "may retry one interval later"
    );
}

#[test]
fn a_dying_battery_is_visible_and_survivable() {
    use baat_sim::RoundRobinPolicy;
    // Inject a nearly-dead unit on node 2 and run a cloudy day: the sick
    // node must surface in the report without breaking the run.
    let mut sim = Simulation::new(config(Weather::Cloudy, 13)).expect("config valid");
    sim.pre_age_bank(2, 0.95).expect("bank exists");
    assert!(sim.pre_age_bank(99, 0.5).is_err(), "bad index must error");
    let report = sim.run(&mut RoundRobinPolicy::new()).expect("run succeeds");
    assert_eq!(report.worst_node().expect("has nodes").node, 2);
    assert!(report.nodes[2].capacity_fraction < 0.82);
    assert!(report.total_work > 0.0, "the fleet keeps computing");
}
