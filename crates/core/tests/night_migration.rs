//! A migration that falls due after the operating window closes.
//!
//! Outside the window every host is powered off, so the engine lands due
//! migrations but skips the host walk. A VM whose transfer completes at
//! night must land on its powered-off target, make no progress there
//! until the window reopens, and then run. The final state hash of the
//! BAAT-h run is pinned to the value the engine produced when it still
//! stepped every host at night.

use baat_core::BaatH;
use baat_sim::{Action, ControlCtx, PlacementSpec, Policy, SimConfig, Simulation, SystemView};
use baat_solar::Weather;
use baat_units::{SimDuration, TimeOfDay};
use baat_workload::{VmId, VmState, WorkloadKind};

/// Pinned final state hash of the two-day run.
const NIGHT_MIGRATION_HASH: u64 = 0xe4eb_3fc2_bca8_481b;

/// From this time of day on, the policy forces one migration: the last
/// control interval of the window (18:30), so the transfer completes at
/// night.
const FORCE_AT: TimeOfDay = TimeOfDay::from_hm(18, 29);

/// BAAT-h, except that at its first control interval from [`FORCE_AT`]
/// on it migrates the largest running VM to the first other online host
/// with room instead.
struct LateMigration {
    inner: BaatH,
    forced: Option<(VmId, usize)>,
}

impl Policy for LateMigration {
    fn name(&self) -> &'static str {
        "BAAT-h+late-migration"
    }

    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        if self.forced.is_some() || view.tod < FORCE_AT {
            return self.inner.control(view, ctx);
        }
        let candidates = view.nodes.iter().flat_map(|node| {
            node.vms
                .iter()
                .filter(|vm| vm.state == VmState::Running)
                .map(move |vm| (node.node, vm))
        });
        let forced = candidates
            .filter_map(|(from, vm)| {
                let (cores, memory) = vm.kind.resource_request();
                let target = view.nodes.iter().find(|t| {
                    t.node != from
                        && t.online
                        && t.free_resources.0 >= cores
                        && t.free_resources.1 >= memory
                })?;
                Some((memory, vm.id, target.node))
            })
            .max_by_key(|&(memory, vm, _)| (memory, std::cmp::Reverse(vm)));
        let Some((_, vm, target)) = forced else {
            return self.inner.control(view, ctx);
        };
        self.forced = Some((vm, target));
        vec![Action::Migrate { vm, target }]
    }

    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        self.inner.placement_order(kind, view)
    }

    fn placement_spec(&self) -> PlacementSpec {
        self.inner.placement_spec()
    }
}

#[test]
fn a_migration_due_at_night_lands_powered_off_and_runs_next_morning() {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![Weather::Sunny, Weather::Cloudy])
        .dt(SimDuration::from_secs(60))
        .control_interval(SimDuration::from_secs(60))
        .sample_every(10)
        .seed(5);
    let config = b.build().expect("config is valid");
    let (day_start, day_end) = (config.day_start, config.day_end);
    let mut sim = Simulation::new(config).expect("sim builds");
    let mut policy = LateMigration {
        inner: BaatH::new(),
        forced: None,
    };
    let progress = |sim: &Simulation, vm: VmId| {
        sim.cluster()
            .hosts()
            .find_map(|h| h.vm(vm))
            .map(|v| v.progress())
    };

    // Day one: run until the forced migration is under way.
    while policy.forced.is_none() {
        sim.step(&mut policy).expect("step runs");
    }
    let (vm, target) = policy.forced.expect("a migration was forced");
    assert_eq!(
        sim.cluster().migrations_in_flight(),
        1,
        "the migration started"
    );
    assert_eq!(progress(&sim, vm), None, "in transit");

    // The window closes before the transfer completes.
    let mut landed_at = sim.now().time_of_day();
    while progress(&sim, vm).is_none() {
        landed_at = sim.now().time_of_day();
        sim.step(&mut policy).expect("step runs");
    }
    assert!(
        !landed_at.is_between(day_start, day_end),
        "landed at {landed_at}, inside the window"
    );
    let target_host = sim.cluster().host(target).expect("target exists");
    assert!(!target_host.is_online(), "the target is powered off");
    assert_eq!(sim.cluster().locate(vm).map(|s| s.0), Some(target));
    let landed = progress(&sim, vm).expect("landed");

    // No progress overnight; progress once the window reopens.
    while !sim.now().time_of_day().is_between(day_start, day_end) {
        sim.step(&mut policy).expect("step runs");
        assert_eq!(progress(&sim, vm), Some(landed), "progress at night");
    }
    let mut ran = false;
    for _ in 0..60 {
        sim.step(&mut policy).expect("step runs");
        if progress(&sim, vm).is_some_and(|p| p > landed) {
            ran = true;
            break;
        }
    }
    assert!(ran, "the VM did not run in the first hour of the window");

    let rest = sim.total_steps() - sim.step_index();
    sim.run_steps(&mut policy, rest).expect("day two runs");
    assert!(
        sim.cluster().migrations_started() > 1,
        "BAAT-h migrates on its own as well"
    );
    assert_eq!(
        sim.state_hash(),
        NIGHT_MIGRATION_HASH,
        "state hash {:#x}",
        sim.state_hash()
    );
}
