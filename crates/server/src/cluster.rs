//! The server cluster: cross-host VM migration and aggregate accounting.

use baat_units::{SimDuration, SimInstant, TimeOfDay};
use baat_workload::{Vm, VmId, VmSnapshot};

use crate::error::{MigrationBlock, ServerError};
use crate::hypervisor::{Host, HostState, ServerCapacity, ServerId};
use crate::power_model::ServerPowerModel;

/// Live-migration cost model.
///
/// The paper notes BAAT-h's naive migrations cause "frequent VM stop and
/// restart" overhead (§VI.F); transfer time scales with VM memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationSpec {
    /// Transfer time per GiB of VM memory.
    pub seconds_per_gb: u64,
    /// Fixed stop-and-copy downtime added per migration.
    pub fixed_overhead: SimDuration,
}

impl Default for MigrationSpec {
    fn default() -> Self {
        Self {
            seconds_per_gb: 30,
            fixed_overhead: SimDuration::from_secs(30),
        }
    }
}

impl MigrationSpec {
    /// Total out-of-service time for a VM with the given memory footprint.
    pub fn duration_for(&self, memory_gb: u32) -> SimDuration {
        SimDuration::from_secs(self.seconds_per_gb * u64::from(memory_gb)) + self.fixed_overhead
    }
}

#[derive(Debug, Clone, PartialEq)]
struct InFlight {
    vm: Vm,
    to: ServerId,
    completes_at: SimInstant,
}

/// Checkpoint view of one in-flight migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightState {
    /// The migrating VM.
    pub vm: VmSnapshot,
    /// Destination host.
    pub to: ServerId,
    /// When the transfer completes.
    pub completes_at: SimInstant,
}

/// Checkpointable runtime state of a whole [`Cluster`]: per-host state,
/// in-flight migrations and the migration counter. The migration cost
/// model and host construction parameters are reproduced from
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    /// Per-host runtime state, in host order.
    pub hosts: Vec<HostState>,
    /// Migrations currently in flight, in initiation order.
    pub in_flight: Vec<InFlightState>,
    /// Total migrations initiated.
    pub migrations_started: u64,
}

/// A cluster of virtualized servers with live migration.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    hosts: Vec<Host>,
    in_flight: Vec<InFlight>,
    migration_spec: MigrationSpec,
    migrations_started: u64,
}

impl Cluster {
    /// Creates a cluster of `count` identical hosts.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidConfig`] if `count` is zero.
    pub fn homogeneous(
        count: usize,
        power_model: ServerPowerModel,
        capacity: ServerCapacity,
        migration_spec: MigrationSpec,
    ) -> Result<Self, ServerError> {
        if count == 0 {
            return Err(ServerError::InvalidConfig {
                field: "count",
                reason: "cluster needs at least one server".to_owned(),
            });
        }
        Ok(Self {
            hosts: (0..count)
                .map(|i| Host::new(ServerId(i), power_model, capacity))
                .collect(),
            in_flight: Vec::new(),
            migration_spec,
            migrations_started: 0,
        })
    }

    /// The paper's six-server prototype cluster.
    pub fn prototype() -> Self {
        Self::homogeneous(
            6,
            ServerPowerModel::prototype(),
            ServerCapacity::default(),
            MigrationSpec::default(),
        )
        .expect("six is non-zero")
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// `true` if the cluster has no hosts (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Immutable host access.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownServer`] for an out-of-range index.
    pub fn host(&self, index: usize) -> Result<&Host, ServerError> {
        self.hosts.get(index).ok_or(ServerError::UnknownServer {
            index,
            len: self.hosts.len(),
        })
    }

    /// Mutable host access.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownServer`] for an out-of-range index.
    pub fn host_mut(&mut self, index: usize) -> Result<&mut Host, ServerError> {
        let len = self.hosts.len();
        self.hosts
            .get_mut(index)
            .ok_or(ServerError::UnknownServer { index, len })
    }

    /// Iterates over hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// Iterates mutably over hosts.
    pub fn hosts_mut(&mut self) -> impl Iterator<Item = &mut Host> {
        self.hosts.iter_mut()
    }

    /// The migration cost model.
    pub fn migration_spec(&self) -> MigrationSpec {
        self.migration_spec
    }

    /// Total migrations initiated.
    pub fn migrations_started(&self) -> u64 {
        self.migrations_started
    }

    /// Locates the host currently running a VM.
    pub fn locate(&self, vm: VmId) -> Option<ServerId> {
        self.hosts
            .iter()
            .find(|h| h.vm(vm).is_some())
            .map(|h| h.id())
    }

    /// Free resources on a host *minus* reservations for in-flight
    /// migrations targeting it. An unknown target has no resources.
    pub fn reservable_resources(&self, target: ServerId) -> (u32, u32) {
        let Some(host) = self.hosts.get(target.0) else {
            return (0, 0);
        };
        let (mut fc, mut fm) = host.free_resources();
        for mig in self.in_flight.iter().filter(|m| m.to == target) {
            let (c, m) = mig.vm.kind().resource_request();
            fc = fc.saturating_sub(c);
            fm = fm.saturating_sub(m);
        }
        (fc, fm)
    }

    /// Starts a live migration of `vm` to `target`.
    ///
    /// The VM stops making progress immediately and resumes on the target
    /// when the transfer completes (memory-proportional duration).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownVm`] if no host runs the VM,
    /// [`ServerError::MigrationRejected`] if the VM is already migrating
    /// or the target is its current host, and
    /// [`ServerError::InsufficientResources`] if the target (net of
    /// reservations) cannot fit it.
    pub fn begin_migration(
        &mut self,
        vm: VmId,
        target: ServerId,
        now: SimInstant,
    ) -> Result<(), ServerError> {
        if target.0 >= self.hosts.len() {
            return Err(ServerError::UnknownServer {
                index: target.0,
                len: self.hosts.len(),
            });
        }
        if self.in_flight.iter().any(|m| m.vm.id() == vm) {
            return Err(ServerError::MigrationRejected {
                vm,
                block: MigrationBlock::AlreadyInFlight,
            });
        }
        let source = self.locate(vm).ok_or(ServerError::UnknownVm { vm })?;
        if source == target {
            return Err(ServerError::MigrationRejected {
                vm,
                block: MigrationBlock::TargetIsSource,
            });
        }
        let request = self
            .host(source.0)?
            .vm(vm)
            .ok_or(ServerError::UnknownVm { vm })?
            .kind()
            .resource_request();
        let (fc, fm) = self.reservable_resources(target);
        if request.0 > fc || request.1 > fm {
            return Err(ServerError::InsufficientResources {
                vm,
                requested: request,
                free: (fc, fm),
            });
        }
        let mut evicted = self.host_mut(source.0)?.evict(vm)?;
        evicted.begin_migration();
        let duration = self.migration_spec.duration_for(request.1);
        self.in_flight.push(InFlight {
            vm: evicted,
            to: target,
            completes_at: now + duration,
        });
        self.migrations_started += 1;
        Ok(())
    }

    /// Number of migrations currently in flight.
    pub fn migrations_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Advances the whole cluster one step: completes due migrations,
    /// then steps every host and hands it, stepped, to `stepped`. Work
    /// done accrues on each host ([`Host::work_done`], summed by
    /// [`Self::total_work_done`]).
    pub fn step(
        &mut self,
        now: SimInstant,
        tod: TimeOfDay,
        dt: SimDuration,
        mut stepped: impl FnMut(&Host),
    ) {
        self.complete_migrations(now);
        for host in &mut self.hosts {
            host.step(tod, dt);
            stepped(host);
        }
    }

    /// Advances a cluster whose hosts are all powered off one step:
    /// completes due migrations onto their (powered-off) targets and
    /// skips the host walk, since a powered-off host's step does nothing.
    pub fn step_powered_off(&mut self, now: SimInstant) {
        debug_assert!(
            self.hosts.iter().all(|h| !h.is_online()),
            "step_powered_off on a cluster with a powered host"
        );
        self.complete_migrations(now);
    }

    /// Lands every migration due by `now` on its target, in initiation
    /// order; the rest stay in flight, in order.
    fn complete_migrations(&mut self, now: SimInstant) {
        // Capacity was reserved when the migration started; a target
        // that has somehow vanished keeps the VM in flight rather than
        // dropping it (or panicking).
        let len = self.hosts.len();
        let due = |m: &mut InFlight| m.completes_at <= now && m.to.0 < len;
        for mut mig in self.in_flight.extract_if(.., due) {
            mig.vm.resume();
            self.hosts[mig.to.0].admit_unchecked(mig.vm);
        }
    }

    /// Total useful work done (core-hours) across all hosts.
    pub fn total_work_done(&self) -> f64 {
        self.hosts.iter().map(Host::work_done).sum()
    }

    /// Captures the cluster's runtime state for checkpointing.
    pub fn capture_state(&self) -> ClusterState {
        ClusterState {
            hosts: self.hosts.iter().map(Host::capture_state).collect(),
            in_flight: self
                .in_flight
                .iter()
                .map(|m| InFlightState {
                    vm: m.vm.capture(),
                    to: m.to,
                    completes_at: m.completes_at,
                })
                .collect(),
            migrations_started: self.migrations_started,
        }
    }

    /// Re-applies a captured runtime state onto this cluster.
    ///
    /// The cluster must have been constructed with the same host count
    /// and parameters as the captured one.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InvalidConfig`] if the host counts differ.
    pub fn restore_state(&mut self, state: &ClusterState) -> Result<(), ServerError> {
        if state.hosts.len() != self.hosts.len() {
            return Err(ServerError::InvalidConfig {
                field: "hosts",
                reason: format!(
                    "checkpoint has {} hosts, cluster has {}",
                    state.hosts.len(),
                    self.hosts.len()
                ),
            });
        }
        for (host, hs) in self.hosts.iter_mut().zip(&state.hosts) {
            host.restore_state(hs);
        }
        self.in_flight = state
            .in_flight
            .iter()
            .map(|m| InFlight {
                vm: Vm::restore(m.vm),
                to: m.to,
                completes_at: m.completes_at,
            })
            .collect();
        self.migrations_started = state.migrations_started;
        Ok(())
    }

    /// Powers every host on and resumes checkpointed VMs.
    pub fn power_on_all(&mut self) {
        for h in &mut self.hosts {
            h.power_on();
            h.resume_all();
        }
    }

    /// Powers every host off (checkpointing all VMs).
    pub fn power_off_all(&mut self) {
        for h in &mut self.hosts {
            h.power_off();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_units::Watts;
    use baat_workload::{VmState, WorkloadKind};

    fn cluster() -> Cluster {
        Cluster::prototype()
    }

    fn vm(id: u64, kind: WorkloadKind) -> Vm {
        Vm::new(VmId(id), kind)
    }

    #[test]
    fn prototype_has_six_servers() {
        assert_eq!(cluster().len(), 6);
    }

    #[test]
    fn out_of_range_indices_error_instead_of_panicking() {
        let mut c = cluster();
        assert_eq!(c.reservable_resources(ServerId(99)), (0, 0));
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::KMeans))
            .unwrap();
        assert!(matches!(
            c.begin_migration(VmId(1), ServerId(99), SimInstant::START),
            Err(ServerError::UnknownServer { index: 99, .. })
        ));
        assert_eq!(c.locate(VmId(1)), Some(ServerId(0)), "VM stays put");
    }

    #[test]
    fn locate_finds_hosted_vm() {
        let mut c = cluster();
        c.host_mut(2)
            .unwrap()
            .admit(vm(7, WorkloadKind::KMeans))
            .unwrap();
        assert_eq!(c.locate(VmId(7)), Some(ServerId(2)));
        assert_eq!(c.locate(VmId(8)), None);
    }

    #[test]
    fn migration_moves_vm_after_duration() {
        let mut c = cluster();
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::KMeans))
            .unwrap();
        let t0 = SimInstant::START;
        c.begin_migration(VmId(1), ServerId(3), t0).unwrap();
        assert_eq!(c.migrations_in_flight(), 1);
        assert_eq!(c.locate(VmId(1)), None, "in transit");

        // K-Means: 6 GiB × 30 s + 30 s = 210 s.
        let dt = SimDuration::from_secs(60);
        let mut now = t0;
        for _ in 0..3 {
            now += dt;
            c.step(now, TimeOfDay::NOON, dt, |_| {});
        }
        assert_eq!(c.migrations_in_flight(), 1, "not yet complete");
        now += dt;
        c.step(now, TimeOfDay::NOON, dt, |_| {});
        assert_eq!(c.migrations_in_flight(), 0, "complete");
        assert_eq!(c.locate(VmId(1)), Some(ServerId(3)));
        assert_eq!(
            c.host(3).unwrap().vm(VmId(1)).unwrap().state(),
            VmState::Running
        );
    }

    #[test]
    fn a_powered_off_cluster_lands_due_migrations_in_order() {
        let mut c = cluster();
        let admit = |c: &mut Cluster, host: usize, id: u64, kind: WorkloadKind| {
            c.host_mut(host).unwrap().admit(vm(id, kind)).unwrap();
        };
        admit(&mut c, 0, 1, WorkloadKind::KMeans);
        admit(&mut c, 0, 2, WorkloadKind::WordCount);
        admit(&mut c, 1, 3, WorkloadKind::KMeans);
        let t0 = SimInstant::START;
        for (id, target) in [(1, 2), (2, 3), (3, 4)] {
            c.begin_migration(VmId(id), ServerId(target), t0).unwrap();
        }
        c.power_off_all();
        // Word Count: 4 GiB × 30 s + 30 s = 150 s; K-Means 210 s.
        c.step_powered_off(t0 + SimDuration::from_secs(150));
        assert_eq!(c.locate(VmId(2)), Some(ServerId(3)));
        assert!(!c.host(3).unwrap().is_online());
        let in_flight: Vec<VmId> = c
            .capture_state()
            .in_flight
            .iter()
            .map(|m| m.vm.id)
            .collect();
        assert_eq!(in_flight, [VmId(1), VmId(3)], "initiation order kept");
        c.step_powered_off(t0 + SimDuration::from_secs(210));
        assert_eq!(c.migrations_in_flight(), 0);
        assert_eq!(c.locate(VmId(1)), Some(ServerId(2)));
        assert_eq!(c.locate(VmId(3)), Some(ServerId(4)));
    }

    #[test]
    fn migration_to_same_host_rejected() {
        let mut c = cluster();
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::KMeans))
            .unwrap();
        let err = c
            .begin_migration(VmId(1), ServerId(0), SimInstant::START)
            .unwrap_err();
        assert!(matches!(err, ServerError::MigrationRejected { .. }));
    }

    #[test]
    fn double_migration_rejected() {
        let mut c = cluster();
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::KMeans))
            .unwrap();
        c.begin_migration(VmId(1), ServerId(1), SimInstant::START)
            .unwrap();
        let err = c
            .begin_migration(VmId(1), ServerId(2), SimInstant::START)
            .unwrap_err();
        assert!(matches!(err, ServerError::MigrationRejected { .. }));
    }

    #[test]
    fn migration_respects_target_reservations() {
        let mut c = cluster();
        // Fill target host 1 to 6/8 cores so only one 4-core VM more fits
        // by reservation.
        c.host_mut(1)
            .unwrap()
            .admit(vm(9, WorkloadKind::SoftwareTesting)) // 6 cores
            .unwrap();
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::WordCount))
            .unwrap(); // 2 cores
        c.host_mut(0)
            .unwrap()
            .admit(vm(2, WorkloadKind::WordCount))
            .unwrap();
        c.begin_migration(VmId(1), ServerId(1), SimInstant::START)
            .unwrap();
        // Second 2-core VM no longer fits (6 + 2 reserved = 8 cores, but
        // memory: 8 + 4 = 12 of 16 — cores are the binding constraint).
        let err = c
            .begin_migration(VmId(2), ServerId(1), SimInstant::START)
            .unwrap_err();
        assert!(matches!(err, ServerError::InsufficientResources { .. }));
    }

    #[test]
    fn migration_pauses_progress() {
        let mut c = cluster();
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::KMeans))
            .unwrap();
        c.begin_migration(VmId(1), ServerId(1), SimInstant::START)
            .unwrap();
        c.step(
            SimInstant::from_secs(10),
            TimeOfDay::NOON,
            SimDuration::from_secs(10),
            |_| {},
        );
        assert_eq!(c.total_work_done(), 0.0, "migrating VM does no work");
    }

    #[test]
    fn power_off_all_stops_cluster_power() {
        let mut c = cluster();
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::SoftwareTesting))
            .unwrap();
        let power = |c: &Cluster| c.hosts().map(|h| h.power(TimeOfDay::NOON)).sum::<Watts>();
        assert!(power(&c).as_f64() > 0.0);
        c.power_off_all();
        assert_eq!(power(&c), Watts::ZERO);
        c.power_on_all();
        assert!(power(&c).as_f64() > 0.0);
        assert_eq!(
            c.host(0).unwrap().vm(VmId(1)).unwrap().state(),
            VmState::Running
        );
    }

    #[test]
    fn work_accumulates_across_hosts() {
        let mut c = cluster();
        c.host_mut(0)
            .unwrap()
            .admit(vm(1, WorkloadKind::KMeans))
            .unwrap();
        c.host_mut(1)
            .unwrap()
            .admit(vm(2, WorkloadKind::WordCount))
            .unwrap();
        let mut now = SimInstant::START;
        let dt = SimDuration::from_minutes(10);
        for _ in 0..6 {
            now += dt;
            c.step(now, TimeOfDay::NOON, dt, |_| {});
        }
        assert!(c.total_work_done() > 0.0);
        assert!(c.host(0).unwrap().work_done() > 0.0);
        assert!(c.host(1).unwrap().work_done() > 0.0);
    }
}
