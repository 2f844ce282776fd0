//! A virtualized server host: VM admission, execution, DVFS and
//! checkpointing.

use baat_units::{Fraction, SimDuration, TimeOfDay, Watts};
use baat_workload::{Vm, VmId, VmSnapshot, VmState};

use crate::dvfs::DvfsLevel;
use crate::error::ServerError;
use crate::power_model::ServerPowerModel;

/// Time from power-on until the hypervisor can run VMs again (server
/// boot + Xen + checkpoint restore). Crash-cycling a node is not free.
pub const BOOT_DELAY: SimDuration = SimDuration::from_minutes(3);

/// Identifier of a server (and, in the per-server battery architecture,
/// of its associated battery node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

impl core::fmt::Display for ServerId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// Schedulable resources of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerCapacity {
    /// vCPU cores.
    pub cores: u32,
    /// Memory in GiB.
    pub memory_gb: u32,
}

impl Default for ServerCapacity {
    fn default() -> Self {
        Self {
            cores: 8,
            memory_gb: 16,
        }
    }
}

/// Checkpointable runtime state of one [`Host`].
///
/// The static side (id, power model, capacity) is reproduced by
/// reconstructing the host from configuration; this carries only what
/// stepping mutates. The cached usage counters are not included — they
/// are re-derived from the restored VM list.
#[derive(Debug, Clone, PartialEq)]
pub struct HostState {
    /// Current DVFS level.
    pub dvfs: DvfsLevel,
    /// `true` if the host is powered on.
    pub online: bool,
    /// Remaining boot time (zero once booted).
    pub boot_remaining: SimDuration,
    /// Total useful work done (core-hours).
    pub work_done: f64,
    /// Number of batch jobs completed.
    pub completed_jobs: u64,
    /// Hosted VMs, in hosting order.
    pub vms: Vec<VmSnapshot>,
}

/// A virtualized server: power model, DVFS state, hosted VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    id: ServerId,
    power_model: ServerPowerModel,
    capacity: ServerCapacity,
    dvfs: DvfsLevel,
    vms: Vec<Vm>,
    online: bool,
    boot_remaining: SimDuration,
    work_done: f64,
    completed_jobs: u64,
    /// Resources held by live (non-completed) VMs, maintained
    /// incrementally at admission, eviction and completion so
    /// [`Host::fits`] is O(1) instead of a scan of the VM list —
    /// placement retries call it for every pending VM × candidate host.
    used_cores: u32,
    used_memory_gb: u32,
}

impl Host {
    /// Creates an online, idle host.
    pub fn new(id: ServerId, power_model: ServerPowerModel, capacity: ServerCapacity) -> Self {
        Self {
            id,
            power_model,
            capacity,
            dvfs: DvfsLevel::P0,
            vms: Vec::new(),
            online: true,
            boot_remaining: SimDuration::ZERO,
            work_done: 0.0,
            completed_jobs: 0,
            used_cores: 0,
            used_memory_gb: 0,
        }
    }

    /// Charges a live VM's request against the cached usage counters.
    fn charge(&mut self, request: (u32, u32)) {
        self.used_cores += request.0;
        self.used_memory_gb += request.1;
    }

    /// Releases a no-longer-live VM's request from the cached counters.
    fn release(&mut self, request: (u32, u32)) {
        self.used_cores -= request.0;
        self.used_memory_gb -= request.1;
    }

    /// Host identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The host's power model.
    pub fn power_model(&self) -> &ServerPowerModel {
        &self.power_model
    }

    /// Schedulable capacity.
    pub fn capacity(&self) -> ServerCapacity {
        self.capacity
    }

    /// Current DVFS level.
    pub fn dvfs(&self) -> DvfsLevel {
        self.dvfs
    }

    /// Sets the DVFS level (BAAT's power-capping actuator).
    pub fn set_dvfs(&mut self, level: DvfsLevel) {
        self.dvfs = level;
    }

    /// `true` if the host is powered on.
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Powers the host on (VMs stay paused until resumed). A freshly
    /// powered host spends [`BOOT_DELAY`] booting: it draws idle power
    /// but runs no VMs until the boot completes.
    pub fn power_on(&mut self) {
        if !self.online {
            self.online = true;
            self.boot_remaining = BOOT_DELAY;
        }
    }

    /// `true` while the host is powered but still booting.
    pub fn is_booting(&self) -> bool {
        self.online && !self.boot_remaining.is_zero()
    }

    /// Powers the host off, checkpointing (pausing) every VM — the
    /// prototype's behaviour when solar is exhausted (§V.B).
    pub fn power_off(&mut self) {
        self.online = false;
        for vm in &mut self.vms {
            vm.pause();
        }
    }

    /// Resumes all paused VMs (after power-on or a restored budget).
    pub fn resume_all(&mut self) {
        if !self.online {
            return;
        }
        for vm in &mut self.vms {
            if vm.state() == VmState::Paused {
                vm.resume();
            }
        }
    }

    /// Resources consumed by live (non-completed) VMs.
    ///
    /// Served from counters maintained at admission, eviction and
    /// completion (O(1)); debug builds re-derive the value from the VM
    /// list and assert the two agree.
    pub fn used_resources(&self) -> (u32, u32) {
        debug_assert_eq!(
            (self.used_cores, self.used_memory_gb),
            self.vms
                .iter()
                .filter(|vm| !vm.is_completed())
                .map(|vm| vm.kind().resource_request())
                .fold((0, 0), |(c, m), (vc, vm_)| (c + vc, m + vm_)),
            "cached usage counters drifted from the VM list"
        );
        (self.used_cores, self.used_memory_gb)
    }

    /// Resources still free for admission.
    pub fn free_resources(&self) -> (u32, u32) {
        let (uc, um) = self.used_resources();
        (
            self.capacity.cores.saturating_sub(uc),
            self.capacity.memory_gb.saturating_sub(um),
        )
    }

    /// `true` if a VM with the given request fits right now.
    pub fn fits(&self, request: (u32, u32)) -> bool {
        let (fc, fm) = self.free_resources();
        request.0 <= fc && request.1 <= fm
    }

    /// Admits a VM, validating resource availability.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::InsufficientResources`] if the VM does not
    /// fit.
    pub fn admit(&mut self, vm: Vm) -> Result<(), ServerError> {
        let request = vm.kind().resource_request();
        if !self.fits(request) {
            return Err(ServerError::InsufficientResources {
                vm: vm.id(),
                requested: request,
                free: self.free_resources(),
            });
        }
        if !vm.is_completed() {
            self.charge(request);
        }
        self.vms.push(vm);
        Ok(())
    }

    /// Admits a VM without a resource check.
    ///
    /// Used when completing a migration whose capacity was reserved at
    /// initiation; normal placement must use [`Host::admit`].
    pub fn admit_unchecked(&mut self, vm: Vm) {
        if !vm.is_completed() {
            self.charge(vm.kind().resource_request());
        }
        self.vms.push(vm);
    }

    /// Removes and returns a VM.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownVm`] if the host does not hold it.
    pub fn evict(&mut self, vm: VmId) -> Result<Vm, ServerError> {
        let idx = self
            .vms
            .iter()
            .position(|v| v.id() == vm)
            .ok_or(ServerError::UnknownVm { vm })?;
        let evicted = self.vms.remove(idx);
        if !evicted.is_completed() {
            self.release(evicted.kind().resource_request());
        }
        Ok(evicted)
    }

    /// Immutable view of a hosted VM.
    pub fn vm(&self, vm: VmId) -> Option<&Vm> {
        self.vms.iter().find(|v| v.id() == vm)
    }

    /// Iterates over hosted VMs.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.iter()
    }

    /// Utilization and electrical power right now, from one pass over
    /// the VMs. An offline host is idle and draws nothing; a booting
    /// host runs no VMs but draws idle power.
    pub fn load(&self, tod: TimeOfDay) -> (Fraction, Watts) {
        if !self.online {
            return (Fraction::ZERO, Watts::ZERO);
        }
        let utilization = if self.is_booting() {
            Fraction::ZERO
        } else {
            let demanded: f64 = self
                .vms
                .iter()
                .map(|vm| {
                    let (cores, _) = vm.kind().resource_request();
                    f64::from(cores) * vm.utilization(tod).value()
                })
                .sum();
            Fraction::saturating(demanded / f64::from(self.capacity.cores))
        };
        (utilization, self.power_model.power(utilization, self.dvfs))
    }

    /// Aggregate CPU utilization demanded by running VMs, in `[0, 1]`.
    pub fn utilization(&self, tod: TimeOfDay) -> Fraction {
        self.load(tod).0
    }

    /// Electrical power drawn right now (zero when offline).
    pub fn power(&self, tod: TimeOfDay) -> Watts {
        self.load(tod).1
    }

    /// Advances all VMs one step; returns useful work done (core-hours).
    pub fn step(&mut self, tod: TimeOfDay, dt: SimDuration) -> f64 {
        if !self.online {
            return 0.0;
        }
        if self.is_booting() {
            self.boot_remaining = self.boot_remaining.saturating_sub(dt);
            return 0.0;
        }
        let speed = self.dvfs.speed();
        let mut work = 0.0;
        for vm in &mut self.vms {
            let before = vm.is_completed();
            work += vm.advance(speed, tod, dt);
            if !before && vm.is_completed() {
                self.completed_jobs += 1;
                let (c, m) = vm.kind().resource_request();
                self.used_cores -= c;
                self.used_memory_gb -= m;
            }
        }
        self.work_done += work;
        work
    }

    /// Total useful work done by this host (core-hours).
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// Number of batch jobs completed on this host.
    pub fn completed_jobs(&self) -> u64 {
        self.completed_jobs
    }

    /// Captures the host's runtime state for checkpointing.
    pub fn capture_state(&self) -> HostState {
        HostState {
            dvfs: self.dvfs,
            online: self.online,
            boot_remaining: self.boot_remaining,
            work_done: self.work_done,
            completed_jobs: self.completed_jobs,
            vms: self.vms.iter().map(Vm::capture).collect(),
        }
    }

    /// Re-applies a captured runtime state onto this host (same id,
    /// power model and capacity as the captured one). The cached usage
    /// counters are re-derived from the restored VM list.
    pub fn restore_state(&mut self, state: &HostState) {
        self.dvfs = state.dvfs;
        self.online = state.online;
        self.boot_remaining = state.boot_remaining;
        self.work_done = state.work_done;
        self.completed_jobs = state.completed_jobs;
        self.vms = state.vms.iter().copied().map(Vm::restore).collect();
        self.used_cores = 0;
        self.used_memory_gb = 0;
        let requests: Vec<_> = self
            .vms
            .iter()
            .filter(|vm| !vm.is_completed())
            .map(|vm| vm.kind().resource_request())
            .collect();
        for request in requests {
            self.charge(request);
        }
    }

    /// Drops completed batch VMs, returning how many were reaped.
    pub fn reap_completed(&mut self) -> usize {
        let before = self.vms.len();
        self.vms.retain(|vm| !vm.is_completed());
        before - self.vms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_workload::WorkloadKind;

    fn host() -> Host {
        Host::new(
            ServerId(0),
            ServerPowerModel::prototype(),
            ServerCapacity::default(),
        )
    }

    fn vm(id: u64, kind: WorkloadKind) -> Vm {
        Vm::new(VmId(id), kind)
    }

    #[test]
    fn admission_respects_capacity() {
        let mut h = host();
        // 8 cores: SoftwareTesting (6) + WordCount (2) fills it.
        h.admit(vm(0, WorkloadKind::SoftwareTesting)).unwrap();
        h.admit(vm(1, WorkloadKind::WordCount)).unwrap();
        let err = h.admit(vm(2, WorkloadKind::KMeans)).unwrap_err();
        assert!(matches!(err, ServerError::InsufficientResources { .. }));
    }

    #[test]
    fn eviction_frees_resources() {
        let mut h = host();
        h.admit(vm(0, WorkloadKind::SoftwareTesting)).unwrap();
        assert!(!h.fits((4, 8)));
        let evicted = h.evict(VmId(0)).unwrap();
        assert_eq!(evicted.id(), VmId(0));
        assert!(h.fits((4, 8)));
        assert!(matches!(
            h.evict(VmId(9)),
            Err(ServerError::UnknownVm { .. })
        ));
    }

    #[test]
    fn utilization_aggregates_running_vms() {
        let mut h = host();
        h.admit(vm(0, WorkloadKind::SoftwareTesting)).unwrap(); // 6c × 0.95
        let u = h.utilization(TimeOfDay::NOON).value();
        assert!((u - 6.0 * 0.95 / 8.0).abs() < 1e-9, "u {u}");
    }

    #[test]
    fn load_pairs_utilization_with_power_in_every_state() {
        let mut h = host();
        h.admit(vm(0, WorkloadKind::SoftwareTesting)).unwrap();
        let busy = h.load(TimeOfDay::NOON);
        assert_eq!(
            busy,
            (h.utilization(TimeOfDay::NOON), h.power(TimeOfDay::NOON))
        );
        assert_eq!(busy.1, h.power_model().power(busy.0, h.dvfs()));
        h.power_off();
        assert_eq!(h.load(TimeOfDay::NOON), (Fraction::ZERO, Watts::ZERO));
        h.power_on();
        assert!(h.is_booting());
        let idle = h.power_model().idle();
        assert_eq!(h.load(TimeOfDay::NOON), (Fraction::ZERO, idle));
    }

    #[test]
    fn offline_host_draws_nothing_and_does_nothing() {
        let mut h = host();
        h.admit(vm(0, WorkloadKind::KMeans)).unwrap();
        h.power_off();
        assert_eq!(h.power(TimeOfDay::NOON), Watts::ZERO);
        assert_eq!(h.step(TimeOfDay::NOON, SimDuration::from_minutes(10)), 0.0);
        assert_eq!(h.vm(VmId(0)).unwrap().state(), VmState::Paused);
    }

    #[test]
    fn power_off_then_on_resumes_checkpointed_vms() {
        let mut h = host();
        h.admit(vm(0, WorkloadKind::KMeans)).unwrap();
        h.power_off();
        h.power_on();
        assert_eq!(h.vm(VmId(0)).unwrap().state(), VmState::Paused);
        h.resume_all();
        assert_eq!(h.vm(VmId(0)).unwrap().state(), VmState::Running);
    }

    #[test]
    fn dvfs_reduces_power_and_work() {
        let mut fast = host();
        let mut slow = host();
        fast.admit(vm(0, WorkloadKind::SoftwareTesting)).unwrap();
        slow.admit(vm(0, WorkloadKind::SoftwareTesting)).unwrap();
        slow.set_dvfs(DvfsLevel::P4);
        assert!(slow.power(TimeOfDay::NOON) < fast.power(TimeOfDay::NOON));
        let dt = SimDuration::from_minutes(30);
        let wf = fast.step(TimeOfDay::NOON, dt);
        let ws = slow.step(TimeOfDay::NOON, dt);
        assert!(ws < wf);
    }

    #[test]
    fn completed_jobs_counted_and_reaped() {
        let mut h = host();
        h.admit(vm(0, WorkloadKind::WordCount)).unwrap();
        for _ in 0..12 {
            h.step(TimeOfDay::NOON, SimDuration::from_minutes(10));
        }
        assert_eq!(h.completed_jobs(), 1);
        assert_eq!(h.reap_completed(), 1);
        assert_eq!(h.vms().count(), 0);
    }

    #[test]
    fn completed_vms_free_capacity_without_reaping() {
        let mut h = host();
        h.admit(vm(0, WorkloadKind::SoftwareTesting)).unwrap();
        h.admit(vm(1, WorkloadKind::WordCount)).unwrap();
        // Run WordCount to completion (1 h nominal).
        for _ in 0..12 {
            h.step(TimeOfDay::NOON, SimDuration::from_minutes(10));
        }
        assert!(h.vm(VmId(1)).unwrap().is_completed());
        assert!(h.fits((2, 4)), "completed VM no longer holds resources");
    }
}
