//! Property-based tests for the hypervisor and cluster.

use baat_server::{
    Cluster, DvfsLevel, Host, MigrationSpec, ServerCapacity, ServerId, ServerPowerModel,
};
use baat_testkit::prelude::*;
use baat_units::{Fraction, SimDuration, SimInstant, TimeOfDay};
use baat_workload::{Vm, VmId, WorkloadKind};

fn kind_strategy() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        Just(WorkloadKind::NutchIndexing),
        Just(WorkloadKind::KMeans),
        Just(WorkloadKind::WordCount),
        Just(WorkloadKind::SoftwareTesting),
        Just(WorkloadKind::WebServing),
        Just(WorkloadKind::DataAnalytics),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Admission never over-commits CPU or memory.
    #[test]
    fn admission_respects_capacity(kinds in baat_testkit::collection::vec(kind_strategy(), 1..20)) {
        let mut host = Host::new(
            ServerId(0),
            ServerPowerModel::prototype(),
            ServerCapacity::default(),
        );
        for (i, kind) in kinds.into_iter().enumerate() {
            let _ = host.admit(Vm::new(VmId(i as u64), kind));
            let (used_c, used_m) = host.used_resources();
            prop_assert!(used_c <= host.capacity().cores);
            prop_assert!(used_m <= host.capacity().memory_gb);
        }
    }

    /// Utilization and power are bounded for any VM mix and DVFS level.
    #[test]
    fn power_bounded(
        kinds in baat_testkit::collection::vec(kind_strategy(), 0..6),
        level in 0usize..5,
        hour in 0u32..24,
    ) {
        let mut host = Host::new(
            ServerId(0),
            ServerPowerModel::prototype(),
            ServerCapacity::default(),
        );
        for (i, kind) in kinds.into_iter().enumerate() {
            let _ = host.admit(Vm::new(VmId(i as u64), kind));
        }
        host.set_dvfs(DvfsLevel::ALL[level]);
        let tod = TimeOfDay::from_hm(hour, 0);
        let u = host.utilization(tod);
        prop_assert!(u <= Fraction::ONE);
        let p = host.power(tod);
        prop_assert!(p >= host.power_model().idle());
        prop_assert!(p <= host.power_model().peak());
    }

    /// Migration preserves the VM: it is on exactly one host (or in
    /// flight) at all times, and arrives eventually.
    #[test]
    fn migration_conserves_vms(kind in kind_strategy(), target in 1usize..6) {
        let mut cluster = Cluster::homogeneous(
            6,
            ServerPowerModel::prototype(),
            ServerCapacity::default(),
            MigrationSpec::default(),
        ).expect("cluster builds");
        cluster.host_mut(0).expect("host 0").admit(Vm::new(VmId(9), kind)).expect("fits");
        let t0 = SimInstant::START;
        cluster.begin_migration(VmId(9), ServerId(target), t0).expect("migration starts");
        // While in flight it is nowhere.
        prop_assert_eq!(cluster.locate(VmId(9)), None);
        prop_assert_eq!(cluster.migrations_in_flight(), 1);
        // Step far enough for any memory size to transfer.
        let dt = SimDuration::from_minutes(1);
        let mut now = t0;
        for _ in 0..60 {
            now += dt;
            cluster.step(now, TimeOfDay::NOON, dt, |_| {});
        }
        prop_assert_eq!(cluster.locate(VmId(9)), Some(ServerId(target)));
        prop_assert_eq!(cluster.migrations_in_flight(), 0);
    }

    /// Work done by a host is monotone over time and zero while offline.
    #[test]
    fn work_monotone(kind in kind_strategy(), steps in 1usize..50) {
        let mut host = Host::new(
            ServerId(0),
            ServerPowerModel::prototype(),
            ServerCapacity::default(),
        );
        host.admit(Vm::new(VmId(0), kind)).expect("fits");
        let mut last = 0.0;
        for i in 0..steps {
            if i == steps / 2 {
                host.power_off();
            }
            let before = host.work_done();
            host.step(TimeOfDay::NOON, SimDuration::from_minutes(5));
            prop_assert!(host.work_done() >= before);
            prop_assert!(host.work_done() >= last);
            last = host.work_done();
        }
    }
}
