//! Shared decision helpers for the Table-4 policies.

use baat_metrics::{class_index, weighted_aging};
use baat_server::ServerPowerModel;
use baat_sim::{NodeView, SystemView, VmView};
use baat_workload::{DemandClass, VmState, WorkloadKind};

/// Classifies a workload's Table-3 demand class on the configured server
/// class (paper §IV.B.2.a: power profiling).
pub fn classify_workload(kind: WorkloadKind, server: &ServerPowerModel) -> DemandClass {
    kind.profile().classify(server.idle(), server.peak())
}

/// The Eq-6 weighted aging of one node for a prospective demand class,
/// computed over lifetime metrics.
pub fn node_weighted_aging(node: &NodeView, class: DemandClass) -> f64 {
    weighted_aging(&node.lifetime_metrics, class)
}

/// One demand class's Fig 8 ranking of a view: `(node, Eq-6 score)` by
/// ascending weighted aging, degraded nodes last, ties by node index.
#[derive(Debug, Clone, Default)]
pub(crate) struct AgingRank(Vec<(usize, f64)>);

impl AgingRank {
    /// `view` ranked for `class`, in a buffer of its own.
    pub(crate) fn of(view: &SystemView, class: DemandClass) -> Self {
        let mut rank = Self::default();
        rank.rank(view, class);
        rank
    }

    /// Scores every node once, then sorts by `(degraded, score, node)`,
    /// in this rank's buffer. Degraded nodes (stale telemetry — their
    /// metrics are last-known-good, not current) sort after every
    /// healthy node regardless of apparent aging.
    fn rank(&mut self, view: &SystemView, class: DemandClass) {
        let ranked = &mut self.0;
        ranked.clear();
        ranked.extend(
            view.nodes
                .iter()
                .map(|n| (n.node, node_weighted_aging(n, class))),
        );
        ranked.sort_unstable_by(|&(a, wa), &(b, wb)| {
            view.nodes[a]
                .degraded
                .cmp(&view.nodes[b].degraded)
                .then(wa.total_cmp(&wb))
                .then(a.cmp(&b))
        });
    }

    /// The ranked nodes, best placement target first.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().map(|&(node, _)| node)
    }

    /// The first- and last-ranked `(node, score)`; `None` for no nodes.
    pub(crate) fn ends(&self) -> Option<((usize, f64), (usize, f64))> {
        Some((*self.0.first()?, *self.0.last()?))
    }
}

/// Orders all nodes by ascending Eq-6 weighted aging (the Fig 8 placement
/// rank): least-aged battery first, degraded nodes last.
pub fn rank_by_weighted_aging(view: &SystemView, class: DemandClass) -> Vec<usize> {
    AgingRank::of(view, class).nodes().collect()
}

/// The Fig 8 rankings of one immutable [`SystemView`], built lazily and
/// at most once per demand class. A control call holds one of these so
/// every migration-target search and the balance pass share one sort per
/// class instead of re-sorting the fleet per triggered node. The ranks
/// are built into buffers the caller keeps from call to call.
#[derive(Debug)]
pub(crate) struct ClassRanks<'v> {
    view: &'v SystemView,
    ranks: &'v mut [AgingRank; 4],
    /// Whether `ranks[class]` ranks this view yet.
    ranked: [bool; 4],
    /// Migration-target searches, per class and workload kind.
    targets: [[Option<TargetSearch>; WorkloadKind::ALL.len()]; 4],
}

/// The minimum target SoC (as bits) a search ran with, and the first
/// two qualifying nodes it found in rank order.
type TargetSearch = (u64, [Option<usize>; 2]);

impl<'v> ClassRanks<'v> {
    /// An empty cache over `view`, ranking into `ranks`.
    pub(crate) fn new(view: &'v SystemView, ranks: &'v mut [AgingRank; 4]) -> Self {
        Self {
            view,
            ranks,
            ranked: [false; 4],
            targets: Default::default(),
        }
    }

    /// The ranking for `class`, computed on first use.
    pub(crate) fn get(&mut self, class: DemandClass) -> &AgingRank {
        let i = class_index(class);
        if !std::mem::replace(&mut self.ranked[i], true) {
            self.ranks[i].rank(self.view, class);
        }
        &self.ranks[i]
    }

    /// [`best_migration_target`] over `class`'s ranking. The first two
    /// qualifying nodes are found once per class and workload kind; the
    /// source can be only one of them, so the answer is the first one
    /// unless that is the source.
    pub(crate) fn migration_target(
        &mut self,
        class: DemandClass,
        source: usize,
        kind: WorkloadKind,
        min_target_soc: f64,
    ) -> Option<usize> {
        let soc_bits = min_target_soc.to_bits();
        let [first, second] = match self.targets[class_index(class)][kind as usize] {
            Some((bits, firsts)) if bits == soc_bits => firsts,
            _ => {
                let view = self.view;
                let request = kind.resource_request();
                let firsts = {
                    let mut fit = self
                        .get(class)
                        .nodes()
                        .filter(|&n| can_host(&view.nodes[n], request, min_target_soc));
                    [fit.next(), fit.next()]
                };
                self.targets[class_index(class)][kind as usize] = Some((soc_bits, firsts));
                firsts
            }
        };
        if first == Some(source) {
            second
        } else {
            first
        }
    }
}

/// Picks the best migration target for a VM currently on `source`: the
/// first node in `ranked` (a [`rank_by_weighted_aging`] order for the
/// VM's demand class) that is online, not degraded, has the resources,
/// and has a comfortably charged battery. Returns `None` when no node
/// qualifies (the Fig 9 "VM cannot be migrated due to resource
/// constraints" branch).
pub fn best_migration_target(
    view: &SystemView,
    ranked: impl IntoIterator<Item = usize>,
    source: usize,
    kind: WorkloadKind,
    min_target_soc: f64,
) -> Option<usize> {
    let request = kind.resource_request();
    ranked.into_iter().find(|&candidate| {
        candidate != source && can_host(&view.nodes[candidate], request, min_target_soc)
    })
}

/// Whether `node` can take a migrated VM asking for `request`: online,
/// not degraded, charged to at least `min_target_soc`, with the room.
fn can_host(node: &NodeView, request: (u32, u32), min_target_soc: f64) -> bool {
    node.online
        && !node.degraded
        && node.soc.value() >= min_target_soc
        && node.free_resources.0 >= request.0
        && node.free_resources.1 >= request.1
}

/// Selects the most demanding movable (running, non-service) VM on a
/// node — the one whose departure sheds the most battery load.
pub fn heaviest_movable_vm(node: &NodeView) -> Option<&VmView> {
    node.vms
        .iter()
        .filter(|vm| vm.state == VmState::Running && !vm.kind.is_service())
        .max_by(|a, b| {
            let (ac, _) = a.kind.resource_request();
            let (bc, _) = b.kind.resource_request();
            let au = a.kind.profile().mean_utilization().value() * f64::from(ac);
            let bu = b.kind.profile().mean_utilization().value() * f64::from(bc);
            au.total_cmp(&bu)
        })
}

/// Test scaffolding shared by the policy unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use baat_battery::UsageAccumulator;
    use baat_metrics::{AgingMetrics, BatteryRatings};
    use baat_server::DvfsLevel;
    use baat_sim::{NodeView, SystemView};
    use baat_solar::Weather;
    use baat_units::{
        AmpHours, Amperes, Fraction, SimDuration, SimInstant, Soc, TimeOfDay, Volts, WattHours,
        Watts,
    };

    pub(crate) fn ratings() -> BatteryRatings {
        BatteryRatings {
            capacity: AmpHours::new(35.0),
            lifetime_throughput: AmpHours::new(17_500.0),
        }
    }

    /// Builds metrics with the given discharged Ah at the given SoC band.
    pub(crate) fn metrics(discharged_ah: f64, at_soc: f64) -> AgingMetrics {
        let mut acc = UsageAccumulator::default();
        if discharged_ah > 0.0 {
            let dt = SimDuration::from_hours(1);
            acc.record(
                Soc::new(at_soc).unwrap(),
                Amperes::new(discharged_ah),
                Amperes::new(discharged_ah) * dt,
                AmpHours::ZERO,
                Volts::new(12.0) * Amperes::new(discharged_ah) * dt,
                WattHours::ZERO,
                dt,
            );
        }
        AgingMetrics::from_accumulator(&acc, &ratings())
    }

    pub(crate) fn node(i: usize, m: AgingMetrics, soc: f64, free: (u32, u32)) -> NodeView {
        NodeView {
            node: i,
            soc: Soc::new(soc).unwrap(),
            window_metrics: m,
            lifetime_metrics: m,
            damage: 0.0,
            capacity_fraction: 1.0,
            server_power: Watts::new(100.0),
            utilization: Fraction::HALF,
            dvfs: DvfsLevel::P0,
            online: true,
            degraded: false,
            free_resources: free,
            vms: Vec::new(),
            battery_available: Watts::new(300.0),
            battery_capacity_wh: 840.0,
            battery_capacity_ah: 70.0,
            battery_lifetime_throughput_ah: 35_000.0,
            soc_floor: Soc::EMPTY,
        }
    }

    /// A healthy idle node at the given SoC.
    pub(crate) fn plain_node(i: usize, soc: f64) -> NodeView {
        node(i, metrics(0.0, 0.9), soc, (8, 16))
    }

    pub(crate) fn view_of(nodes: Vec<NodeView>) -> SystemView {
        SystemView {
            now: SimInstant::START,
            tod: TimeOfDay::NOON,
            weather: Weather::Sunny,
            solar: Watts::new(500.0),
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{metrics, node, view_of as view};
    use super::*;
    use baat_server::ServerPowerModel;
    use baat_workload::{EnergyDemand, PowerDemand, VmId};

    fn class() -> DemandClass {
        DemandClass {
            power: PowerDemand::Large,
            energy: EnergyDemand::More,
        }
    }

    #[test]
    fn software_testing_classifies_large_more() {
        let c = classify_workload(
            WorkloadKind::SoftwareTesting,
            &ServerPowerModel::prototype(),
        );
        assert_eq!(c.power, PowerDemand::Large);
        assert_eq!(c.energy, EnergyDemand::More);
    }

    #[test]
    fn wordcount_is_not_energy_hungry() {
        let c = classify_workload(WorkloadKind::WordCount, &ServerPowerModel::prototype());
        assert_eq!(c.energy, EnergyDemand::Less);
    }

    #[test]
    fn ranking_prefers_least_used_battery() {
        let v = view(vec![
            node(0, metrics(200.0, 0.3), 0.9, (8, 16)),
            node(1, metrics(10.0, 0.9), 0.9, (8, 16)),
            node(2, metrics(100.0, 0.5), 0.9, (8, 16)),
        ]);
        assert_eq!(rank_by_weighted_aging(&v, class()), vec![1, 2, 0]);
    }

    #[test]
    fn migration_target_skips_source_and_unfit_nodes() {
        let v = view(vec![
            node(0, metrics(200.0, 0.2), 0.2, (8, 16)), // source, stressed
            node(1, metrics(5.0, 0.9), 0.9, (1, 2)),    // best battery, no room
            node(2, metrics(50.0, 0.8), 0.8, (8, 16)),  // viable
        ]);
        let ranked = rank_by_weighted_aging(&v, class());
        let target = best_migration_target(&v, ranked, 0, WorkloadKind::KMeans, 0.6).unwrap();
        assert_eq!(target, 2);
    }

    #[test]
    fn migration_target_requires_charged_battery() {
        let v = view(vec![
            node(0, metrics(200.0, 0.2), 0.2, (8, 16)),
            node(1, metrics(5.0, 0.9), 0.3, (8, 16)), // too discharged
        ]);
        let ranked = rank_by_weighted_aging(&v, class());
        assert_eq!(
            best_migration_target(&v, ranked, 0, WorkloadKind::KMeans, 0.6),
            None
        );
    }

    /// Seeded random views — degraded, offline, low-SoC and full nodes,
    /// with shared metric templates for score ties — and every source,
    /// kind and class: the memoized search answers exactly what a fresh
    /// [`best_migration_target`] scan of the class ranking does.
    #[test]
    fn memoized_migration_targets_match_the_scan() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let classes: Vec<DemandClass> = [PowerDemand::Small, PowerDemand::Large]
            .into_iter()
            .flat_map(|power| {
                [EnergyDemand::Less, EnergyDemand::More].map(|energy| DemandClass { power, energy })
            })
            .collect();
        let templates = [metrics(0.0, 0.9), metrics(30.0, 0.5), metrics(120.0, 0.2)];
        for _ in 0..300 {
            let n = 1 + (next() % 12) as usize;
            let nodes = (0..n)
                .map(|i| {
                    let m = templates[(next() % 3) as usize];
                    let soc = [0.1, 0.5, 0.59, 0.6, 0.95][(next() % 5) as usize];
                    let free = [(0, 0), (1, 2), (2, 4), (8, 16)][(next() % 4) as usize];
                    let mut node = node(i, m, soc, free);
                    node.online = next() % 6 != 0;
                    node.degraded = next() % 6 == 0;
                    node
                })
                .collect();
            let v = view(nodes);
            let mut buffers = Default::default();
            let mut ranks = ClassRanks::new(&v, &mut buffers);
            for _ in 0..40 {
                let class = classes[(next() % 4) as usize];
                let kind = WorkloadKind::ALL[(next() % WorkloadKind::ALL.len() as u64) as usize];
                let source = (next() % n as u64) as usize;
                let min_soc = [0.0, 0.6][(next() % 2) as usize];
                let ranked = rank_by_weighted_aging(&v, class);
                assert_eq!(
                    ranks.migration_target(class, source, kind, min_soc),
                    best_migration_target(&v, ranked, source, kind, min_soc),
                    "{n} nodes, source {source}, {kind:?}, {class:?}, min SoC {min_soc}"
                );
            }
        }
    }

    #[test]
    fn heaviest_movable_vm_skips_services() {
        let mut n = node(0, metrics(0.0, 0.9), 0.9, (0, 0));
        n.vms = vec![
            VmView {
                id: VmId(1),
                kind: WorkloadKind::WebServing,
                state: VmState::Running,
                progress: 0.2,
            },
            VmView {
                id: VmId(2),
                kind: WorkloadKind::WordCount,
                state: VmState::Running,
                progress: 0.1,
            },
            VmView {
                id: VmId(3),
                kind: WorkloadKind::SoftwareTesting,
                state: VmState::Paused,
                progress: 0.5,
            },
        ];
        let vm = heaviest_movable_vm(&n).unwrap();
        assert_eq!(vm.id, VmId(2), "services and paused VMs are not movable");
    }

    #[test]
    fn no_movable_vm_on_empty_node() {
        let n = node(0, metrics(0.0, 0.9), 0.9, (8, 16));
        assert!(heaviest_movable_vm(&n).is_none());
    }
}
