//! Incremental fleet state for placement: struct-of-arrays score
//! caches, dirty-node invalidation, and order-stable ranked indices.
//!
//! The legacy placement path refreshes a [`crate::SystemView`] and re-sorts
//! every node per `placement_order` call — O(n log n) with a weighted-
//! aging evaluation per comparison. [`FleetView`] replaces that for
//! policies that declare a [`PlacementSpec`]: per-bank aging scores are
//! cached in contiguous arrays, only nodes *marked dirty* since the last
//! query are re-scored, and each ranking mode maintains a sorted order
//! incrementally — O(dirty · log n) per query instead of O(n log n) per
//! placement.
//!
//! # Determinism and bit-identity
//!
//! The ranked orders reproduce the legacy sorts *exactly*:
//!
//! * Scores come from the same calls the scratch path makes
//!   (`AgingMetrics::from_accumulator` on the bank's lifetime telemetry,
//!   then `baat_metrics::weighted_aging` per class), so the cached floats
//!   are bit-identical to freshly computed ones.
//! * Each node's sort key packs `(degraded, score, node)` into one `u128`
//!   using [`ordered_bits`], which maps `f64::total_cmp` order onto
//!   unsigned integer order. Keys are unique (the node id is embedded),
//!   so the incremental order equals what the legacy *stable* sort
//!   produces over ascending node ids — ties on `(degraded, score)`
//!   break by node index in both.
//! * Dirty marks are engine bookkeeping only: they never read or write
//!   simulated state, never draw randomness, and are independent of
//!   whether observation is enabled.
//!
//! See DESIGN.md §10 for the full architecture and invalidation map.

use baat_metrics::{weighted_aging_all, AgingMetrics};
use baat_server::ServerPowerModel;
use baat_workload::{DemandClass, WorkloadKind};

/// Number of weighted-aging ranking modes (one per Table-3 demand
/// class); mode [`NAT_MODE`] ranks by lifetime NAT alone (BAAT-h).
const WEIGHTED_MODES: usize = 4;
/// The lifetime-NAT ranking mode (no degraded tier, matching BAAT-h's
/// legacy sort).
pub(crate) const NAT_MODE: usize = WEIGHTED_MODES;
/// Total ranking modes a [`FleetView`] can maintain.
const MODES: usize = WEIGHTED_MODES + 1;

/// Dirty-set rebuild threshold: when more than `1/REBUILD_DIVISOR` of
/// the fleet is dirty, a wholesale key re-sort beats per-node repair.
const REBUILD_DIVISOR: usize = 4;

/// How a policy's placement order is produced.
///
/// [`PlacementSpec::Custom`] (the trait default) keeps the legacy path:
/// the engine builds a [`crate::SystemView`] and calls
/// [`crate::Policy::placement_order`]. Any other variant is a
/// declarative description the engine satisfies from its incremental
/// [`FleetView`] — bit-identical to the legacy path, without building
/// views or re-sorting from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementSpec {
    /// Call [`crate::Policy::placement_order`] with a fresh view.
    Custom,
    /// Ascending node index (e-Buff / BAAT-s first-fit).
    FirstFit,
    /// Rotating start index, one step per placement attempt
    /// ([`crate::RoundRobinPolicy`] semantics).
    RoundRobin,
    /// Ascending Eq-6 weighted aging for the workload's demand class,
    /// degraded nodes last, ties by node index (BAAT's Fig-8 order).
    WeightedAging {
        /// The power model the policy classifies workloads against.
        server_power: ServerPowerModel,
    },
    /// Ascending lifetime normalized-Ah-throughput, ties by node index
    /// (BAAT-h's naive aging-hiding order).
    LifetimeNat,
}

impl PlacementSpec {
    /// `true` for the specs that rank nodes by fleet scores. The others
    /// walk the cluster in index order and never read a score, so
    /// placing under them leaves the dirty set for the next ranked
    /// query.
    pub(crate) fn ranks_fleet(self) -> bool {
        matches!(self, Self::WeightedAging { .. } | Self::LifetimeNat)
    }
}

/// Why a node was marked dirty. The per-node reason set is a monotone
/// union over the run — observability for tests and diagnostics; the
/// drainable dirty *list* is what drives re-scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum DirtyReason {
    /// A policy or fallback action touched the node (DVFS, migration
    /// endpoint, SoC-floor change on its bank).
    Action,
    /// A fault targeting the node or its bank was injected or cleared.
    Fault,
    /// The bank's charger switched charge stage.
    ModeSwitch,
    /// The bank's battery integrated a timestep (telemetry advanced).
    Battery,
    /// The node entered or left degraded (stale-telemetry) mode.
    Degraded,
    /// The node powered on or off (window edge, shedding, restart,
    /// host-failure enforcement).
    Power,
}

impl DirtyReason {
    /// Number of reasons.
    pub const COUNT: usize = 6;

    /// All reasons.
    pub const ALL: [DirtyReason; DirtyReason::COUNT] = [
        DirtyReason::Action,
        DirtyReason::Fault,
        DirtyReason::ModeSwitch,
        DirtyReason::Battery,
        DirtyReason::Degraded,
        DirtyReason::Power,
    ];

    /// This reason's bit in a node's dirty-reason mask.
    pub fn bit(self) -> u8 {
        1 << (self as usize)
    }

    /// Stable snake-case name.
    pub fn name(self) -> &'static str {
        match self {
            DirtyReason::Action => "action",
            DirtyReason::Fault => "fault",
            DirtyReason::ModeSwitch => "mode_switch",
            DirtyReason::Battery => "battery",
            DirtyReason::Degraded => "degraded",
            DirtyReason::Power => "power",
        }
    }
}

/// Maps an `f64`'s bits onto a `u64` whose unsigned order equals
/// [`f64::total_cmp`] order (the IEEE-754 total order): flip all bits of
/// negatives, flip only the sign bit of non-negatives.
fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Packs one node's sort key for `mode`. Weighted modes order by
/// `(degraded, score, node)`; the NAT mode by `(score, node)` — exactly
/// the comparator chains of the legacy sorts, with the node id as the
/// unique tiebreak a stable sort over ascending ids would produce.
fn mode_key(
    mode: usize,
    node: usize,
    bank: usize,
    bank_weighted: &[[f64; WEIGHTED_MODES]],
    bank_nat: &[f64],
    degraded: &[bool],
) -> u128 {
    if mode == NAT_MODE {
        ((ordered_bits(bank_nat[bank]) as u128) << 32) | node as u128
    } else {
        ((degraded[node] as u128) << 96)
            | ((ordered_bits(bank_weighted[bank][mode]) as u128) << 32)
            | node as u128
    }
}

/// One bank's placement inputs, scored once per dirty bank per refresh
/// and scattered to the bank's member nodes.
#[derive(Debug, Clone)]
pub(crate) struct BankScore {
    /// Lifetime aging metrics (weighted-aging and NAT keys).
    pub(crate) metrics: AgingMetrics,
    pub(crate) soc: f64,
    /// Floored battery headroom in watts, for the whole bank.
    pub(crate) headroom: f64,
    pub(crate) damage: f64,
}

/// One ranking mode's order, maintained incrementally: `order[r]` is the
/// node at rank `r`, `pos[node]` its rank, `node_key[node]` its packed
/// sort key. Small dirty sets are repaired by binary-searched
/// remove/insert; large ones trigger a wholesale re-sort. Both produce
/// the same (unique-key) order.
#[derive(Debug, Clone)]
struct RankedOrder {
    node_key: Vec<u128>,
    order: Vec<u32>,
    pos: Vec<u32>,
}

impl RankedOrder {
    fn build(node_key: Vec<u128>) -> Self {
        let n = node_key.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| node_key[i as usize]);
        let mut pos = vec![0u32; n];
        for (r, &i) in order.iter().enumerate() {
            pos[i as usize] = r as u32;
        }
        Self {
            node_key,
            order,
            pos,
        }
    }

    /// Re-sorts `order` from `node_key` (caller already updated the
    /// dirty keys in place).
    fn rebuild(&mut self) {
        let keys = &self.node_key;
        self.order.sort_unstable_by_key(|&i| keys[i as usize]);
        for (r, &i) in self.order.iter().enumerate() {
            self.pos[i as usize] = r as u32;
        }
    }

    /// Moves one node to its new key's rank. O(log n) search plus the
    /// memmove between old and new rank.
    fn repair(&mut self, node: u32, new_key: u128) {
        let i = node as usize;
        if self.node_key[i] == new_key {
            return;
        }
        self.node_key[i] = new_key;
        let cur = self.pos[i] as usize;
        self.order.remove(cur);
        let keys = &self.node_key;
        let ins = self
            .order
            .partition_point(|&other| keys[other as usize] < new_key);
        self.order.insert(ins, node);
        let (lo, hi) = (cur.min(ins), cur.max(ins));
        for r in lo..=hi {
            self.pos[self.order[r] as usize] = r as u32;
        }
    }
}

/// Struct-of-arrays fleet state with dirty-node invalidation.
///
/// Owned by the engine; refreshed lazily when a [`PlacementSpec`]-driven
/// placement queries it. See the module docs for the bit-identity
/// argument.
#[derive(Debug, Clone)]
pub struct FleetView {
    nodes: usize,
    bank_of: Vec<usize>,
    /// `1 / members(bank)` — the per-node share of bank-level figures.
    bank_share: Vec<f64>,

    // Contiguous per-node state (scatter of the bank caches plus
    // node-local flags), refreshed for dirty nodes on each query.
    soc: Vec<f64>,
    headroom: Vec<f64>,
    damage: Vec<f64>,
    degraded: Vec<bool>,
    online: Vec<bool>,

    // Per-bank score caches, recomputed once per refresh per dirty bank.
    bank_weighted: Vec<[f64; WEIGHTED_MODES]>,
    bank_nat: Vec<f64>,
    bank_soc: Vec<f64>,
    bank_headroom: Vec<f64>,
    bank_damage: Vec<f64>,

    // Dirty tracking: a drainable deduplicated list plus per-node flag,
    // a monotone per-node reason mask, and per-reason mark counters.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    reasons: Vec<u8>,
    reason_marks: [u64; DirtyReason::COUNT],
    bank_seen: Vec<bool>,
    seen_banks: Vec<u32>,

    /// Lazily built ranked orders, one per mode actually queried.
    ranks: [Option<RankedOrder>; MODES],
    /// Engine-owned round-robin cursor (advances once per placement
    /// attempt, mirroring [`crate::RoundRobinPolicy`]).
    rr_cursor: usize,
}

impl FleetView {
    /// Builds the fleet state for `nodes` nodes over `banks` battery
    /// banks. Every node starts dirty (no reason bits — initial fill is
    /// not a mutation), so the first refresh scores the whole fleet.
    pub(crate) fn new(nodes: usize, banks: usize, bank_of: Vec<usize>) -> Self {
        debug_assert_eq!(bank_of.len(), nodes);
        let mut members = vec![0usize; banks];
        for &b in &bank_of {
            members[b] += 1;
        }
        let bank_share: Vec<f64> = members
            .iter()
            .map(|&m| if m == 0 { 0.0 } else { 1.0 / m as f64 })
            .collect();
        Self {
            nodes,
            bank_of,
            bank_share,
            soc: vec![0.0; nodes],
            headroom: vec![0.0; nodes],
            damage: vec![0.0; nodes],
            degraded: vec![false; nodes],
            online: vec![false; nodes],
            bank_weighted: vec![[0.0; WEIGHTED_MODES]; banks],
            bank_nat: vec![0.0; banks],
            bank_soc: vec![0.0; banks],
            bank_headroom: vec![0.0; banks],
            bank_damage: vec![0.0; banks],
            dirty: (0..nodes as u32).collect(),
            dirty_flag: vec![true; nodes],
            reasons: vec![0; nodes],
            reason_marks: [0; DirtyReason::COUNT],
            bank_seen: vec![false; banks],
            seen_banks: Vec::new(),
            ranks: [None, None, None, None, None],
            rr_cursor: 0,
        }
    }

    /// Marks one node stale. Idempotent on the dirty list; the reason
    /// mask and per-reason counter always record the mark.
    pub(crate) fn mark(&mut self, node: usize, reason: DirtyReason) {
        self.reason_marks[reason as usize] += 1;
        self.reasons[node] |= reason.bit();
        if !self.dirty_flag[node] {
            self.dirty_flag[node] = true;
            self.dirty.push(node as u32);
        }
    }

    /// Marks every node stale (battery steps, window edges, global
    /// faults).
    pub(crate) fn mark_all(&mut self, reason: DirtyReason) {
        for node in 0..self.nodes {
            self.mark(node, reason);
        }
    }

    /// `true` when no node needs re-scoring.
    pub(crate) fn is_clean(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Takes the dirty list for a refresh pass; hand it back through
    /// [`Self::commit_refresh`] so the allocation is reused.
    pub(crate) fn take_dirty(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty)
    }

    /// `true` the first time `bank` is seen in the current refresh pass
    /// — callers recompute the bank's scores exactly once per pass.
    pub(crate) fn bank_needs_refresh(&mut self, bank: usize) -> bool {
        if self.bank_seen[bank] {
            return false;
        }
        self.bank_seen[bank] = true;
        self.seen_banks.push(bank as u32);
        true
    }

    /// Stores bank-level scores from the bank's lifetime metrics. The
    /// weighted values come from [`weighted_aging_all`] — the same
    /// `weighted_aging` calls the scratch path makes per comparison.
    pub(crate) fn update_bank(&mut self, bank: usize, score: &BankScore) {
        self.bank_weighted[bank] = weighted_aging_all(&score.metrics);
        self.bank_nat[bank] = score.metrics.nat;
        self.bank_soc[bank] = score.soc;
        self.bank_headroom[bank] = score.headroom;
        self.bank_damage[bank] = score.damage;
    }

    /// Scatters the node's bank scores plus node-local flags into the
    /// contiguous per-node arrays.
    pub(crate) fn update_node(&mut self, node: usize, degraded: bool, online: bool) {
        let bank = self.bank_of[node];
        self.degraded[node] = degraded;
        self.online[node] = online;
        self.soc[node] = self.bank_soc[bank];
        self.headroom[node] = self.bank_headroom[bank] * self.bank_share[bank];
        self.damage[node] = self.bank_damage[bank];
    }

    /// Folds the refreshed dirty set into every built ranking mode —
    /// per-node repair for small sets, a wholesale key re-sort past the
    /// `n/4` threshold (identical orders either way) — then clears the
    /// dirty flags and returns the list's allocation to the pool.
    pub(crate) fn commit_refresh(&mut self, mut dirty: Vec<u32>) {
        let wholesale = dirty.len() > self.nodes / REBUILD_DIVISOR;
        for mode in 0..MODES {
            let Some(rank) = self.ranks[mode].as_mut() else {
                continue;
            };
            for &node in &dirty {
                let i = node as usize;
                let key = mode_key(
                    mode,
                    i,
                    self.bank_of[i],
                    &self.bank_weighted,
                    &self.bank_nat,
                    &self.degraded,
                );
                if wholesale {
                    rank.node_key[i] = key;
                } else {
                    rank.repair(node, key);
                }
            }
            if wholesale {
                rank.rebuild();
            }
        }
        for &node in &dirty {
            self.dirty_flag[node as usize] = false;
        }
        while let Some(b) = self.seen_banks.pop() {
            self.bank_seen[b as usize] = false;
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// Builds `mode`'s ranked order from the current caches if this is
    /// its first query. Callers must refresh (drain the dirty set)
    /// first, so the caches cover every node.
    pub(crate) fn ensure_mode(&mut self, mode: usize) {
        if self.ranks[mode].is_some() {
            return;
        }
        debug_assert!(self.dirty.is_empty(), "refresh before building a mode");
        let keys: Vec<u128> = (0..self.nodes)
            .map(|i| {
                mode_key(
                    mode,
                    i,
                    self.bank_of[i],
                    &self.bank_weighted,
                    &self.bank_nat,
                    &self.degraded,
                )
            })
            .collect();
        self.ranks[mode] = Some(RankedOrder::build(keys));
    }

    /// The node at `rank` in `mode`'s current order.
    pub(crate) fn ranked_node(&self, mode: usize, rank: usize) -> usize {
        let order = &self.ranks[mode].as_ref().expect("mode built").order;
        order[rank] as usize
    }

    /// Checkpoint view: the raw round-robin cursor.
    pub(crate) fn rr_cursor(&self) -> usize {
        self.rr_cursor
    }

    /// Restores the round-robin cursor from a checkpoint. Everything
    /// else in the view is a lazily rebuilt cache over live state, so a
    /// fresh all-dirty view plus this cursor resumes bit-identically.
    pub(crate) fn set_rr_cursor(&mut self, cursor: usize) {
        self.rr_cursor = cursor;
    }

    /// The start index the next round-robin placement would use, without
    /// advancing the cursor.
    pub(crate) fn rr_peek(&self) -> usize {
        if self.nodes == 0 {
            0
        } else {
            self.rr_cursor % self.nodes
        }
    }

    /// Per-node battery state of charge (refreshed lazily; current as of
    /// the last placement under a ranking spec or the last
    /// [`crate::Simulation::placement_rank`] call).
    pub fn socs(&self) -> &[f64] {
        &self.soc
    }

    /// Per-node battery power headroom above the SoC floor, in watts
    /// (the node's share of its bank's headroom).
    pub fn headrooms(&self) -> &[f64] {
        &self.headroom
    }

    /// Per-node accumulated aging damage (1.0 = end of life).
    pub fn damages(&self) -> &[f64] {
        &self.damage
    }

    /// Per-node degraded (stale-telemetry fallback) flags.
    pub fn degraded_flags(&self) -> &[bool] {
        &self.degraded
    }

    /// Per-node online flags.
    pub fn online_flags(&self) -> &[bool] {
        &self.online
    }

    /// The union of [`DirtyReason`] bits ever recorded for `node`.
    pub fn dirty_reasons(&self, node: usize) -> u8 {
        self.reasons[node]
    }

    /// Total marks recorded for `reason` (every call counts, including
    /// marks on already-dirty nodes).
    pub fn reason_marks(&self, reason: DirtyReason) -> u64 {
        self.reason_marks[reason as usize]
    }

    /// Number of nodes currently awaiting re-scoring.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }
}

/// Classifies a workload against the policy's server power model —
/// the same expression `baat-core`'s `classify_workload` uses, inlined
/// here because the engine cannot depend on `baat-core`.
pub(crate) fn demand_class(kind: WorkloadKind, server_power: &ServerPowerModel) -> DemandClass {
    kind.profile()
        .classify(server_power.idle(), server_power.peak())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_bits_matches_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5e300,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.25,
            1.0,
            1.5e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    ordered_bits(a).cmp(&ordered_bits(b)),
                    a.total_cmp(&b),
                    "a={a}, b={b}"
                );
            }
        }
    }

    fn keys_of(values: &[f64]) -> Vec<u128> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| ((ordered_bits(v) as u128) << 32) | i as u128)
            .collect()
    }

    #[test]
    fn build_matches_stable_sort() {
        let values = [0.3, 0.1, 0.3, 0.0, 0.2, 0.1];
        let rank = RankedOrder::build(keys_of(&values));
        // Reference: stable sort over ascending node ids by value.
        let mut expect: Vec<usize> = (0..values.len()).collect();
        expect.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let got: Vec<usize> = rank.order.iter().map(|&i| i as usize).collect();
        assert_eq!(got, expect);
        for (r, &i) in rank.order.iter().enumerate() {
            assert_eq!(rank.pos[i as usize] as usize, r);
        }
    }

    #[test]
    fn repair_equals_rebuild() {
        let mut values = vec![0.5, 0.2, 0.9, 0.1, 0.7, 0.3, 0.6, 0.4];
        let mut incremental = RankedOrder::build(keys_of(&values));
        // Deterministic pseudo-random single-node updates.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let node = (state >> 33) as usize % values.len();
            let value = ((state >> 11) & 0xFFFF) as f64 / 65536.0;
            values[node] = value;
            incremental.repair(node as u32, keys_of(&values)[node]);
            let scratch = RankedOrder::build(keys_of(&values));
            assert_eq!(incremental.order, scratch.order);
            assert_eq!(incremental.pos, scratch.pos);
        }
    }

    #[test]
    fn marks_dedupe_but_reasons_accumulate() {
        let mut fleet = FleetView::new(4, 4, vec![0, 1, 2, 3]);
        // Drain the construction-time dirt.
        let dirty = fleet.take_dirty();
        fleet.commit_refresh(dirty);
        assert!(fleet.is_clean());

        fleet.mark(2, DirtyReason::Action);
        fleet.mark(2, DirtyReason::Fault);
        fleet.mark(2, DirtyReason::Action);
        assert_eq!(fleet.dirty_len(), 1);
        assert_eq!(
            fleet.dirty_reasons(2),
            DirtyReason::Action.bit() | DirtyReason::Fault.bit()
        );
        assert_eq!(fleet.reason_marks(DirtyReason::Action), 2);
        assert_eq!(fleet.reason_marks(DirtyReason::Fault), 1);
        assert_eq!(fleet.dirty_reasons(0), 0);

        let dirty = fleet.take_dirty();
        assert_eq!(dirty, vec![2]);
        fleet.commit_refresh(dirty);
        assert!(fleet.is_clean());
        // The reason mask survives the refresh (monotone union).
        assert_ne!(fleet.dirty_reasons(2), 0);
    }

    #[test]
    fn round_robin_cursor_cycles() {
        let mut fleet = FleetView::new(3, 3, vec![0, 1, 2]);
        assert_eq!(fleet.rr_peek(), 0);
        for (cursor, start) in [(1, 1), (2, 2), (3, 0), (7, 1)] {
            fleet.set_rr_cursor(cursor);
            assert_eq!(fleet.rr_cursor(), cursor);
            assert_eq!(fleet.rr_peek(), start);
        }
    }

    #[test]
    fn reason_bits_are_distinct() {
        let mut seen = 0u8;
        for r in DirtyReason::ALL {
            assert_eq!(seen & r.bit(), 0, "{} overlaps", r.name());
            seen |= r.bit();
        }
    }
}
