//! The placement rank cache: per-bank aging scores and one sorted node
//! order per ranking mode.
//!
//! The scratch placement path refreshes a [`crate::SystemView`] and
//! re-sorts every node per `placement_order` call. [`FleetView`] serves
//! the policies that declare a [`PlacementSpec`] instead: it keeps each
//! bank's Eq-6 weighted-aging scores (one per demand class) and its
//! lifetime NAT, plus one sorted order per mode, built on the mode's
//! first query.
//!
//! # Invalidation
//!
//! A rank key is `(degraded, weighted score, node)` or `(NAT, node)`.
//! Only two things move one: a battery step (the bank scores) and a
//! degraded flip. The engine calls [`FleetView::invalidate`] at those
//! seams and after pre-aging, which writes aging damage that no key
//! reads today; the next ranked query re-scores every bank and
//! re-sorts each mode it reads. Nothing else (actions, power
//! transitions, fault edges, charger stages) is tracked, because none
//! of it moves a key.
//!
//! # Determinism and bit-identity
//!
//! The ranked orders reproduce the scratch sorts *exactly*:
//!
//! * Scores come from the same calls the scratch path makes
//!   (`AgingMetrics::from_accumulator` on the bank's lifetime telemetry,
//!   then `baat_metrics::weighted_aging` per class), so the cached floats
//!   are bit-identical to freshly computed ones.
//! * Each node's sort key packs `(degraded, score, node)` into one `u128`
//!   using [`ordered_bits`], which maps `f64::total_cmp` order onto
//!   unsigned integer order. Keys are unique (the node id is embedded),
//!   so the sorted keys equal what the scratch *stable* sort produces
//!   over ascending node ids: ties on `(degraded, score)` break by node
//!   index in both.
//! * The cache is engine bookkeeping only: it never writes simulated
//!   state, never draws randomness, and is independent of whether
//!   observation is enabled.
//!
//! See DESIGN.md §10 for the architecture.

use baat_metrics::{class_index, weighted_aging_all, AgingMetrics};
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

/// How a policy's placement order is produced.
///
/// [`PlacementSpec::Custom`] (the trait default) is the
/// recompute-from-scratch reference: each placement pass builds its own
/// [`crate::SystemView`] and calls [`crate::Policy::placement_order`]
/// per VM. Any other variant is a declarative description the engine
/// satisfies from its placement rank cache, bit-identical to the
/// reference, without building views or re-sorting per placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementSpec {
    /// Call [`crate::Policy::placement_order`] per VM over a view the
    /// placement pass builds for itself (the engine's control view is
    /// not touched). Meant for [`crate::ScratchPlacement`], the oracle
    /// the declarative specs are pinned against, and for policies no
    /// spec describes.
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
    /// placing under them never re-scores the fleet.
    pub(crate) fn ranks_fleet(self) -> bool {
        matches!(self, Self::WeightedAging { .. } | Self::LifetimeNat)
    }

    /// The ranking mode a `kind` walk reads under a ranked spec; `None`
    /// for the specs that walk in index order.
    pub(crate) fn mode(self, kind: WorkloadKind) -> Option<usize> {
        match self {
            Self::WeightedAging { server_power } => {
                Some(class_index(demand_class(kind, &server_power)))
            }
            Self::LifetimeNat => Some(NAT_MODE),
            Self::Custom | Self::FirstFit | Self::RoundRobin => None,
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

/// Per-bank placement scores and one lazily sorted order per ranking
/// mode: a cache over the batteries' lifetime telemetry and the
/// engine's degraded flags, which it reads but does not copy.
///
/// Owned by the engine, which calls [`Self::invalidate`] wherever a
/// rank key may move. The next ranked query re-scores every bank and
/// re-sorts the modes it reads. See the module docs for the
/// bit-identity argument.
#[derive(Debug, Clone)]
pub(crate) struct FleetView {
    bank_of: Vec<usize>,
    /// Eq-6 weighted aging per demand class, per bank.
    bank_weighted: Vec<[f64; WEIGHTED_MODES]>,
    /// Lifetime NAT per bank.
    bank_nat: Vec<f64>,
    /// `true` while the bank scores match the batteries.
    scored: bool,
    /// Per mode, the nodes' packed keys in rank order (the node id is
    /// the low 32 bits); empty until the mode's first query.
    ranks: [Vec<u128>; MODES],
    /// `true` while the mode's order matches the scores and flags.
    sorted: [bool; MODES],
    /// Engine-owned round-robin cursor (advances once per placement
    /// attempt, mirroring [`crate::RoundRobinPolicy`]).
    rr_cursor: usize,
}

impl FleetView {
    /// An unscored view over `banks` battery banks, with `bank_of[node]`
    /// the bank that powers each node.
    pub(crate) fn new(banks: usize, bank_of: Vec<usize>) -> Self {
        Self {
            bank_of,
            bank_weighted: vec![[0.0; WEIGHTED_MODES]; banks],
            bank_nat: vec![0.0; banks],
            scored: false,
            ranks: Default::default(),
            sorted: [false; MODES],
            rr_cursor: 0,
        }
    }

    /// Drops the scores and every order: a battery stepped or aged, or
    /// a degraded flag flipped.
    pub(crate) fn invalidate(&mut self) {
        self.scored = false;
        self.sorted = [false; MODES];
    }

    /// `true` while the bank scores are current.
    pub(crate) fn is_scored(&self) -> bool {
        self.scored
    }

    /// Stores every bank's scores from its lifetime aging metrics, in
    /// bank order, stopping at the first error. The weighted values come
    /// from [`weighted_aging_all`], the same `weighted_aging` calls the
    /// scratch path makes per comparison.
    pub(crate) fn rescore<E>(
        &mut self,
        metrics: impl Iterator<Item = Result<AgingMetrics, E>>,
    ) -> Result<(), E> {
        let mut banks = 0;
        for (bank, m) in metrics.enumerate() {
            let m = m?;
            self.bank_weighted[bank] = weighted_aging_all(&m);
            self.bank_nat[bank] = m.nat;
            banks += 1;
        }
        debug_assert_eq!(banks, self.bank_nat.len(), "one score per bank");
        self.scored = true;
        Ok(())
    }

    /// Sorts `mode`'s order if it is stale. Callers rescore first. The
    /// keys are recomputed in their previous rank order, so a sort after
    /// one step of aging starts from a nearly sorted slice.
    pub(crate) fn ensure_sorted(&mut self, mode: usize, degraded: &[bool]) {
        if self.sorted[mode] {
            return;
        }
        debug_assert!(self.scored, "rescore before sorting a mode");
        let keys = &mut self.ranks[mode];
        if keys.is_empty() {
            keys.extend(0..self.bank_of.len() as u128);
        }
        for key in keys.iter_mut() {
            let node = *key as u32 as usize;
            *key = mode_key(
                mode,
                node,
                self.bank_of[node],
                &self.bank_weighted,
                &self.bank_nat,
                degraded,
            );
        }
        keys.sort_unstable();
        self.sorted[mode] = true;
    }

    /// The node at `rank` in `mode`'s current order.
    pub(crate) fn ranked_node(&self, mode: usize, rank: usize) -> usize {
        debug_assert!(self.sorted[mode], "sort the mode before reading it");
        self.ranks[mode][rank] as u32 as usize
    }

    /// Checkpoint view: the raw round-robin cursor.
    pub(crate) fn rr_cursor(&self) -> usize {
        self.rr_cursor
    }

    /// Restores the round-robin cursor from a checkpoint. Everything
    /// else in the view is a lazily rebuilt cache over live state, so an
    /// unscored view plus this cursor resumes bit-identically.
    pub(crate) fn set_rr_cursor(&mut self, cursor: usize) {
        self.rr_cursor = cursor;
    }

    /// The start index the next round-robin placement would use, without
    /// advancing the cursor.
    pub(crate) fn rr_peek(&self) -> usize {
        match self.bank_of.len() {
            0 => 0,
            n => self.rr_cursor % n,
        }
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

    /// Metrics with lifetime NAT `nat` and no discharge history.
    fn metrics(nat: f64) -> AgingMetrics {
        let mut m = AgingMetrics::from_accumulator(
            &baat_battery::UsageAccumulator::default(),
            &baat_metrics::BatteryRatings {
                capacity: baat_units::AmpHours::new(35.0),
                lifetime_throughput: baat_units::AmpHours::new(17_500.0),
            },
        );
        m.nat = nat;
        m
    }

    fn rescore(fleet: &mut FleetView, nats: &[f64]) {
        fleet
            .rescore(nats.iter().map(|&v| Ok::<_, ()>(metrics(v))))
            .expect("scores are infallible");
    }

    fn order(fleet: &mut FleetView, mode: usize, degraded: &[bool]) -> Vec<usize> {
        fleet.ensure_sorted(mode, degraded);
        (0..degraded.len())
            .map(|r| fleet.ranked_node(mode, r))
            .collect()
    }

    /// The reference: a stable sort over ascending node ids by value.
    fn stable_order(values: &[f64]) -> Vec<usize> {
        let mut expect: Vec<usize> = (0..values.len()).collect();
        expect.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        expect
    }

    /// Re-sorting from the previous order gives the stable sort over
    /// fresh scores, for any sequence of score changes.
    #[test]
    fn resorted_keys_match_a_stable_sort() {
        let mut values = vec![0.5, 0.2, 0.9, 0.1, 0.7, 0.3, 0.6, 0.4, 0.2];
        let degraded = vec![false; values.len()];
        let mut fleet = FleetView::new(values.len(), (0..values.len()).collect());
        rescore(&mut fleet, &values);
        assert_eq!(
            order(&mut fleet, NAT_MODE, &degraded),
            stable_order(&values)
        );
        // Deterministic pseudo-random single-node updates.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let node = (state >> 33) as usize % values.len();
            values[node] = ((state >> 11) & 0xF) as f64 / 16.0;
            fleet.invalidate();
            rescore(&mut fleet, &values);
            assert_eq!(
                order(&mut fleet, NAT_MODE, &degraded),
                stable_order(&values)
            );
        }
    }

    /// A mode stays sorted until invalidated: degraded flags are read
    /// when the mode sorts, so a flip shows after the next invalidation.
    #[test]
    fn degraded_flags_are_read_when_the_mode_sorts() {
        let mut fleet = FleetView::new(3, vec![0, 1, 2]);
        rescore(&mut fleet, &[0.0; 3]);
        assert_eq!(order(&mut fleet, 0, &[false; 3]), [0, 1, 2]);
        let flipped = [true, false, false];
        assert_eq!(order(&mut fleet, 0, &flipped), [0, 1, 2], "cached");
        fleet.invalidate();
        assert!(!fleet.is_scored());
        rescore(&mut fleet, &[0.0; 3]);
        assert_eq!(order(&mut fleet, 0, &flipped), [1, 2, 0]);
    }

    #[test]
    fn round_robin_cursor_cycles() {
        let mut fleet = FleetView::new(3, vec![0, 1, 2]);
        assert_eq!(fleet.rr_peek(), 0);
        for (cursor, start) in [(1, 1), (2, 2), (3, 0), (7, 1)] {
            fleet.set_rr_cursor(cursor);
            assert_eq!(fleet.rr_cursor(), cursor);
            assert_eq!(fleet.rr_peek(), start);
        }
    }
}
