//! The conservative fallback scheme for degraded nodes.
//!
//! When a node's telemetry goes stale past the configured bound, the
//! engine cannot trust the policy's battery-aware decisions for it (the
//! policy is reading last-known-good data). The prototype's answer is to
//! fail safe: raise the discharge floor so the battery is preserved, and
//! throttle the server so the unknown battery is asked for as little as
//! possible. [`FallbackScheme`] issues exactly those two actions per
//! degraded node, through the same typed actuation path policies use.
//!
//! The scheme honours the actuation feedback contract: an action the
//! engine rejected on one control interval is **never re-issued on the
//! next** — it may be retried one interval later, matching how the
//! prototype's controller backs off from failed Xen commands.

use baat_server::DvfsLevel;
use baat_units::Soc;

use crate::policy::{Action, ActionOutcome};

/// The SoC floor forced on a degraded node: half charge preserves the
/// battery through a sensing blackout of several hours.
pub const FALLBACK_SOC_FLOOR: f64 = 0.5;

/// The DVFS level forced on a degraded node: the deepest throttle.
pub const FALLBACK_DVFS: DvfsLevel = DvfsLevel::P4;

/// Per-node state the fallback scheme needs to decide its actions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackInput {
    /// Node index.
    pub node: usize,
    /// `true` if the node is currently degraded.
    pub degraded: bool,
    /// The node's SoC floor currently in force.
    pub soc_floor: Soc,
    /// The node's current DVFS level.
    pub dvfs: DvfsLevel,
}

/// Issues conservative actions for degraded nodes, never repeating an
/// action rejected on the immediately preceding interval.
#[derive(Debug, Clone, Default)]
pub struct FallbackScheme {
    rejected_last: Vec<Action>,
}

impl FallbackScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans this interval's fallback actions from the per-node state:
    /// for every degraded node whose floor is below
    /// [`FALLBACK_SOC_FLOOR`] or whose DVFS is above [`FALLBACK_DVFS`],
    /// the corrective action — minus anything rejected last interval.
    pub fn plan(&self, nodes: impl IntoIterator<Item = FallbackInput>) -> Vec<Action> {
        let mut actions = Vec::new();
        for n in nodes {
            if !n.degraded {
                continue;
            }
            if n.soc_floor.value() < FALLBACK_SOC_FLOOR {
                actions.push(Action::SetSocFloor {
                    node: n.node,
                    floor: Soc::saturating(FALLBACK_SOC_FLOOR),
                });
            }
            if n.dvfs != FALLBACK_DVFS {
                actions.push(Action::SetDvfs {
                    node: n.node,
                    level: FALLBACK_DVFS,
                });
            }
        }
        actions
            .into_iter()
            .filter(|a| !self.rejected_last.contains(a))
            .collect()
    }

    /// Records this interval's outcomes; the rejected actions are
    /// excluded from the next [`FallbackScheme::plan`] call.
    pub fn record_outcomes(&mut self, outcomes: &[ActionOutcome]) {
        self.rejected_last = outcomes
            .iter()
            .filter(|o| o.is_rejected())
            .map(|o| o.action)
            .collect();
    }

    /// Checkpoint view: the actions rejected on the last interval.
    pub fn rejected_last(&self) -> &[Action] {
        &self.rejected_last
    }

    /// Rebuilds the scheme at a saved position (see
    /// [`FallbackScheme::rejected_last`]).
    pub fn restore(rejected_last: Vec<Action>) -> Self {
        Self { rejected_last }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ActionResult, RejectReason};

    fn degraded(node: usize) -> FallbackInput {
        FallbackInput {
            node,
            degraded: true,
            soc_floor: Soc::EMPTY,
            dvfs: DvfsLevel::P0,
        }
    }

    #[test]
    fn healthy_nodes_get_no_actions() {
        let scheme = FallbackScheme::new();
        let input = [FallbackInput {
            node: 0,
            degraded: false,
            soc_floor: Soc::EMPTY,
            dvfs: DvfsLevel::P0,
        }];
        assert!(scheme.plan(input).is_empty());
    }

    #[test]
    fn degraded_node_gets_floor_and_throttle_once() {
        let scheme = FallbackScheme::new();
        let actions = scheme.plan([degraded(2)]);
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            Action::SetSocFloor { node: 2, floor } if floor.value() == FALLBACK_SOC_FLOOR
        ));
        assert!(matches!(
            actions[1],
            Action::SetDvfs { node: 2, level } if level == FALLBACK_DVFS
        ));
        // Once the state is conservative, nothing more is issued.
        let settled = [FallbackInput {
            node: 2,
            degraded: true,
            soc_floor: Soc::saturating(FALLBACK_SOC_FLOOR),
            dvfs: FALLBACK_DVFS,
        }];
        assert!(scheme.plan(settled).is_empty());
    }

    #[test]
    fn rejected_action_is_not_reissued_next_interval() {
        let mut scheme = FallbackScheme::new();
        let first = scheme.plan([degraded(1)]);
        assert_eq!(first.len(), 2);
        // The engine rejects the floor action (say the node vanished).
        scheme.record_outcomes(&[
            ActionOutcome {
                action: first[0],
                result: ActionResult::Rejected(RejectReason::UnknownNode),
            },
            ActionOutcome {
                action: first[1],
                result: ActionResult::Applied,
            },
        ]);
        let second = scheme.plan([degraded(1)]);
        assert!(
            !second.contains(&first[0]),
            "a just-rejected action must not repeat"
        );
        // With no fresh rejection recorded, the interval after may retry.
        scheme.record_outcomes(&[]);
        let third = scheme.plan([degraded(1)]);
        assert!(third.contains(&first[0]));
    }
}
