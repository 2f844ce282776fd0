//! Per-stage step profiler.
//!
//! The simulation step is a fixed pipeline (solar → switcher → charger →
//! battery-step → policy-control → placement-rank → placement →
//! cluster-step → recorder). Each stage is
//! timed with an RAII guard: [`Obs::time`] returns a [`StageTimer`]
//! whose `Drop` records the elapsed wall-clock nanoseconds and bumps the
//! call count. When the context is disabled the guard is empty and
//! `Instant::now` is never called, so profiling is free when off.
//!
//! Wall-clock durations are inherently non-deterministic; they are kept
//! out of `SimReport` and out of golden snapshots. Only *call counts*
//! are stable across runs.

use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::registry::Obs;

/// A pipeline stage of one simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Solar-array output computation (weather, clouds, irradiance).
    Solar,
    /// Power-path switcher routing decisions.
    Switcher,
    /// Charger stage/acceptance computation.
    Charger,
    /// Electro-chemical battery integration step.
    BatteryStep,
    /// Policy `control` invocation (the BAAT decision pass).
    PolicyControl,
    /// Placement-order production: the fleet re-scoring behind the
    /// ranked specs, one call per placement pass that re-scores (or,
    /// for custom policies, each `placement_order` call). Never
    /// overlaps [`Stage::Placement`]. A ranked mode re-sorts lazily at
    /// the first admission walk that reads it, inside `Placement`.
    PlacementRank,
    /// A declarative spec's admission walk: one call per placement
    /// pass, an arrivals batch or a pending-queue retry. Order
    /// production is timed as [`Stage::PlacementRank`].
    Placement,
    /// The cluster step: due migrations land, then every host advances
    /// its VMs (skipped outside the operating window, where every host
    /// is off).
    ClusterStep,
    /// Trace-row sampling into the `Recorder`.
    Recorder,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 9;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Solar,
        Stage::Switcher,
        Stage::Charger,
        Stage::BatteryStep,
        Stage::PolicyControl,
        Stage::PlacementRank,
        Stage::Placement,
        Stage::ClusterStep,
        Stage::Recorder,
    ];

    /// Stable snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Solar => "solar",
            Stage::Switcher => "switcher",
            Stage::Charger => "charger",
            Stage::BatteryStep => "battery_step",
            Stage::PolicyControl => "policy_control",
            Stage::PlacementRank => "placement_rank",
            Stage::Placement => "placement",
            Stage::ClusterStep => "cluster_step",
            Stage::Recorder => "recorder",
        }
    }
}

impl Obs {
    /// Starts timing `stage`; the elapsed time is recorded when the
    /// returned guard drops. A disabled context returns an inert guard
    /// without reading the clock.
    ///
    /// # Examples
    ///
    /// ```
    /// use baat_obs::{Obs, Stage};
    ///
    /// let obs = Obs::enabled();
    /// {
    ///     let _t = obs.time(Stage::Solar);
    ///     // ... stage work ...
    /// }
    /// assert_eq!(obs.stage_stats()[0].calls, 1);
    /// ```
    #[inline]
    pub fn time(&self, stage: Stage) -> StageTimer<'_> {
        StageTimer {
            ctx: self.inner.as_deref().map(|inner| (inner, Instant::now())),
            stage,
        }
    }
}

impl Obs {
    /// Starts a boundary clock for timing several consecutive stages
    /// with one clock read per boundary (instead of two per stage, as
    /// [`Obs::time`] does). Hot loops that run stages back-to-back use
    /// this to keep profiling overhead in the noise.
    ///
    /// A disabled context returns an inert clock without reading the
    /// clock.
    ///
    /// # Examples
    ///
    /// ```
    /// use baat_obs::{Obs, Stage};
    ///
    /// let obs = Obs::enabled();
    /// let mut clock = obs.stage_clock();
    /// // ... charger work ...
    /// clock.lap(Stage::Charger);
    /// // ... switcher work ...
    /// clock.lap(Stage::Switcher);
    /// assert_eq!(obs.stage_stats().len(), 2);
    /// ```
    #[inline]
    pub fn stage_clock(&self) -> StageClock<'_> {
        StageClock {
            ctx: self.inner.as_deref().map(|inner| (inner, Instant::now())),
        }
    }
}

/// Boundary clock over consecutive stages; see [`Obs::stage_clock`].
#[derive(Debug)]
pub struct StageClock<'a> {
    ctx: Option<(&'a crate::registry::Inner, Instant)>,
}

impl StageClock<'static> {
    /// A clock that records nothing and never reads the system clock.
    /// Callers that *sample* stage timings hand out an inert clock on
    /// unsampled iterations.
    pub const fn inert() -> Self {
        Self { ctx: None }
    }
}

impl StageClock<'_> {
    /// Records the time since the previous boundary (or since the clock
    /// started) against `stage`, and makes *now* the next boundary.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        if let Some((inner, prev)) = self.ctx.as_mut() {
            let now = Instant::now();
            let elapsed = now.duration_since(*prev).as_nanos() as u64;
            let cell = &inner.stages[stage as usize];
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(elapsed, Ordering::Relaxed);
            *prev = now;
        }
    }

    /// Discards the time since the previous boundary without recording
    /// it — used after work that is timed by other means (e.g. an RAII
    /// [`StageTimer`]) ran between two lapped stages.
    #[inline]
    pub fn skip(&mut self) {
        if let Some((_, prev)) = self.ctx.as_mut() {
            *prev = Instant::now();
        }
    }

    /// `true` when this clock records (enabled context on a sampled
    /// step). Parallel stage passes consult this before measuring
    /// per-shard elapsed time for [`StageClock::add`].
    #[inline]
    pub fn is_active(&self) -> bool {
        self.ctx.is_some()
    }

    /// Records `total_ns` of externally measured time against `stage`
    /// as one call, without moving the boundary. Sharded stage passes
    /// measure each shard's elapsed nanoseconds on its worker, then add
    /// the shard-index-ordered sum here — an order-independent integer
    /// sum, so the aggregate is deterministic in everything but the
    /// wall-clock readings themselves (which are inherently noisy, see
    /// the module docs). The recorded value is CPU time across shards,
    /// not wall time.
    #[inline]
    pub fn add(&mut self, stage: Stage, total_ns: u64) {
        if let Some((inner, _)) = self.ctx.as_ref() {
            let cell = &inner.stages[stage as usize];
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        }
    }
}

/// RAII guard recording one timed stage execution on drop.
#[derive(Debug)]
pub struct StageTimer<'a> {
    ctx: Option<(&'a crate::registry::Inner, Instant)>,
    stage: Stage,
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some((inner, started)) = self.ctx.take() {
            let elapsed = started.elapsed().as_nanos() as u64;
            let cell = &inner.stages[self.stage as usize];
            cell.calls.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        }
    }
}

/// Aggregated statistics for one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Which stage.
    pub stage: Stage,
    /// Times the stage ran.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u64,
}

impl StageStats {
    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }

    /// Serializes the stats as one JSON object line.
    pub fn to_json(&self) -> String {
        let mut line = crate::json::JsonLine::new();
        line.str_field("stage", self.stage.name())
            .u64_field("calls", self.calls)
            .u64_field("total_ns", self.total_ns)
            .u64_field("mean_ns", self.mean_ns());
        line.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_count_calls_per_stage() {
        let obs = Obs::enabled();
        for _ in 0..3 {
            let _t = obs.time(Stage::Solar);
        }
        {
            let _t = obs.time(Stage::Recorder);
        }
        let stats = obs.stage_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].stage, Stage::Solar);
        assert_eq!(stats[0].calls, 3);
        assert_eq!(stats[1].stage, Stage::Recorder);
        assert_eq!(stats[1].calls, 1);
    }

    #[test]
    fn disabled_timer_records_nothing() {
        let obs = Obs::disabled();
        {
            let _t = obs.time(Stage::Charger);
        }
        let mut clock = obs.stage_clock();
        clock.lap(Stage::Switcher);
        assert!(obs.stage_stats().is_empty());
        assert!(obs.profile_jsonl().is_empty());
    }

    #[test]
    fn stage_clock_attributes_consecutive_laps() {
        let obs = Obs::enabled();
        let mut clock = obs.stage_clock();
        clock.lap(Stage::Charger);
        clock.skip();
        clock.lap(Stage::Switcher);
        clock.lap(Stage::BatteryStep);
        let stats = obs.stage_stats();
        assert_eq!(stats.len(), 3);
        for s in stats {
            assert_eq!(s.calls, 1);
        }
    }

    #[test]
    fn inert_stage_clock_is_a_no_op() {
        let obs = Obs::enabled();
        let mut clock = StageClock::inert();
        clock.lap(Stage::Solar);
        clock.skip();
        assert!(obs.stage_stats().is_empty());
    }

    #[test]
    fn profile_jsonl_is_stable_in_shape() {
        let obs = Obs::enabled();
        {
            let _t = obs.time(Stage::BatteryStep);
        }
        let line = obs.profile_jsonl();
        assert!(line.starts_with(r#"{"stage":"battery_step","calls":1,"total_ns":"#));
    }

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        assert_eq!(names, dedup);
        assert_eq!(
            Stage::ALL[Stage::PolicyControl as usize],
            Stage::PolicyControl
        );
    }
}
