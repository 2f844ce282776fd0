//! The discrete-time green-datacenter simulation engine.
//!
//! Wires the substrates together the way the prototype's hardware is
//! wired (paper Fig 11): a PV array feeds a per-node power switcher;
//! each server has its own battery, charger and sensor; the BAAT
//! controller (a [`Policy`]) observes the power tables every control
//! interval and actuates DVFS, VM migration and discharge floors.
//!
//! Every policy [`Action`] is processed through the typed actuation
//! path: the engine produces an [`ActionOutcome`] (applied, or rejected
//! with a [`crate::RejectReason`]), appends it to the event log, and
//! hands the previous interval's outcomes back to the policy through
//! [`ControlCtx`]. Invariant violations (bad config, substrate
//! failures) surface as [`SimError`] instead of panicking.
//!
//! When built with [`Simulation::with_obs`], the engine also records
//! per-stage wall-clock timings and domain counters (actions applied and
//! rejected, shutdowns, restarts, migrations, energy totals) into the
//! [`Obs`] registry. Observation is free when disabled and never feeds
//! back into simulated state, so seeded runs are bit-identical with it
//! on or off.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use baat_battery::{
    AgingBreakdown, AgingObs, AnyBattery, BatteryModel, BatteryOp, BatteryPack, SensorSample,
    TelemetryLog,
};
use baat_exec::ExecPool;
use baat_faults::{FaultInjector, FaultKind, FaultPlan};
use baat_metrics::{class_index, AgingMetrics, BatteryRatings};
use baat_obs::{
    Counter, FlightRecorder, Gauge, HealthConfig, HealthMonitor, Histogram, NodeHealthSample, Obs,
    SpanId, Stage, StageClock, Tracer,
};
use baat_power::{
    BatterySensor, Charger, Journal, PowerSwitcher, PowerTable, ServerPowerRecord, StageTracker,
};
use baat_server::{Cluster, ServerId};
use baat_solar::{ClearSky, CloudProcess, PvArray, Weather};
use baat_units::{
    Amperes, Celsius, Fraction, SimDuration, SimInstant, Soc, TimeOfDay, Volts, WattHours, Watts,
};
use baat_workload::{Arrival, Vm, WorkloadGenerator, WorkloadKind};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::events::{Event, EventLog, TimedEvent};
use crate::fallback::{FallbackInput, FallbackScheme};
use crate::fleet::{demand_class, BankScore, DirtyReason, FleetView, PlacementSpec, NAT_MODE};
use crate::pending::PendingQueue;
use crate::policy::{Action, ActionOutcome, ActionResult, ControlCtx, Policy, RejectReason};
use crate::recorder::{Recorder, TraceRow};
use crate::report::{NodeReport, SimReport};
use crate::snapshot::{
    config_hash, PolicyState, SimSnapshot, SimState, SnapshotError, SNAPSHOT_VERSION,
};
use crate::view::{NodeView, SystemView, VmView};

/// Per-step stage timings are sampled: one step in this many is timed.
/// The per-step stages (solar, charger, switcher, battery, placement of
/// arrivals) run tens of thousands of times per simulated day at
/// microsecond granularity, so sampling keeps profiler overhead in the
/// noise while the recorded means stay representative. Control-interval
/// and recorder stages are rare and always timed; counters are exact
/// regardless.
const PROFILE_SAMPLE_STEPS: u64 = 8;

/// Consecutive unserved-demand steps before a node checkpoints and shuts
/// down.
const SHUTDOWN_STREAK: u32 = 3;
/// Minimum offline dwell before a restart attempt.
const RESTART_DWELL: SimDuration = SimDuration::from_minutes(5);
/// SoC margin above the floor required to restart a node on battery: the
/// battery must have recovered meaningfully, or the node flaps.
const RESTART_SOC_MARGIN: f64 = 0.45;

/// Lines the flight recorder's ring retains (recent telemetry rows,
/// events and health transitions preceding a post-mortem trigger).
const FLIGHT_RING_CAP: usize = 256;

/// Minimum fleet size before a configured pool shards the system-view
/// build; below this the per-batch dispatch overhead outweighs the
/// per-node scoring work.
const PAR_VIEW_MIN_NODES: usize = 128;

/// Minimum dirty-node count before a configured pool shards the fleet
/// refresh's bank scoring.
const PAR_REFRESH_MIN_NODES: usize = 64;

/// Splits `0..total` into at most `parts` contiguous, balanced ranges
/// (sizes differ by at most one; empty input yields no ranges). Shard
/// results are merged back in range order, which is why determinism
/// never depends on which worker ran which range.
fn shard_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, total.max(1));
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Engine-level metric handles, all inert when observation is disabled.
#[derive(Debug, Clone)]
struct EngineCounters {
    actions_applied: Counter,
    actions_rejected: Counter,
    shutdowns: Counter,
    restarts: Counter,
    migrations_started: Counter,
    placements_failed: Counter,
    battery_cutoffs: Counter,
    control_intervals: Counter,
    actions_per_interval: Histogram,
    unserved_wh: baat_obs::Gauge,
    curtailed_wh: baat_obs::Gauge,
    grid_charge_wh: baat_obs::Gauge,
}

impl EngineCounters {
    fn new(obs: &Obs) -> Self {
        Self {
            actions_applied: obs.counter("sim.actions.applied"),
            actions_rejected: obs.counter("sim.actions.rejected"),
            shutdowns: obs.counter("sim.server.shutdowns"),
            restarts: obs.counter("sim.server.restarts"),
            migrations_started: obs.counter("sim.migrations.started"),
            placements_failed: obs.counter("sim.placement.failures"),
            battery_cutoffs: obs.counter("sim.battery.cutoffs"),
            control_intervals: obs.counter("sim.control.intervals"),
            actions_per_interval: obs.histogram("sim.control.actions_per_interval"),
            unserved_wh: obs.gauge("sim.energy.unserved_wh"),
            curtailed_wh: obs.gauge("sim.energy.curtailed_wh"),
            grid_charge_wh: obs.gauge("sim.energy.grid_charge_wh"),
        }
    }
}

/// Fault-subsystem metric handles. Registered only when the configured
/// fault plan schedules something, so fault-free runs leave the metrics
/// registry (and its JSONL export) exactly as before.
#[derive(Debug, Clone)]
struct FaultCounters {
    injected: Counter,
    cleared: Counter,
    active: Gauge,
    degraded_nodes: Gauge,
    degraded_intervals: Counter,
    fallback_actions: Counter,
}

impl FaultCounters {
    fn new(obs: &Obs) -> Self {
        Self {
            injected: obs.counter("faults.injected"),
            cleared: obs.counter("faults.cleared"),
            active: obs.gauge("faults.active"),
            degraded_nodes: obs.gauge("sim.degraded.nodes"),
            degraded_intervals: obs.counter("sim.degraded.intervals"),
            fallback_actions: obs.counter("sim.fallback.actions"),
        }
    }

    const fn inert() -> Self {
        Self {
            injected: Counter::disabled(),
            cleared: Counter::disabled(),
            active: Gauge::disabled(),
            degraded_nodes: Gauge::disabled(),
            degraded_intervals: Counter::disabled(),
            fallback_actions: Counter::disabled(),
        }
    }
}

/// Parallel-execution metric handles: the `exec.*` family. Registered
/// only when the engine has *both* a worker pool and an enabled obs
/// context, so sequential runs and disabled-obs runs leave the metric
/// registry (and its exports) untouched — at `threads=1` the OpenMetrics
/// golden stays byte-identical. All handles are interior-mutable, so
/// hot-path updates are relaxed atomic ops with zero allocation; the
/// per-shard/per-thread vectors are sized once at construction.
///
/// The registry encodes indices into metric names (it has no label
/// support): `exec.worker.3.busy_ns` rather than
/// `exec_worker_busy_ns{worker="3"}`.
#[derive(Debug, Clone)]
struct ExecObs {
    /// Pool-level gauges, refreshed at the trace cadence from
    /// [`ExecPool::stats`].
    pool_threads: Gauge,
    pool_batches: Gauge,
    pool_wall_ns: Gauge,
    pool_merge_wait_ns: Gauge,
    /// Per-thread gauges (index 0 = the stepping thread itself).
    worker_busy_ns: Vec<Gauge>,
    worker_idle_ns: Vec<Gauge>,
    worker_tasks: Vec<Gauge>,
    /// Cumulative caller merge wait attributed per sharded stage: how
    /// long the step loop idled behind the slowest worker after its own
    /// task share drained. Exact (never sampled).
    merge_wait_battery_step: Counter,
    merge_wait_fleet_refresh: Counter,
    merge_wait_view: Counter,
    /// Cumulative per-shard busy ns for the routing pass, recorded on
    /// profile-sampled steps only (same cadence as the stage profiler).
    shard_step_ns: Vec<Counter>,
    /// Load imbalance of the latest sampled routing pass — slowest
    /// shard over mean shard, ×1000 (1000 = perfectly balanced) — and
    /// its distribution across sampled steps.
    shard_imbalance_x1000: Gauge,
    shard_imbalance_hist: Histogram,
}

impl ExecObs {
    /// Registers the `exec.*` family and switches the pool's metering
    /// on. `shards` is the maximum routing shard count
    /// (`min(banks, threads)`).
    fn new(obs: &Obs, pool: &ExecPool, shards: usize) -> Self {
        pool.set_metering(true);
        let threads = pool.threads();
        let this = Self {
            pool_threads: obs.gauge("exec.pool.threads"),
            pool_batches: obs.gauge("exec.pool.batches"),
            pool_wall_ns: obs.gauge("exec.pool.wall_ns"),
            pool_merge_wait_ns: obs.gauge("exec.pool.merge_wait_ns"),
            worker_busy_ns: (0..threads)
                .map(|i| obs.gauge(&format!("exec.worker.{i}.busy_ns")))
                .collect(),
            worker_idle_ns: (0..threads)
                .map(|i| obs.gauge(&format!("exec.worker.{i}.idle_ns")))
                .collect(),
            worker_tasks: (0..threads)
                .map(|i| obs.gauge(&format!("exec.worker.{i}.tasks")))
                .collect(),
            merge_wait_battery_step: obs.counter("exec.merge_wait.battery_step_ns"),
            merge_wait_fleet_refresh: obs.counter("exec.merge_wait.fleet_refresh_ns"),
            merge_wait_view: obs.counter("exec.merge_wait.view_ns"),
            shard_step_ns: (0..shards)
                .map(|s| obs.counter(&format!("exec.shard.{s}.step_ns")))
                .collect(),
            shard_imbalance_x1000: obs.gauge("exec.shard.imbalance_x1000"),
            shard_imbalance_hist: obs.histogram("exec.shard.imbalance_x1000.hist"),
        };
        this.pool_threads.set(threads as f64);
        this
    }

    /// Records one sampled routing pass's per-shard busy times and the
    /// pass's load-imbalance ratio. `shard_ns[s]` is shard `s`'s busy
    /// nanoseconds; a zero-sum pass (clock inert, or work too fast to
    /// resolve) is skipped so the imbalance series only holds measured
    /// passes.
    fn record_shards(&self, shard_ns: &[u64]) {
        let sum: u64 = shard_ns.iter().sum();
        if sum == 0 {
            return;
        }
        let mut max = 0u64;
        for (s, &ns) in shard_ns.iter().enumerate() {
            if let Some(counter) = self.shard_step_ns.get(s) {
                counter.add(ns);
            }
            max = max.max(ns);
        }
        let imbalance_x1000 = (max as f64 * shard_ns.len() as f64 / sum as f64) * 1000.0;
        self.shard_imbalance_x1000.set(imbalance_x1000.round());
        self.shard_imbalance_hist.observe(imbalance_x1000 as u64);
    }

    /// Refreshes the pool-level and per-thread gauges from a stats
    /// snapshot. Called at the trace cadence (the same cadence as the
    /// engine's energy gauges), so a live scrape sees values at most one
    /// sample interval old. Idle time is derived: metered batch wall
    /// time minus the thread's own busy time.
    fn refresh(&self, pool: &ExecPool) {
        let stats = pool.stats();
        self.pool_batches.set(stats.batches as f64);
        self.pool_wall_ns.set(stats.wall_ns as f64);
        self.pool_merge_wait_ns.set(stats.caller_wait_ns as f64);
        for (i, t) in stats.threads_stats.iter().enumerate() {
            if let Some(g) = self.worker_busy_ns.get(i) {
                g.set(t.busy_ns as f64);
            }
            if let Some(g) = self.worker_idle_ns.get(i) {
                g.set(stats.wall_ns.saturating_sub(t.busy_ns) as f64);
            }
            if let Some(g) = self.worker_tasks.get(i) {
                g.set(t.tasks as f64);
            }
        }
    }
}

/// Reusable hot-loop buffers for [`Simulation::route_power`] and
/// [`Simulation::refresh_fleet`].
///
/// The step loop runs tens of thousands of times per simulated day; these
/// buffers are refilled in place so the steady-state loop performs no
/// heap allocation. They carry no state across steps — every pass
/// overwrites what it reads — so they are deliberately excluded from
/// snapshot comparisons and reset to empty on clone.
#[derive(Debug, Default)]
struct StepScratch {
    /// Charger pre-pass, one per bank: pre-step SoC and the grid-charge
    /// power (night) or effective charger acceptance (day).
    charge: Vec<(Soc, Watts)>,
    /// Per-node server demand snapshot.
    demands: Vec<Watts>,
    /// Per-bank routing results, written in place by the shards and
    /// read back by the bank-order merge.
    outcomes: Vec<BankOutcome>,
    /// Per-shard busy ns of the latest sharded routing pass (exec
    /// observability; all zeros on unsampled steps).
    shard_ns: Vec<u64>,
    /// Banks re-scored by the current fleet refresh, first-seen order.
    dirty_banks: Vec<usize>,
    /// One step's arrivals, placed as a batch before the misfits join
    /// the pending queue.
    arrivals: PendingQueue<Vm>,
}

impl Clone for StepScratch {
    fn clone(&self) -> Self {
        // Scratch holds no cross-step state; a forked simulation starts
        // with fresh (empty) buffers.
        Self::default()
    }
}

/// One bank's result of a routing pass, carried from [`route_banks`]
/// to the bank-order merge in [`Simulation::route_power`].
#[derive(Debug, Clone, Copy)]
struct BankOutcome {
    /// Energy the battery accepted (the night merge's grid charge).
    accepted: WattHours,
    cutoff: bool,
    unserved: WattHours,
    curtailed: WattHours,
    /// The sensor's reading, before the fault injector sees it.
    fresh: SensorSample,
    /// The sample the battery's own telemetry logged this step, for the
    /// engine's telemetry journal (`None` when the log keeps none).
    logged: Option<SensorSample>,
    /// Member node to shed after a sustained unserved streak.
    victim: Option<usize>,
}

impl BankOutcome {
    /// Filler for a slot the next routing pass overwrites unread.
    const EMPTY: Self = Self {
        accepted: WattHours::ZERO,
        cutoff: false,
        unserved: WattHours::ZERO,
        curtailed: WattHours::ZERO,
        fresh: SensorSample {
            at: SimInstant::START,
            voltage: Volts::ZERO,
            current: Amperes::ZERO,
            temperature: Celsius::ZERO,
            soc: Soc::EMPTY,
        },
        logged: None,
        victim: None,
    };
}

/// Read-only inputs shared by every shard of one routing pass.
struct RouteCtx<'a> {
    /// Outside the operating window: grid-charge every bank, no load.
    night: bool,
    solar_total: Watts,
    tod: TimeOfDay,
    now: SimInstant,
    dt: SimDuration,
    ambient: Celsius,
    /// Lap the switcher and battery halves of each bank (sampled steps).
    profile: bool,
    members: &'a [Vec<usize>],
    /// The charger pre-pass ([`StepScratch::charge`]).
    charge: &'a [(Soc, Watts)],
    solar_shares: &'a [f64],
    soc_floors: &'a [Soc],
    chargers: &'a [Charger],
    switcher: &'a PowerSwitcher,
    injector: &'a FaultInjector,
    cluster: &'a Cluster,
}

/// The mutable per-bank state of the contiguous bank range `banks`,
/// plus the demand slots of its member nodes (members of consecutive
/// banks are consecutive nodes, so they form one range from `node0`).
struct BankShard<'a> {
    banks: Range<usize>,
    node0: usize,
    units: &'a mut [AnyBattery],
    sensors: &'a mut [BatterySensor],
    currents: &'a mut [f64],
    voltages: &'a mut [f64],
    streaks: &'a mut [u32],
    demands: &'a mut [Watts],
    outcomes: &'a mut [BankOutcome],
}

impl<'a> BankShard<'a> {
    /// Splits off the first `banks` banks and their `nodes` member nodes.
    fn split_front(&mut self, banks: usize, nodes: usize) -> BankShard<'a> {
        fn take<'a, T>(slice: &mut &'a mut [T], len: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(slice).split_at_mut(len);
            *slice = tail;
            head
        }
        let front = BankShard {
            banks: self.banks.start..self.banks.start + banks,
            node0: self.node0,
            units: take(&mut self.units, banks),
            sensors: take(&mut self.sensors, banks),
            currents: take(&mut self.currents, banks),
            voltages: take(&mut self.voltages, banks),
            streaks: take(&mut self.streaks, banks),
            demands: take(&mut self.demands, nodes),
            outcomes: take(&mut self.outcomes, banks),
        };
        self.banks.start += banks;
        self.node0 += nodes;
        front
    }
}

/// Battery terminal power available without crossing `floor` within one
/// `dt` step: the discharge limit, capped by the energy stored above the
/// floor. An open-circuit string delivers nothing.
fn floored_power(battery: &AnyBattery, floor: Soc, open_circuit: bool, dt: SimDuration) -> Watts {
    if open_circuit {
        return Watts::ZERO;
    }
    let headroom = battery.soc().value() - floor.value();
    if headroom <= 0.0 {
        return Watts::ZERO;
    }
    let energy_wh =
        headroom * battery.effective_capacity().as_f64() * battery.open_circuit_voltage().as_f64();
    let cap = Watts::new(energy_wh / dt.as_hours());
    battery.available_discharge_power().min(cap)
}

/// A charge of `power`, or idle when there is none to give.
fn charge_op(power: Watts) -> BatteryOp {
    if power.as_f64() > 0.0 {
        BatteryOp::Charge(power)
    } else {
        BatteryOp::Idle
    }
}

/// Adds the time since `mark` to `acc` and moves `mark` to now; a no-op
/// when not profiling (`mark` is `None`).
fn lap(acc: &mut u64, mark: &mut Option<Instant>) {
    if let Some(prev) = *mark {
        let at = Instant::now();
        *acc += at.duration_since(prev).as_nanos() as u64;
        *mark = Some(at);
    }
}

/// The routing kernel: one step of power through the banks of `shard`.
/// By day it snapshots the members' demand, routes each bank's PV share
/// and floored battery power through the switcher, charges or
/// discharges the battery, samples its sensor and decides shedding; by
/// night it applies the pre-pass grid charge and samples the sensor.
///
/// It touches only the shard's own banks and member nodes (the cluster
/// reads are its members' hosts, which only this bank's merge powers
/// off), so shards run on any thread in any order. Everything
/// order-sensitive is left in `shard.outcomes` for the bank-order
/// merge. Returns the switcher and battery nanoseconds when
/// `ctx.profile` is set, zeros otherwise.
fn route_banks(ctx: &RouteCtx<'_>, shard: &mut BankShard<'_>) -> Result<(u64, u64), SimError> {
    let mut mark = ctx.profile.then(Instant::now);
    let (mut switcher_ns, mut battery_ns) = (0u64, 0u64);
    let node0 = shard.node0;
    if !ctx.night {
        for (j, demand) in shard.demands.iter_mut().enumerate() {
            *demand = ctx.cluster.host(node0 + j)?.power(ctx.tod);
        }
    }
    for (k, b) in shard.banks.clone().enumerate() {
        let (soc, charge) = ctx.charge[b];
        let (op, routed) = if ctx.night {
            (charge_op(charge), None)
        } else {
            let open_circuit = ctx.injector.bank(b).open_circuit;
            let demand: Watts = ctx.members[b]
                .iter()
                .map(|&m| shard.demands[m - node0])
                .sum();
            let solar = ctx.solar_total * ctx.solar_shares[b];
            let available = floored_power(&shard.units[k], ctx.soc_floors[b], open_circuit, ctx.dt);
            let routing = ctx.switcher.route(demand, solar, available, charge);
            lap(&mut switcher_ns, &mut mark);
            // An open-circuit string can neither charge nor discharge
            // (the switcher already saw zero availability and zero
            // acceptance).
            let op = if open_circuit {
                BatteryOp::Idle
            } else if routing.battery_to_load.as_f64() > 0.0 {
                BatteryOp::Discharge(routing.battery_to_load)
            } else {
                charge_op(ctx.chargers[b].charge_power(soc, routing.surplus_to_charger))
            };
            (op, Some((demand, routing)))
        };
        let result = shard.units[k].try_step(op, ctx.ambient, ctx.now, ctx.dt)?;
        shard.currents[k] = result.current.as_f64();
        shard.voltages[k] = result.terminal_voltage.as_f64();
        let fresh = shard.sensors[k].sample(
            &shard.units[k],
            Volts::new(shard.voltages[k]),
            result.current,
            ctx.now,
        );
        // A successful step logs exactly one telemetry sample, stamped
        // `now`; the merge appends it to the telemetry journal.
        let logged = shard.units[k].telemetry().latest().copied();
        debug_assert!(logged.is_none_or(|s| s.at == ctx.now));
        let mut outcome = BankOutcome {
            accepted: result.accepted * ctx.dt,
            cutoff: result.cutoff,
            fresh,
            logged,
            ..BankOutcome::EMPTY
        };
        // Emergency shedding on sustained unserved demand: shut down the
        // hungriest online member first (a shared pool browns out one
        // server at a time, not the whole rack at once).
        if let Some((demand, routing)) = routed {
            outcome.unserved = routing.unserved * ctx.dt;
            outcome.curtailed = routing.curtailed * ctx.dt;
            if demand.as_f64() > 0.0 {
                if routing.unserved.as_f64() > 0.05 * demand.as_f64() {
                    shard.streaks[k] += 1;
                    if shard.streaks[k] >= SHUTDOWN_STREAK {
                        for &m in &ctx.members[b] {
                            if !ctx.cluster.host(m)?.is_online() {
                                continue;
                            }
                            let hungrier = outcome.victim.is_none_or(|v| {
                                shard.demands[m - node0].as_f64()
                                    > shard.demands[v - node0].as_f64()
                            });
                            if hungrier {
                                outcome.victim = Some(m);
                            }
                        }
                        shard.streaks[k] = 0;
                    }
                } else {
                    shard.streaks[k] = 0;
                }
            }
        }
        lap(&mut battery_ns, &mut mark);
        shard.outcomes[k] = outcome;
    }
    Ok((switcher_ns, battery_ns))
}

/// One green-datacenter simulation instance.
#[derive(Clone)]
pub struct Simulation {
    config: SimConfig,
    /// Number of physical battery banks (= nodes for per-server
    /// integration; fewer for shared pools).
    banks: usize,
    /// Node → bank mapping.
    bank_of: Vec<usize>,
    /// Bank → member nodes.
    members: Vec<Vec<usize>>,
    cluster: Cluster,
    batteries: BatteryPack,
    sensors: Vec<BatterySensor>,
    chargers: Vec<Charger>,
    switcher: PowerSwitcher,
    array: PvArray,
    power_table: PowerTable,
    /// Per-bank battery telemetry history: the samples each unit's own
    /// [`TelemetryLog`] logged, newest `max_samples` retained, as
    /// checkpoints carry them. Only [`route_banks`] steps batteries, and
    /// every successful step logs exactly one sample, so appending each
    /// bank's sample in the bank-order merge keeps the rows a per-unit
    /// sample ring would.
    telemetry: Journal<SensorSample>,
    generator: WorkloadGenerator,
    events: EventLog,
    recorder: Recorder,
    now: SimInstant,
    step_index: u64,
    soc_floors: Vec<Soc>,
    unserved_streak: Vec<u32>,
    offline_since: Vec<Option<SimInstant>>,
    downtime: Vec<SimDuration>,
    unserved_energy: WattHours,
    curtailed_energy: WattHours,
    grid_charge_energy: WattHours,
    arrivals_today: VecDeque<Arrival>,
    /// Jobs that could not be placed yet; retried every control interval
    /// (the prototype's job queue).
    pending: PendingQueue<Vm>,
    clouds: CloudProcess,
    weather_today: Weather,
    started_day: Option<u64>,
    in_window: bool,
    last_currents: Vec<f64>,
    last_voltages: Vec<f64>,
    last_solar: Watts,
    /// Outcomes of the previous control interval's actions, fed back to
    /// the policy through [`ControlCtx`].
    last_outcomes: Vec<ActionOutcome>,
    obs: Obs,
    counters: EngineCounters,
    aging_obs: AgingObs,
    /// Per-bank charger mode-switch trackers.
    stage_trackers: Vec<StageTracker>,
    /// Applies the configured fault plan at the engine's seams.
    injector: FaultInjector,
    /// Per-node degraded flags (telemetry stale past the bound).
    degraded: Vec<bool>,
    /// Conservative actions for degraded nodes.
    fallback: FallbackScheme,
    fault_counters: FaultCounters,
    /// Span emitter sharing the obs store; inert when obs is disabled,
    /// and unaffected by the `step()` obs swap.
    tracer: Tracer,
    /// Per-node rule-based aging-health monitor, evaluated at the
    /// control cadence. Inert when obs is disabled.
    health: HealthMonitor,
    /// Bounded ring of recent JSONL lines, dumped on degraded-mode
    /// entry and server shutdown. Inert when obs is disabled.
    flight: FlightRecorder,
    /// Cumulative charger mode switches per bank (engine-counted so the
    /// health monitor's thrash check never reads metric atomics).
    mode_switches: Vec<u64>,
    /// Open trace span per active fault (empty when tracing is off).
    active_fault_spans: Vec<(FaultKind, SpanId)>,
    /// Open degraded-mode span per node (`NONE` while healthy).
    degraded_spans: Vec<SpanId>,
    /// Degraded-entry snapshot per node — entry instant and aging
    /// breakdown — for the exit span's per-mechanism aging delta.
    degraded_enter: Vec<Option<(SimInstant, AgingBreakdown)>>,
    /// Steps per control interval (≥ 1), hoisted out of the step loop.
    control_steps: u64,
    /// Per-bank PV share (`members[b].len() / nodes`), hoisted out of the
    /// routing loop — precomputed with the identical expression, so routed
    /// solar power is bit-identical to the inline division.
    solar_shares: Vec<f64>,
    /// Reusable hot-loop buffers (no simulated state).
    scratch: StepScratch,
    /// Incremental placement state: struct-of-arrays score caches,
    /// dirty-node invalidation, and ranked orders for declarative
    /// [`PlacementSpec`]s. Never influences simulated state directly —
    /// ranks are bit-identical to the legacy recompute path.
    fleet: FleetView,
    /// Scoped worker pool for intra-step sharding; `None` when the
    /// configured [`crate::EngineThreads`] count is 1 (the reference
    /// sequential path). Results are bit-identical at every thread
    /// count, so the pool is engine plumbing, not simulated state: it is
    /// excluded from snapshots, and a resumed run may pick a different
    /// count freely.
    pool: Option<Arc<ExecPool>>,
    /// `exec.*` metric handles; `Some` only when both a pool and an
    /// enabled obs context exist. Like the pool itself, pure plumbing:
    /// never snapshotted, never feeds back into simulated state.
    exec_obs: Option<ExecObs>,
}

impl Simulation {
    /// Builds a simulation from a configuration, with observation
    /// disabled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if any substrate rejects its derived
    /// parameters.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        Self::with_obs(config, Obs::disabled())
    }

    /// Builds a simulation recording metrics and stage timings into
    /// `obs`.
    ///
    /// Observation never influences the run: a seeded simulation
    /// produces a bit-identical [`SimReport`] whether `obs` is enabled
    /// or not.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if any substrate rejects its derived
    /// parameters.
    pub fn with_obs(config: SimConfig, obs: Obs) -> Result<Self, SimError> {
        let mut cluster = Cluster::homogeneous(
            config.nodes,
            config.server_power,
            config.server_capacity,
            config.migration,
        )?;
        // Simulated time starts at midnight; servers power on at the
        // operating-window edge.
        cluster.power_off_all();
        let banks = config.topology.banks(config.nodes);
        let per_bank = config.topology.nodes_per_bank(config.nodes);
        let bank_of: Vec<usize> = (0..config.nodes)
            .map(|i| config.topology.bank_of(i, config.nodes))
            .collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); banks];
        for (node, &bank) in bank_of.iter().enumerate() {
            members[bank].push(node);
        }
        // A shared pool aggregates the per-node bank: k× capacity and
        // current limits, 1/k internal resistance.
        let bank_spec = if per_bank == 1 {
            config.battery_spec.clone()
        } else {
            let s = &config.battery_spec;
            let k = per_bank as f64;
            let mut b = baat_battery::BatterySpec::builder();
            b.chemistry(s.chemistry())
                .nominal_voltage(s.nominal_voltage())
                .capacity(s.capacity() * k)
                .internal_resistance(s.internal_resistance() / k)
                .cutoff_voltage(s.cutoff_voltage())
                .max_charge_current(s.max_charge_current() * k)
                .max_discharge_current(s.max_discharge_current() * k)
                .lifetime_throughput(s.lifetime_throughput() * k)
                .manufacturer(s.manufacturer())
                .coulombic_efficiency(s.coulombic_efficiency())
                .self_discharge_per_day(s.self_discharge_per_day())
                .ambient(s.ambient());
            b.build()?
        };
        let batteries =
            BatteryPack::manufacture(bank_spec, banks, config.variation, config.seed ^ 0xBA77)?;
        let array = PvArray::sized_for_daily_energy(
            config.solar_sunny_budget,
            Weather::Sunny,
            ClearSky::temperate(),
        )?;
        let sensors = (0..banks)
            .map(|i| BatterySensor::new(config.sensor_noise, config.seed ^ (0x5E45 + i as u64)))
            .collect();
        let charger = Charger::new(
            Charger::prototype().max_power() * per_bank as f64,
            Charger::prototype().efficiency(),
        )?;
        let chargers = vec![charger; banks];
        let weather_today = config.weather_plan[0];
        let clouds = CloudProcess::new(weather_today, config.seed);
        let nodes = config.nodes;
        let counters = EngineCounters::new(&obs);
        let aging_obs = AgingObs::new(&obs, config.battery_spec.chemistry());
        let stage_trackers = (0..banks)
            .map(|_| StageTracker::new(obs.counter("power.charger.mode_switches")))
            .collect();
        let injector = FaultInjector::new(&config.faults, banks, config.seed);
        let fault_counters = if config.faults.is_empty() {
            FaultCounters::inert()
        } else {
            FaultCounters::new(&obs)
        };
        let control_steps = (config.control_interval.as_secs() / config.dt.as_secs()).max(1);
        let solar_shares = members
            .iter()
            .map(|m| m.len() as f64 / nodes as f64)
            .collect();
        let tracer = obs.tracer();
        let health = HealthMonitor::new(HealthConfig::default(), &obs);
        let flight = FlightRecorder::new(FLIGHT_RING_CAP, obs.is_enabled());
        let total_steps = config.days() as u64 * 86_400 / config.dt.as_secs();
        let rows_hint = (total_steps / config.sample_every as u64).saturating_add(1) as usize;
        let fleet = FleetView::new(nodes, banks, bank_of.clone());
        let pool = match config.threads.get() {
            0 | 1 => None,
            t => Some(Arc::new(ExecPool::new(t))),
        };
        let exec_obs = match &pool {
            Some(pool) if obs.is_enabled() => {
                Some(ExecObs::new(&obs, pool, banks.min(pool.threads())))
            }
            _ => None,
        };
        Ok(Self {
            banks,
            bank_of,
            members,
            cluster,
            batteries,
            sensors,
            chargers,
            switcher: PowerSwitcher::prototype(),
            array,
            power_table: PowerTable::new(nodes),
            // Every unit is manufactured with the default telemetry log.
            telemetry: Journal::new(banks, TelemetryLog::DEFAULT_MAX_SAMPLES),
            generator: WorkloadGenerator::new(config.seed ^ 0x10AD),
            events: EventLog::new(),
            recorder: Recorder::with_limits(rows_hint, config.max_trace_rows),
            now: SimInstant::START,
            step_index: 0,
            soc_floors: vec![Soc::EMPTY; banks],
            unserved_streak: vec![0; banks],
            offline_since: vec![None; nodes],
            downtime: vec![SimDuration::ZERO; nodes],
            unserved_energy: WattHours::ZERO,
            curtailed_energy: WattHours::ZERO,
            grid_charge_energy: WattHours::ZERO,
            arrivals_today: VecDeque::new(),
            pending: PendingQueue::new(),
            clouds,
            weather_today,
            started_day: None,
            in_window: false,
            last_currents: vec![0.0; banks],
            last_voltages: vec![config.battery_spec.nominal_voltage().as_f64(); banks],
            last_solar: Watts::ZERO,
            last_outcomes: Vec::new(),
            obs,
            counters,
            aging_obs,
            stage_trackers,
            injector,
            degraded: vec![false; nodes],
            fallback: FallbackScheme::new(),
            fault_counters,
            tracer,
            health,
            flight,
            mode_switches: vec![0; banks],
            active_fault_spans: Vec::new(),
            degraded_spans: vec![SpanId::NONE; nodes],
            degraded_enter: vec![None; nodes],
            control_steps,
            solar_shares,
            scratch: StepScratch::default(),
            fleet,
            pool,
            exec_obs,
            config,
        })
    }

    /// Pre-ages every battery to the given damage (the paper's "old"
    /// battery stage).
    pub fn pre_age_batteries(&mut self, damage: f64) {
        for b in self.batteries.iter_mut() {
            b.pre_age(damage);
        }
        self.fleet.mark_all(DirtyReason::Battery);
    }

    /// Pre-ages a single battery bank — fault injection for the paper's
    /// single-point-of-failure scenario, where one "prone-to-wear-out"
    /// unit threatens the node's availability (§IV.B.1).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Battery`] if `bank` is out of range.
    pub fn pre_age_bank(&mut self, bank: usize, damage: f64) -> Result<(), SimError> {
        self.batteries.unit_mut(bank)?.pre_age(damage);
        for &m in &self.members[bank] {
            self.fleet.mark(m, DirtyReason::Battery);
        }
        Ok(())
    }

    /// Immutable access to the battery pack.
    pub fn batteries(&self) -> &BatteryPack {
        &self.batteries
    }

    /// Immutable access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The controller-facing power table.
    pub fn power_table(&self) -> &PowerTable {
        &self.power_table
    }

    /// Current simulation time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// The observability context the engine records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The aging-health monitor — the live per-node check state that
    /// `console watch` renders between step batches.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// The incremental placement state: per-node score arrays and the
    /// dirty-reason masks recording which mutation seams have fired.
    /// Read-only observability for tests and diagnostics.
    pub fn fleet(&self) -> &FleetView {
        &self.fleet
    }

    /// The placement order the incremental fleet ranker produces for
    /// `spec` right now, after refreshing any dirty nodes. Sequential
    /// specs return their static order; `RoundRobin` peeks the cursor
    /// without advancing it; `Custom` falls back to ascending indices
    /// (the caller owns its own `placement_order`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the engine's node/bank bookkeeping is
    /// inconsistent with the substrates.
    pub fn placement_rank(
        &mut self,
        spec: PlacementSpec,
        kind: WorkloadKind,
    ) -> Result<Vec<usize>, SimError> {
        let n = self.config.nodes;
        self.refresh_fleet()?;
        let mode = match spec {
            PlacementSpec::Custom | PlacementSpec::FirstFit => return Ok((0..n).collect()),
            PlacementSpec::RoundRobin => {
                let start = self.fleet.rr_peek();
                return Ok((0..n).map(|i| (start + i) % n).collect());
            }
            PlacementSpec::WeightedAging { server_power } => {
                class_index(demand_class(kind, &server_power))
            }
            PlacementSpec::LifetimeNat => NAT_MODE,
        };
        self.fleet.ensure_mode(mode);
        Ok((0..n).map(|r| self.fleet.ranked_node(mode, r)).collect())
    }

    /// Runs the configured weather plan to completion under `policy` and
    /// returns the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a step hits a broken engine invariant
    /// (e.g. a substrate rejects an index the engine derived itself).
    pub fn run<P: Policy>(self, policy: &mut P) -> Result<SimReport, SimError> {
        self.run_remaining(policy)
    }

    /// Total number of steps the configured run spans.
    pub fn total_steps(&self) -> u64 {
        self.config.days() as u64 * 86_400 / self.config.dt.as_secs()
    }

    /// Advances the simulation by up to `steps` timesteps, stopping
    /// early at the end of the configured run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] under the same conditions as [`step`].
    ///
    /// [`step`]: Simulation::step
    pub fn run_steps<P: Policy>(&mut self, policy: &mut P, steps: u64) -> Result<(), SimError> {
        let remaining = self.total_steps().saturating_sub(self.step_index);
        for _ in 0..steps.min(remaining) {
            self.step(policy)?;
        }
        Ok(())
    }

    /// Runs whatever steps remain of the configured span and returns the
    /// report — the tail half of a snapshot-forked run (advance a shared
    /// prefix with [`run_steps`], clone, then finish each variant here).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] under the same conditions as [`run`].
    ///
    /// [`run_steps`]: Simulation::run_steps
    /// [`run`]: Simulation::run
    pub fn run_remaining<P: Policy>(mut self, policy: &mut P) -> Result<SimReport, SimError> {
        let remaining = self.total_steps().saturating_sub(self.step_index);
        for _ in 0..remaining {
            self.step(policy)?;
        }
        self.into_report(policy.name())
    }

    /// Number of leading steps guaranteed independent of the policy: the
    /// steps strictly before the operating window first opens. Arrivals,
    /// placement and control are all gated on the window, so every
    /// policy produces bit-identical engine state across this prefix —
    /// it can be simulated once and forked per variant.
    pub fn policy_free_prefix_steps(&self) -> u64 {
        let day_start = u64::from(self.config.day_start.as_secs());
        day_start
            .div_ceil(self.config.dt.as_secs())
            .min(self.total_steps())
    }

    /// Replaces the fault plan mid-run, rebuilding the injector — the
    /// fork half of a snapshot-forked fault sweep: advance a clean
    /// prefix once, clone, and install each variant's plan.
    ///
    /// A freshly built injector is bit-identical to one that tracked the
    /// same plan from the start, *provided no fault window has opened
    /// yet*: activation is a pure function of simulated time, and the
    /// noise RNG only advances while a noise fault is active. Plans
    /// scheduling anything before the current instant are therefore
    /// rejected — forking past a fault's onset would skip its
    /// transition.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the plan references an
    /// unknown node or bank, or schedules a fault before [`now`].
    ///
    /// [`now`]: Simulation::now
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.validate(self.config.nodes, self.banks)
            .map_err(|e| SimError::invalid_config("faults", e))?;
        if let Some(spec) = plan.faults().iter().find(|s| s.start < self.now) {
            return Err(SimError::invalid_config(
                "faults",
                format!(
                    "fault starting at {}s predates the fork point ({}s); \
                     fork before the earliest fault onset",
                    spec.start.as_secs(),
                    self.now.as_secs()
                ),
            ));
        }
        self.injector = FaultInjector::new(&plan, self.banks, self.config.seed);
        self.fault_counters = if plan.is_empty() {
            FaultCounters::inert()
        } else {
            FaultCounters::new(&self.obs)
        };
        self.config.faults = plan;
        Ok(())
    }

    /// Steps completed since the start of the run.
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// The configuration this simulation was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Captures a versioned checkpoint of the simulation's dynamic
    /// state, sufficient to [`restore`] a bit-identical continuation.
    ///
    /// Policy decision state is *not* included (the engine does not hold
    /// the policy); use [`snapshot_with_policy`] when a policy is in
    /// hand, or set `state.policy` on the returned snapshot.
    ///
    /// [`restore`]: Simulation::restore
    /// [`snapshot_with_policy`]: Simulation::snapshot_with_policy
    pub fn snapshot(&self) -> SimSnapshot {
        let (clouds_rng, clouds_ar) = self.clouds.state();
        let (generator_rng, generator_next_id) = self.generator.state();
        let state = SimState {
            step_index: self.step_index,
            now: self.now,
            weather_today: self.weather_today,
            started_day: self.started_day,
            in_window: self.in_window,
            soc_floors: self.soc_floors.iter().map(|s| s.value()).collect(),
            unserved_streak: self.unserved_streak.clone(),
            offline_since: self.offline_since.clone(),
            downtime: self.downtime.clone(),
            unserved_energy: self.unserved_energy,
            curtailed_energy: self.curtailed_energy,
            grid_charge_energy: self.grid_charge_energy,
            arrivals_today: self.arrivals_today.iter().copied().collect(),
            pending: self.pending.iter().map(Vm::capture).collect(),
            clouds_rng,
            clouds_ar,
            last_currents: self.last_currents.clone(),
            last_voltages: self.last_voltages.clone(),
            last_solar: self.last_solar,
            last_outcomes: self.last_outcomes.clone(),
            mode_switches: self.mode_switches.clone(),
            stage_last: self.stage_trackers.iter().map(StageTracker::last).collect(),
            degraded: self.degraded.clone(),
            fallback_rejected: self.fallback.rejected_last().to_vec(),
            rr_cursor: self.fleet.rr_cursor() as u64,
            generator_rng,
            generator_next_id,
            sensor_rngs: self.sensors.iter().map(BatterySensor::rng_state).collect(),
            injector: self.injector.capture_state(),
            events: self.events.iter().cloned().collect(),
            recorder_keep_every: self.recorder.stride(),
            recorder_pushes: self.recorder.pushes(),
            recorder_rows: self.recorder.rows().to_vec(),
            cluster: self.cluster.capture_state(),
            power_table: self.power_table.capture(),
            batteries: self
                .batteries
                .iter()
                .zip(self.telemetry.capture())
                .map(|(battery, samples)| {
                    let mut state = battery.capture_state();
                    state.telemetry.samples = samples;
                    state
                })
                .collect(),
            policy: None,
        };
        SimSnapshot {
            version: SNAPSHOT_VERSION,
            chemistry: self.config.battery_spec.chemistry(),
            config_hash: config_hash(&self.config),
            state,
        }
    }

    /// [`snapshot`] plus the policy's serialized decision state, so a
    /// resumed run replays the same future decisions.
    ///
    /// [`snapshot`]: Simulation::snapshot
    pub fn snapshot_with_policy<P: Policy + ?Sized>(&self, policy: &P) -> SimSnapshot {
        let mut snap = self.snapshot();
        snap.state.policy = Some(PolicyState {
            name: policy.name().to_string(),
            data: policy.save_state(),
        });
        snap
    }

    /// A position-independent hash of the dynamic state. Two simulations
    /// at the same step of the same seeded run hash equal — whether run
    /// straight through or restored from a checkpoint and re-stepped.
    pub fn state_hash(&self) -> u64 {
        self.snapshot().state_hash()
    }

    /// Rebuilds a simulation from `config` and overwrites its dynamic
    /// state from `snapshot`, with observation disabled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] when the snapshot's version,
    /// chemistry or config hash do not match `config` — resuming under a
    /// drifted configuration would silently diverge, so it is refused —
    /// and [`SimError`] if the rebuilt substrates reject the state.
    pub fn restore(config: SimConfig, snapshot: &SimSnapshot) -> Result<Self, SimError> {
        Self::restore_with_obs(config, snapshot, Obs::disabled())
    }

    /// [`restore`] recording metrics into `obs`.
    ///
    /// Observability state (counters, spans, health monitor, flight
    /// recorder) is rebuilt empty: it never feeds back into simulated
    /// state, so the resumed run's *simulation* artifacts are
    /// bit-identical while obs artifacts cover only the resumed span.
    ///
    /// # Errors
    ///
    /// As [`restore`].
    ///
    /// [`restore`]: Simulation::restore
    pub fn restore_with_obs(
        config: SimConfig,
        snapshot: &SimSnapshot,
        obs: Obs,
    ) -> Result<Self, SimError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: snapshot.version,
                expected: SNAPSHOT_VERSION,
            }
            .into());
        }
        let chem = config.battery_spec.chemistry();
        if snapshot.chemistry != chem {
            return Err(SnapshotError::ChemistryMismatch {
                snapshot: snapshot.chemistry,
                config: chem,
            }
            .into());
        }
        let hash = config_hash(&config);
        if snapshot.config_hash != hash {
            return Err(SnapshotError::ConfigMismatch {
                snapshot: snapshot.config_hash,
                config: hash,
            }
            .into());
        }
        let mut sim = Self::with_obs(config, obs)?;
        sim.apply_state(&snapshot.state)?;
        Ok(sim)
    }

    /// Overwrites the dynamic state of a freshly built simulation.
    fn apply_state(&mut self, s: &SimState) -> Result<(), SimError> {
        let nodes = self.config.nodes;
        let banks = self.banks;
        let fits = s.soc_floors.len() == banks
            && s.unserved_streak.len() == banks
            && s.offline_since.len() == nodes
            && s.downtime.len() == nodes
            && s.last_currents.len() == banks
            && s.last_voltages.len() == banks
            && s.mode_switches.len() == banks
            && s.stage_last.len() == banks
            && s.degraded.len() == nodes
            && s.sensor_rngs.len() == banks
            && s.power_table.len() == nodes
            && s.batteries.len() == banks;
        if !fits {
            return Err(SnapshotError::StateMismatch {
                context: "per-node/per-bank vector lengths",
            }
            .into());
        }
        // A unit's sample history is bounded by its configured capacity;
        // a snapshot must not lift (or drop) the bound.
        let capacity_fits = self
            .batteries
            .iter()
            .zip(&s.batteries)
            .all(|(unit, st)| st.telemetry.max_samples == unit.telemetry().max_samples());
        if !capacity_fits {
            return Err(SnapshotError::StateMismatch {
                context: "telemetry capacity",
            }
            .into());
        }
        self.cluster.restore_state(&s.cluster)?;
        for (unit, st) in self.batteries.iter_mut().zip(&s.batteries) {
            unit.restore_state(st);
        }
        self.telemetry = Journal::restore(
            s.batteries.iter().map(|st| &st.telemetry.samples[..]),
            TelemetryLog::DEFAULT_MAX_SAMPLES,
        );
        for (sensor, rng) in self.sensors.iter_mut().zip(&s.sensor_rngs) {
            *sensor = BatterySensor::restore(self.config.sensor_noise, *rng);
        }
        self.clouds = CloudProcess::restore(s.weather_today, s.clouds_rng, s.clouds_ar);
        self.generator = WorkloadGenerator::restore(s.generator_rng, s.generator_next_id);
        if !self.injector.restore_state(&s.injector) {
            return Err(SnapshotError::StateMismatch {
                context: "fault injector lengths",
            }
            .into());
        }
        self.events = EventLog::restore(&s.events);
        self.recorder = Recorder::from_parts(
            s.recorder_rows.clone(),
            self.config.max_trace_rows,
            s.recorder_keep_every,
            s.recorder_pushes,
        );
        self.power_table = PowerTable::restore(&s.power_table);
        for (tracker, last) in self.stage_trackers.iter_mut().zip(&s.stage_last) {
            tracker.set_last(*last);
        }
        self.fallback = FallbackScheme::restore(s.fallback_rejected.clone());
        self.fleet.set_rr_cursor(s.rr_cursor as usize);
        self.now = s.now;
        self.step_index = s.step_index;
        self.weather_today = s.weather_today;
        self.started_day = s.started_day;
        self.in_window = s.in_window;
        self.soc_floors = s.soc_floors.iter().map(|&f| Soc::saturating(f)).collect();
        self.unserved_streak = s.unserved_streak.clone();
        self.offline_since = s.offline_since.clone();
        self.downtime = s.downtime.clone();
        self.unserved_energy = s.unserved_energy;
        self.curtailed_energy = s.curtailed_energy;
        self.grid_charge_energy = s.grid_charge_energy;
        self.arrivals_today = s.arrivals_today.iter().copied().collect();
        self.pending = PendingQueue::from_ordered(&s.pending, |v| v.kind, |v| Vm::restore(*v));
        self.last_currents = s.last_currents.clone();
        self.last_voltages = s.last_voltages.clone();
        self.last_solar = s.last_solar;
        self.last_outcomes = s.last_outcomes.clone();
        self.mode_switches = s.mode_switches.clone();
        self.degraded = s.degraded.clone();
        Ok(())
    }

    /// Runs the remaining steps, handing a policy-inclusive snapshot to
    /// `sink` every `every` steps (at interior step boundaries; the
    /// final boundary produces the returned report instead). `every` is
    /// clamped to at least 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] from stepping, or whatever `sink` returns.
    pub fn checkpoint_every<P, F>(
        mut self,
        policy: &mut P,
        every: u64,
        mut sink: F,
    ) -> Result<SimReport, SimError>
    where
        P: Policy,
        F: FnMut(&SimSnapshot) -> Result<(), SimError>,
    {
        let every = every.max(1);
        while self.step_index < self.total_steps() {
            let burst = every.min(self.total_steps() - self.step_index);
            self.run_steps(policy, burst)?;
            if self.step_index < self.total_steps() {
                sink(&self.snapshot_with_policy(policy))?;
            }
        }
        self.into_report(policy.name())
    }

    /// Advances the simulation one timestep.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a substrate rejects an engine-derived
    /// parameter — an invariant break, not a policy mistake (infeasible
    /// policy actions are rejected, logged and fed back, never fatal).
    pub fn step<P: Policy>(&mut self, policy: &mut P) -> Result<(), SimError> {
        // Lend the obs context to the step body instead of cloning it:
        // an `Obs` clone is an `Arc` refcount round-trip, which at tens
        // of thousands of steps per simulated day is measurable. The
        // swapped-in disabled context is a unit value; nothing inside
        // `step_inner` reads `self.obs` (the one user, `record_row`,
        // receives the lent handle explicitly).
        let obs = std::mem::replace(&mut self.obs, Obs::disabled());
        let result = self.step_inner(policy, &obs);
        self.obs = obs;
        result
    }

    fn step_inner<P: Policy>(&mut self, policy: &mut P, obs: &Obs) -> Result<(), SimError> {
        let dt = self.config.dt;
        let day = self.now.day();
        if self.started_day != Some(day) {
            self.start_day(day);
        }
        let tod = self.now.time_of_day();

        // Operating-window edges: power on at day start, checkpoint and
        // shut down at day end.
        let in_window = tod.is_between(self.config.day_start, self.config.day_end);
        if in_window && !self.in_window {
            self.cluster.power_on_all();
            for since in &mut self.offline_since {
                *since = None;
            }
            self.fleet.mark_all(DirtyReason::Power);
        } else if !in_window && self.in_window {
            self.cluster.power_off_all();
            self.fleet.mark_all(DirtyReason::Power);
        }
        self.in_window = in_window;

        // Fault-plan transitions and host enforcement. An empty plan
        // skips every fault hook, so fault-free runs stay bit-identical
        // to pre-fault builds.
        if !self.injector.is_idle() {
            self.process_faults()?;
        }

        // One boundary clock covers every per-step stage (placement,
        // solar, and route_power's charger/switcher/battery passes), and
        // only on sampled steps: per-step stage work is microseconds, so
        // timing one step in PROFILE_SAMPLE_STEPS gives representative
        // means while keeping profiler overhead well under the 1 µs/step
        // budget. Counters are never sampled — they stay exact.
        let mut clock = if self.step_index.is_multiple_of(PROFILE_SAMPLE_STEPS) {
            obs.stage_clock()
        } else {
            StageClock::inert()
        };

        // Workload arrivals. Policies with a declarative placement spec
        // place from the incremental fleet ranker (refreshed once per
        // batch — dirty nodes only); custom policies keep the legacy
        // path, where the system view is built lazily (most steps see no
        // arrival), shared across the batch, and placement refreshes
        // only the admitted node's entry per VM.
        if in_window {
            match policy.placement_spec() {
                PlacementSpec::Custom => {
                    let mut view: Option<SystemView> = None;
                    while let Some(arrival) = self.arrivals_today.front().copied() {
                        if arrival.at > tod {
                            break;
                        }
                        self.arrivals_today.pop_front();
                        let vm = self.generator.spawn(arrival.kind);
                        if view.is_none() {
                            view = Some(self.build_view()?);
                        }
                        let view = view.as_mut().expect("view built above");
                        if let Some(vm) = self.place_vm(vm, arrival.kind, policy, view, obs)? {
                            self.pending.push(arrival.kind, vm);
                        }
                    }
                }
                spec => {
                    let mut batch = std::mem::take(&mut self.scratch.arrivals);
                    while let Some(arrival) = self.arrivals_today.front().copied() {
                        if arrival.at > tod {
                            break;
                        }
                        self.arrivals_today.pop_front();
                        batch.push(arrival.kind, self.generator.spawn(arrival.kind));
                    }
                    if !batch.is_empty() {
                        {
                            let _t = obs.time(Stage::PlacementRank);
                            self.refresh_fleet()?;
                        }
                        self.place_fast(&mut batch, spec)?;
                        self.pending.append(&mut batch);
                    }
                    self.scratch.arrivals = batch;
                }
            }
            clock.lap(Stage::Placement);
        }

        // Solar generation for this step (also exposed to the policy).
        let solar_total = {
            let attenuation = self.clouds.step();
            // ×1.0 when no PV fault is active — an exact identity, so
            // the clean path is untouched.
            self.array.output(tod, attenuation) * self.injector.solar_scale()
        };
        clock.lap(Stage::Solar);
        self.last_solar = solar_total;

        // Policy control interval: hand the policy the view plus the
        // previous interval's action outcomes, apply what it returns,
        // remember the new outcomes for next time.
        if in_window && self.step_index.is_multiple_of(self.control_steps) {
            // Degradation is re-evaluated at the control cadence, right
            // before the policy observes the system, so the view's
            // `degraded` flags are current when decisions are made.
            if !self.injector.is_idle() {
                self.update_degradation();
            }
            let control_span =
                self.tracer
                    .start("policy.control", SpanId::NONE, self.now.as_secs());
            // View preparation (reap + build) is engine work, not the
            // policy's decision pass — it stays outside the
            // `policy_control` timer so the stage row reports pure
            // control decision time.
            for host in self.cluster.hosts_mut() {
                host.reap_completed();
            }
            let view = self.build_view()?;
            let actions = {
                let _t = obs.time(Stage::PolicyControl);
                let last = std::mem::take(&mut self.last_outcomes);
                let ctx = ControlCtx {
                    step_index: self.step_index,
                    now: self.now,
                    last_outcomes: &last,
                };
                policy.control(&view, &ctx)
            };
            self.counters.control_intervals.inc();
            self.counters
                .actions_per_interval
                .observe(actions.len() as u64);
            self.last_outcomes = self.apply_actions(actions);
            if !control_span.is_none() {
                self.tracer.attr_str(control_span, "policy", policy.name());
                self.tracer
                    .attr_u64(control_span, "actions", self.last_outcomes.len() as u64);
                let rejected = self
                    .last_outcomes
                    .iter()
                    .filter(|o| o.is_rejected())
                    .count();
                self.tracer
                    .attr_u64(control_span, "rejected", rejected as u64);
                self.tracer.end(control_span, self.now.as_secs());
            }
            if !self.injector.is_idle() {
                self.run_fallback()?;
            }
            if self.health.is_enabled() {
                self.observe_health()?;
            }
            self.retry_pending(policy, obs)?;
            // The control interval is timed by its own RAII guards; drop
            // it from the boundary clock so it is not charged to the
            // charger pass.
            clock.skip();
        }

        // Per-bank power routing: one kernel, sharded across the worker
        // pool when one is configured, inline otherwise. The state is
        // bit-identical at every thread count.
        let pool = self.pool.clone();
        self.route_power(pool.as_deref(), solar_total, tod, dt, &mut clock)?;

        // Node restart checks.
        if in_window {
            self.try_restarts(solar_total)?;
        }

        // Advance the cluster (migrations + VM execution).
        self.cluster.step(self.now, tod, dt);

        // Downtime accounting.
        if in_window {
            for i in 0..self.config.nodes {
                if !self.cluster.host(i)?.is_online() {
                    self.downtime[i] += dt;
                }
            }
        }

        // Trace recording.
        if self
            .step_index
            .is_multiple_of(self.config.sample_every as u64)
        {
            let _t = obs.time(Stage::Recorder);
            self.record_row(solar_total, tod, obs)?;
        }

        self.now += dt;
        self.step_index += 1;
        Ok(())
    }

    /// Appends `event` to the log and mirrors it into the flight ring,
    /// dumping the ring on post-mortem triggers (degraded-mode entry,
    /// server shutdown). An associated fn over disjoint fields so call
    /// sites may hold other `&self` borrows.
    fn log_event(events: &mut EventLog, flight: &mut FlightRecorder, at: SimInstant, event: Event) {
        if flight.is_enabled() {
            flight.push(TimedEvent { at, event }.to_json());
            match event {
                Event::DegradedMode { active: true, .. } => {
                    flight.dump("degraded_mode", at.as_secs());
                }
                Event::ServerShutdown { .. } => flight.dump("server_shutdown", at.as_secs()),
                _ => {}
            }
        }
        events.push(at, event);
    }

    fn start_day(&mut self, day: u64) {
        self.started_day = Some(day);
        // Jobs still queued from yesterday are reported once and carried
        // over.
        for _ in 0..self.pending.len() {
            self.counters.placements_failed.inc();
            Self::log_event(
                &mut self.events,
                &mut self.flight,
                self.now,
                Event::PlacementFailed {
                    node: self.config.nodes,
                },
            );
        }
        let plan_len = self.config.weather_plan.len() as u64;
        self.weather_today = self.config.weather_plan[(day % plan_len) as usize];
        self.clouds = CloudProcess::new(self.weather_today, self.config.seed ^ (day + 1));
        let services = if day == 0 { self.config.services } else { 0 };
        self.arrivals_today = self
            .generator
            .daily_plan(services, self.config.batch_jobs_per_day)
            .into();
        // Daily metric window reset (the controller's observation period).
        for b in self.batteries.iter_mut() {
            b.telemetry_mut().reset_window();
        }
    }

    /// Advances the fault plan to `now`: logs injection/clear events,
    /// keeps the active-fault gauge current, and enforces host-failure
    /// faults by powering the afflicted servers off.
    fn process_faults(&mut self) -> Result<(), SimError> {
        for t in self.injector.begin_step(self.now) {
            // Either edge of a fault window can change a node's score
            // inputs (headroom, telemetry, admission), so both dirty the
            // affected nodes.
            match t.kind {
                FaultKind::HostFailure { node } => {
                    if node < self.config.nodes {
                        self.fleet.mark(node, DirtyReason::Fault);
                    }
                }
                kind => match kind.target() {
                    Some(bank) if bank < self.members.len() => {
                        for &m in &self.members[bank] {
                            self.fleet.mark(m, DirtyReason::Fault);
                        }
                    }
                    Some(_) => {}
                    None => self.fleet.mark_all(DirtyReason::Fault),
                },
            }
            if t.entered {
                self.fault_counters.injected.inc();
                // Root span of the causal chain: degraded-mode and
                // fallback spans downstream parent onto it.
                let span = self.tracer.start("fault", SpanId::NONE, self.now.as_secs());
                if !span.is_none() {
                    self.tracer.attr_str(span, "kind", t.kind.name());
                    if let Some(target) = t.kind.target() {
                        self.tracer.attr_u64(span, "target", target as u64);
                    }
                    if let Some(param) = t.kind.param() {
                        self.tracer.attr_f64(span, "param", param);
                    }
                    self.active_fault_spans.push((t.kind, span));
                }
                Self::log_event(
                    &mut self.events,
                    &mut self.flight,
                    self.now,
                    Event::FaultInjected { fault: t.kind },
                );
            } else {
                self.fault_counters.cleared.inc();
                if let Some(pos) = self
                    .active_fault_spans
                    .iter()
                    .position(|&(kind, _)| kind == t.kind)
                {
                    let (_, span) = self.active_fault_spans.remove(pos);
                    self.tracer.end(span, self.now.as_secs());
                }
                Self::log_event(
                    &mut self.events,
                    &mut self.flight,
                    self.now,
                    Event::FaultCleared { fault: t.kind },
                );
            }
        }
        self.fault_counters
            .active
            .set(self.injector.active_count() as f64);
        // A host-failure fault pins the server down for its whole
        // window; try_restarts refuses to revive it while it holds.
        for i in 0..self.config.nodes {
            if self.injector.host_down(i) && self.cluster.host(i)?.is_online() {
                self.cluster.host_mut(i)?.power_off();
                self.offline_since[i] = Some(self.now);
                self.fleet.mark(i, DirtyReason::Power);
                self.counters.shutdowns.inc();
                Self::log_event(
                    &mut self.events,
                    &mut self.flight,
                    self.now,
                    Event::ServerShutdown { node: i },
                );
            }
        }
        Ok(())
    }

    /// Re-evaluates per-node telemetry staleness against the configured
    /// bound, logging [`Event::DegradedMode`] transitions and keeping
    /// the degradation gauges current. A node with no sample yet is
    /// fresh: degradation means *losing* telemetry, not awaiting it.
    fn update_degradation(&mut self) {
        let limit = self.config.faults.staleness_limit();
        for i in 0..self.config.nodes {
            let stale = match self.power_table.node(i).and_then(|n| n.latest_battery()) {
                Some(sample) => self.now.saturating_since(sample.at) > limit,
                None => false,
            };
            if stale != self.degraded[i] {
                self.degraded[i] = stale;
                self.fleet.mark(i, DirtyReason::Degraded);
                if stale {
                    self.open_degraded_span(i);
                } else {
                    self.close_degraded_span(i);
                }
                Self::log_event(
                    &mut self.events,
                    &mut self.flight,
                    self.now,
                    Event::DegradedMode {
                        node: i,
                        active: stale,
                    },
                );
            }
        }
        let count = self.degraded.iter().filter(|&&d| d).count();
        self.fault_counters.degraded_nodes.set(count as f64);
        self.fault_counters.degraded_intervals.add(count as u64);
    }

    /// Opens node `i`'s degraded-mode span, parented to the active fault
    /// most plausibly responsible for its stale telemetry, and snapshots
    /// the battery's aging breakdown for the exit delta.
    fn open_degraded_span(&mut self, i: usize) {
        let bank = self.bank_of[i];
        let span = self.tracer.start(
            "degraded",
            self.telemetry_fault_span(bank),
            self.now.as_secs(),
        );
        if span.is_none() {
            return;
        }
        self.tracer.attr_u64(span, "node", i as u64);
        self.degraded_spans[i] = span;
        self.degraded_enter[i] = self
            .batteries
            .unit(bank)
            .ok()
            .map(|b| (self.now, b.aging_breakdown()));
    }

    /// Closes node `i`'s degraded-mode span, first attaching an
    /// `aging.delta` child quantifying per-mechanism damage accrued
    /// while the node ran blind.
    fn close_degraded_span(&mut self, i: usize) {
        let span = std::mem::replace(&mut self.degraded_spans[i], SpanId::NONE);
        if span.is_none() {
            return;
        }
        let now_s = self.now.as_secs();
        if let Some((since, before)) = self.degraded_enter[i].take() {
            if let Ok(battery) = self.batteries.unit(self.bank_of[i]) {
                let diff = battery.aging_breakdown().delta(&before);
                let delta = self.tracer.start("aging.delta", span, now_s);
                self.tracer.attr_u64(delta, "node", i as u64);
                self.tracer
                    .attr_u64(delta, "degraded_s", now_s.saturating_sub(since.as_secs()));
                // One attribute per mechanism, in the chemistry's
                // breakdown order (the lead-acid order matches the
                // pre-trait attribute order byte-for-byte).
                for (label, value) in diff.iter() {
                    self.tracer.attr_f64(delta, label, value);
                }
                self.tracer.end(delta, now_s);
            }
        }
        self.tracer.end(span, now_s);
    }

    /// The open fault span most plausibly responsible for stale
    /// telemetry on `bank`: a sensor dropout or stuck-at fault on that
    /// bank if one is active, else any active fault targeting the bank.
    fn telemetry_fault_span(&self, bank: usize) -> SpanId {
        let mut fallback = SpanId::NONE;
        for &(kind, span) in &self.active_fault_spans {
            match kind {
                FaultKind::SensorDropout { bank: b } | FaultKind::SensorStuckAt { bank: b }
                    if b == bank =>
                {
                    return span;
                }
                _ => {
                    if kind.target() == Some(bank) && fallback.is_none() {
                        fallback = span;
                    }
                }
            }
        }
        fallback
    }

    /// Issues the conservative fallback actions for degraded nodes
    /// through the normal actuation path. The outcomes are logged and
    /// fed back to the scheme (so it never repeats a fresh rejection)
    /// but not to the policy: they are the engine's own corrections,
    /// not the policy's.
    fn run_fallback(&mut self) -> Result<(), SimError> {
        let inputs = (0..self.config.nodes)
            .map(|i| {
                Ok(FallbackInput {
                    node: i,
                    degraded: self.degraded[i],
                    soc_floor: self.soc_floors[self.bank_of[i]],
                    dvfs: self.cluster.host(i)?.dvfs(),
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        let actions = self.fallback.plan(&inputs);
        self.fault_counters
            .fallback_actions
            .add(actions.len() as u64);
        let outcomes = self.apply_actions(actions);
        if self.tracer.is_enabled() {
            self.trace_fallback_outcomes(&outcomes);
        }
        self.fallback.record_outcomes(&outcomes);
        Ok(())
    }

    /// Emits one `fallback.action` span per outcome, parented to the
    /// target node's open degraded-mode span — completing the causal
    /// chain from fault injection to conservative actuation.
    fn trace_fallback_outcomes(&mut self, outcomes: &[ActionOutcome]) {
        let now_s = self.now.as_secs();
        for outcome in outcomes {
            let node = match outcome.action {
                Action::SetDvfs { node, .. } | Action::SetSocFloor { node, .. } => Some(node),
                Action::Migrate { .. } => None,
            };
            let parent = node
                .and_then(|n| self.degraded_spans.get(n).copied())
                .unwrap_or(SpanId::NONE);
            let span = self.tracer.start("fallback.action", parent, now_s);
            if let Some(node) = node {
                self.tracer.attr_u64(span, "node", node as u64);
            }
            match outcome.action {
                Action::SetDvfs { level, .. } => {
                    self.tracer.attr_str(span, "action", "set_dvfs");
                    self.tracer.attr_str(span, "level", level.name());
                }
                Action::Migrate { .. } => {
                    self.tracer.attr_str(span, "action", "migrate");
                }
                Action::SetSocFloor { floor, .. } => {
                    self.tracer.attr_str(span, "action", "set_soc_floor");
                    self.tracer.attr_f64(span, "floor", floor.value());
                }
            }
            match outcome.result {
                ActionResult::Applied => self.tracer.attr_str(span, "outcome", "applied"),
                ActionResult::Rejected(reason) => {
                    self.tracer.attr_str(span, "outcome", "rejected");
                    self.tracer.attr_str(span, "reason", reason.name());
                }
            }
            self.tracer.end(span, now_s);
        }
    }

    /// Attempts to place a VM; returns it back if no node can take it.
    ///
    /// `view` is a current [`SystemView`] owned by the caller. Placement
    /// loops admit many VMs per step, and between two consecutive
    /// attempts the only simulated state that changes is the admitted
    /// host — so on success this refreshes just that node's entry, which
    /// is bit-identical to rebuilding the whole view from scratch (every
    /// other entry is derived from unchanged state, and view construction
    /// draws no randomness).
    fn place_vm<P: Policy>(
        &mut self,
        vm: Vm,
        kind: WorkloadKind,
        policy: &mut P,
        view: &mut SystemView,
        obs: &Obs,
    ) -> Result<Option<Vm>, SimError> {
        let order = {
            let _t = obs.time(Stage::PlacementRank);
            policy.placement_order(kind, view)
        };
        let request = kind.resource_request();
        for node in order {
            if node >= self.config.nodes {
                continue;
            }
            let host = self.cluster.host_mut(node)?;
            if host.is_online() && host.fits(request) {
                host.admit(vm)?;
                view.nodes[node] = self.node_view(node, view.tod)?;
                return Ok(None);
            }
        }
        Ok(Some(vm))
    }

    /// One placement pass over `queue` through the incremental fleet
    /// ranker — no [`SystemView`] is built. The admission walk consults
    /// the live cluster (`is_online` + `fits`), so only the *ranking* is
    /// cached; any admission since the last refresh is still observed.
    /// Kinds known to fit nowhere are skipped (see
    /// [`PendingQueue::retry`]); the round-robin cursor still advances
    /// once per queued job.
    fn place_fast(
        &mut self,
        queue: &mut PendingQueue<Vm>,
        spec: PlacementSpec,
    ) -> Result<(), SimError> {
        let mut cursor = self.fleet.rr_cursor();
        queue.retry(&mut cursor, self.config.nodes, |vm, kind, start| {
            self.admit_fast(vm, kind, spec, start)
        })?;
        if spec == PlacementSpec::RoundRobin {
            self.fleet.set_rr_cursor(cursor);
        }
        Ok(())
    }

    /// Walks `spec`'s host order for a VM of `kind` and admits it to the
    /// first online host with room, or hands it back. `start` is where a
    /// round-robin walk begins (other specs ignore it). Ranked specs
    /// build their ranking mode on first use: it is a cache over the
    /// refreshed fleet, so building it later in a pass gives the same
    /// order.
    fn admit_fast(
        &mut self,
        vm: Vm,
        kind: WorkloadKind,
        spec: PlacementSpec,
        start: usize,
    ) -> Result<Option<Vm>, SimError> {
        let n = self.config.nodes;
        let (start, mode) = match spec {
            PlacementSpec::Custom => unreachable!("custom specs use place_vm"),
            PlacementSpec::FirstFit => (0, None),
            PlacementSpec::RoundRobin => (start, None),
            PlacementSpec::WeightedAging { server_power } => {
                // Untimed: after the caller's refresh this is a no-op
                // check; per-VM timer guards here would cost more clock
                // reads than the work they measure.
                let mode = class_index(demand_class(kind, &server_power));
                self.fleet.ensure_mode(mode);
                (0, Some(mode))
            }
            PlacementSpec::LifetimeNat => {
                self.fleet.ensure_mode(NAT_MODE);
                (0, Some(NAT_MODE))
            }
        };
        let request = kind.resource_request();
        for r in 0..n {
            let node = match mode {
                None => (start + r) % n,
                Some(m) => self.fleet.ranked_node(m, r),
            };
            let host = self.cluster.host_mut(node)?;
            if host.is_online() && host.fits(request) {
                host.admit(vm)?;
                return Ok(None);
            }
        }
        Ok(Some(vm))
    }

    /// Re-scores exactly the dirty nodes and folds their keys back into
    /// the ranked orders. Bank-level quantities (aging metrics, SoC,
    /// headroom) are scored once per dirty bank per pass — fanned out
    /// over the pool when one is configured and at least
    /// [`PAR_REFRESH_MIN_NODES`] nodes are dirty — then scattered to
    /// member nodes.
    fn refresh_fleet(&mut self) -> Result<(), SimError> {
        if self.fleet.is_clean() {
            return Ok(());
        }
        let dirty = self.fleet.take_dirty();
        let mut banks = std::mem::take(&mut self.scratch.dirty_banks);
        banks.clear();
        for &node in &dirty {
            let bank = self.bank_of[node as usize];
            if self.fleet.bank_needs_refresh(bank) {
                banks.push(bank);
            }
        }
        match &self.pool {
            Some(pool) if dirty.len() >= PAR_REFRESH_MIN_NODES => {
                let ranges = shard_ranges(banks.len(), pool.threads());
                let chunks: Vec<Result<Vec<BankScore>, SimError>> = pool.run(ranges.len(), |s| {
                    banks[ranges[s].clone()]
                        .iter()
                        .map(|&bank| self.score_bank(bank))
                        .collect()
                });
                if let Some(exec) = &self.exec_obs {
                    exec.merge_wait_fleet_refresh
                        .add(pool.last_caller_wait_ns());
                }
                for (chunk, range) in chunks.into_iter().zip(ranges) {
                    for (score, &bank) in chunk?.iter().zip(&banks[range]) {
                        self.fleet.update_bank(bank, score);
                    }
                }
            }
            _ => {
                for &bank in &banks {
                    let score = self.score_bank(bank)?;
                    self.fleet.update_bank(bank, &score);
                }
            }
        }
        for &node in &dirty {
            let i = node as usize;
            let online = self.cluster.host(i)?.is_online();
            self.fleet.update_node(i, self.degraded[i], online);
        }
        self.fleet.commit_refresh(dirty);
        self.scratch.dirty_banks = banks;
        Ok(())
    }

    /// One bank's placement scores, from its pre-step battery state.
    fn score_bank(&self, bank: usize) -> Result<BankScore, SimError> {
        let ratings = self.ratings(self.members[bank][0])?;
        let headroom = self.floored_available(bank, self.config.dt)?;
        let battery = self.batteries.unit(bank)?;
        Ok(BankScore {
            metrics: AgingMetrics::from_accumulator(battery.telemetry().lifetime(), &ratings),
            soc: battery.soc().value(),
            headroom: headroom.as_f64(),
            damage: battery.total_damage(),
        })
    }

    /// Retries queued jobs in arrival order.
    fn retry_pending<P: Policy>(&mut self, policy: &mut P, obs: &Obs) -> Result<(), SimError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let spec = policy.placement_spec();
        if spec == PlacementSpec::Custom {
            let _t = obs.time(Stage::Placement);
            let mut view = self.build_view()?;
            let mut pending = std::mem::take(&mut self.pending);
            let result = pending.retry_all(|vm| {
                let kind = vm.kind();
                self.place_vm(vm, kind, policy, &mut view, obs)
            });
            self.pending = pending;
            return result;
        }
        {
            let _t = obs.time(Stage::PlacementRank);
            self.refresh_fleet()?;
        }
        let _t = obs.time(Stage::Placement);
        let mut pending = std::mem::take(&mut self.pending);
        let result = self.place_fast(&mut pending, spec);
        self.pending = pending;
        result
    }

    /// Processes each requested action through the typed actuation path:
    /// applies it or rejects it with a reason, logs the outcome, and
    /// returns the outcomes for next interval's [`ControlCtx`].
    fn apply_actions(&mut self, actions: Vec<Action>) -> Vec<ActionOutcome> {
        let mut outcomes = Vec::with_capacity(actions.len());
        for action in actions {
            let result = match action {
                Action::SetDvfs { node, level } => match self.cluster.host_mut(node) {
                    Ok(host) => {
                        if host.dvfs() != level {
                            host.set_dvfs(level);
                            Self::log_event(
                                &mut self.events,
                                &mut self.flight,
                                self.now,
                                Event::DvfsChanged { node, level },
                            );
                        }
                        self.fleet.mark(node, DirtyReason::Action);
                        ActionResult::Applied
                    }
                    Err(_) => ActionResult::Rejected(RejectReason::UnknownNode),
                },
                Action::Migrate { .. } if self.injector.migrations_blocked() => {
                    ActionResult::Rejected(RejectReason::FaultInjected)
                }
                Action::Migrate { vm, target } => {
                    let from = self.cluster.locate(vm).map(|s| s.0);
                    match self.cluster.begin_migration(vm, ServerId(target), self.now) {
                        Ok(()) => {
                            self.counters.migrations_started.inc();
                            Self::log_event(
                                &mut self.events,
                                &mut self.flight,
                                self.now,
                                Event::MigrationStarted {
                                    vm,
                                    from: from.unwrap_or(usize::MAX),
                                    to: target,
                                },
                            );
                            if let Some(from) = from {
                                self.fleet.mark(from, DirtyReason::Action);
                            }
                            self.fleet.mark(target, DirtyReason::Action);
                            ActionResult::Applied
                        }
                        Err(e) => ActionResult::Rejected(RejectReason::from_server_error(&e)),
                    }
                }
                Action::SetSocFloor { node, floor } => {
                    if node < self.bank_of.len() {
                        let bank = self.bank_of[node];
                        if self.soc_floors[bank] != floor {
                            self.soc_floors[bank] = floor;
                            Self::log_event(
                                &mut self.events,
                                &mut self.flight,
                                self.now,
                                Event::SocFloorChanged { node, floor },
                            );
                        }
                        for &m in &self.members[bank] {
                            self.fleet.mark(m, DirtyReason::Action);
                        }
                        ActionResult::Applied
                    } else {
                        ActionResult::Rejected(RejectReason::UnknownNode)
                    }
                }
            };
            match result {
                ActionResult::Applied => self.counters.actions_applied.inc(),
                ActionResult::Rejected(_) => self.counters.actions_rejected.inc(),
            }
            let outcome = ActionOutcome { action, result };
            Self::log_event(
                &mut self.events,
                &mut self.flight,
                self.now,
                Event::Action { outcome },
            );
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Battery terminal power available without crossing the bank's SoC
    /// floor within one step.
    fn floored_available(&self, bank: usize, dt: SimDuration) -> Result<Watts, SimError> {
        Ok(floored_power(
            self.batteries.unit(bank)?,
            self.soc_floors[bank],
            self.injector.bank(bank).open_circuit,
            dt,
        ))
    }

    /// Observes bank `b`'s charge stage, counting mode switches (input
    /// to the health monitor's thrash check) and emitting a
    /// `charger.mode` span per transition.
    fn observe_charge_stage(&mut self, b: usize, soc: Soc) {
        let stage = self.chargers[b].stage(soc);
        let prev = self.stage_trackers[b].last();
        self.stage_trackers[b].observe(stage);
        if let Some(prev) = prev {
            if prev != stage {
                self.mode_switches[b] += 1;
                for &m in &self.members[b] {
                    self.fleet.mark(m, DirtyReason::ModeSwitch);
                }
                let span = self
                    .tracer
                    .start("charger.mode", SpanId::NONE, self.now.as_secs());
                if !span.is_none() {
                    self.tracer.attr_u64(span, "bank", b as u64);
                    self.tracer.attr_str(span, "from", prev.name());
                    self.tracer.attr_str(span, "to", stage.name());
                    self.tracer.end(span, self.now.as_secs());
                }
            }
        }
    }

    /// Feeds the health monitor one sample per node and evaluates the
    /// checks, mirroring fresh transitions into the flight ring. Called
    /// at the control cadence, only when the monitor is enabled.
    fn observe_health(&mut self) -> Result<(), SimError> {
        for i in 0..self.config.nodes {
            let bank = self.bank_of[i];
            let battery = self.batteries.unit(bank)?;
            self.health.push_sample(NodeHealthSample {
                node: i,
                soc: battery.soc().value(),
                soc_floor: self.soc_floors[bank].value(),
                damage: battery.total_damage(),
                degraded: self.degraded[i],
                charger_mode_switches: self.mode_switches[bank],
                online: self.cluster.host(i)?.is_online(),
            });
        }
        let before = self.health.events_len();
        self.health.evaluate(self.now.as_secs());
        if self.flight.is_enabled() {
            for idx in before..self.health.events_len() {
                let line = self.health.events()[idx].to_json();
                self.flight.push(line);
            }
        }
        Ok(())
    }

    /// Routes one step of power through every bank: each bank's PV
    /// share, switcher, charger and battery (paper Fig 11), or the
    /// utility-line grid charge outside the operating window.
    ///
    /// Banks are independent within a step (demands are snapshotted,
    /// acceptance and availability read only the bank's own pre-step
    /// state), so the pass runs in three phases:
    ///
    /// 1. **Sequential charger pre-pass**, bank order: stage observation
    ///    (tracer spans, mode-switch counters and fleet marks are
    ///    order-sensitive cross-bank seams) and one charger figure per
    ///    bank — the grid-charge power by night, the effective acceptance
    ///    by day.
    /// 2. **[`route_banks`]** over contiguous bank-range shards: inline
    ///    as one shard over every bank without a pool (or with a single
    ///    bank), one shard per pool thread otherwise.
    /// 3. **Sequential merge**, bank order: energy folds (float sums keep
    ///    one association order), fault-injector sample observation
    ///    (shared RNG), telemetry-journal and power-table rows,
    ///    `BatteryCutoff` and `ServerShutdown` events, and applying the
    ///    shedding decisions.
    ///
    /// Stage timing: the pre-pass is charged to `Charger`; the kernel's
    /// per-bank laps to `Switcher` and `BatteryStep`, summed over shards
    /// (CPU time, not wall time, with a pool); the merge to
    /// `BatteryStep`. Inline, the three rows together cover the pass's
    /// wall time.
    fn route_power(
        &mut self,
        pool: Option<&ExecPool>,
        solar_total: Watts,
        tod: TimeOfDay,
        dt: SimDuration,
        clock: &mut StageClock<'_>,
    ) -> Result<(), SimError> {
        // Outside the operating window the prototype's power switcher
        // recharges batteries from the utility line ("switch the utility
        // or renewable power to charge batteries", §V.A), so every day
        // starts from full charge and batteries never sulphate at low
        // SoC overnight.
        let night = !self.in_window;
        self.scratch.charge.clear();
        for b in 0..self.banks {
            let soc = self.batteries.unit(b)?.soc();
            self.observe_charge_stage(b, soc);
            let faults = self.injector.bank(b);
            let charger = &self.chargers[b];
            // The switcher sees the *effective* acceptance, so a failed
            // charger's surplus is curtailed, not lost to an inconsistent
            // charge pass. A mode-stuck charger is latched in float
            // trickle: its budget is the float-stage acceptance.
            let power = if faults.charger_failed || faults.open_circuit {
                Watts::ZERO
            } else if night {
                let budget = if faults.charger_stuck {
                    charger.acceptance(Soc::FULL)
                } else {
                    charger.max_power()
                };
                charger.charge_power(soc, budget)
            } else if faults.charger_stuck {
                charger.acceptance(Soc::FULL)
            } else {
                charger.acceptance(soc)
            };
            self.scratch.charge.push((soc, power));
        }
        clock.lap(Stage::Charger);

        self.scratch.demands.resize(self.config.nodes, Watts::ZERO);
        self.scratch.outcomes.resize(self.banks, BankOutcome::EMPTY);
        let ctx = RouteCtx {
            night,
            solar_total,
            tod,
            now: self.now,
            dt,
            ambient: self.config.ambient,
            profile: clock.is_active(),
            members: &self.members,
            charge: &self.scratch.charge,
            solar_shares: &self.solar_shares,
            soc_floors: &self.soc_floors,
            chargers: &self.chargers,
            switcher: &self.switcher,
            injector: &self.injector,
            cluster: &self.cluster,
        };
        let mut all = BankShard {
            banks: 0..self.banks,
            node0: 0,
            units: self.batteries.units_mut(),
            sensors: &mut self.sensors,
            currents: &mut self.last_currents,
            voltages: &mut self.last_voltages,
            streaks: &mut self.unserved_streak,
            demands: &mut self.scratch.demands,
            outcomes: &mut self.scratch.outcomes,
        };
        let (mut switcher_ns, mut battery_ns) = (0u64, 0u64);
        match pool {
            Some(pool) if self.banks > 1 => {
                let tasks: Vec<Mutex<Option<BankShard<'_>>>> =
                    shard_ranges(self.banks, pool.threads())
                        .into_iter()
                        .map(|r| {
                            let nodes = ctx.members[r.clone()].iter().map(Vec::len).sum();
                            Mutex::new(Some(all.split_front(r.len(), nodes)))
                        })
                        .collect();
                let results = pool.run(tasks.len(), |s| {
                    let mut shard = tasks[s]
                        .lock()
                        .expect("shard state")
                        .take()
                        .expect("each shard is taken exactly once");
                    route_banks(&ctx, &mut shard)
                });
                self.scratch.shard_ns.clear();
                for result in results {
                    let (sw, bat) = result?;
                    switcher_ns += sw;
                    battery_ns += bat;
                    self.scratch.shard_ns.push(sw + bat);
                }
                if let Some(exec) = &self.exec_obs {
                    exec.record_shards(&self.scratch.shard_ns);
                    exec.merge_wait_battery_step.add(pool.last_caller_wait_ns());
                }
            }
            _ => (switcher_ns, battery_ns) = route_banks(&ctx, &mut all)?,
        }

        let merge_started = clock.is_active().then(Instant::now);
        for b in 0..self.banks {
            let o = self.scratch.outcomes[b];
            if night {
                self.grid_charge_energy += o.accepted;
            } else {
                if o.cutoff {
                    self.counters.battery_cutoffs.inc();
                    Self::log_event(
                        &mut self.events,
                        &mut self.flight,
                        self.now,
                        Event::BatteryCutoff {
                            node: self.members[b][0],
                        },
                    );
                }
                self.unserved_energy += o.unserved;
                self.curtailed_energy += o.curtailed;
            }
            if let Some(logged) = o.logged {
                self.telemetry.push(b, logged);
            }
            // Every member node sees its bank's telemetry, like rack
            // members sharing a UPS monitor. The injector's clean path is
            // the identity and draws no randomness; under sensor faults
            // the battery row is perturbed or (dropout) withheld. The
            // server power meter is a separate instrument and keeps
            // flowing; at night there is no load to meter.
            let sample = self.injector.observe_sample(b, o.fresh, self.now);
            for &node in &self.members[b] {
                if let Some(sample) = sample {
                    self.power_table.record_battery(node, sample);
                }
                if !night {
                    self.power_table.record_server(
                        node,
                        ServerPowerRecord {
                            at: self.now,
                            power: self.scratch.demands[node],
                        },
                    );
                }
            }
            if let Some(victim) = o.victim {
                self.cluster.host_mut(victim)?.power_off();
                self.offline_since[victim] = Some(self.now);
                self.fleet.mark(victim, DirtyReason::Power);
                self.counters.shutdowns.inc();
                Self::log_event(
                    &mut self.events,
                    &mut self.flight,
                    self.now,
                    Event::ServerShutdown { node: victim },
                );
            }
        }
        // Every bank stepped: SoC, headroom, and aging metrics all moved,
        // so the whole fleet re-scores before the next placement.
        self.fleet.mark_all(DirtyReason::Battery);
        let merge_ns = merge_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        clock.skip();
        if !night {
            clock.add(Stage::Switcher, switcher_ns);
        }
        clock.add(Stage::BatteryStep, battery_ns + merge_ns);
        Ok(())
    }

    fn try_restarts(&mut self, solar_total: Watts) -> Result<(), SimError> {
        let n = self.config.nodes;
        let idle = self.config.server_power.idle();
        for i in 0..n {
            if self.cluster.host(i)?.is_online() {
                continue;
            }
            if self.injector.host_down(i) {
                continue;
            }
            let Some(since) = self.offline_since[i] else {
                continue;
            };
            if self.now.saturating_since(since) < RESTART_DWELL {
                continue;
            }
            let bank = self.bank_of[i];
            let battery = self.batteries.unit(bank)?;
            let soc_ok = battery.soc().value() > self.soc_floors[bank].value() + RESTART_SOC_MARGIN;
            let solar_ok = solar_total.as_f64() / n as f64 > idle.as_f64() * 1.2;
            if soc_ok || solar_ok {
                let host = self.cluster.host_mut(i)?;
                host.power_on();
                host.resume_all();
                self.offline_since[i] = None;
                self.fleet.mark(i, DirtyReason::Power);
                self.counters.restarts.inc();
                Self::log_event(
                    &mut self.events,
                    &mut self.flight,
                    self.now,
                    Event::ServerRestart { node: i },
                );
            }
        }
        Ok(())
    }

    fn ratings(&self, node: usize) -> Result<BatteryRatings, SimError> {
        let spec = self.batteries.unit(self.bank_of[node])?.spec();
        Ok(BatteryRatings {
            capacity: spec.capacity(),
            lifetime_throughput: spec.lifetime_throughput(),
        })
    }

    /// Builds the read-only system view for policies.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the engine's node/bank bookkeeping is
    /// inconsistent with the substrates (an invariant break).
    pub fn build_view(&self) -> Result<SystemView, SimError> {
        let tod = self.now.time_of_day();
        let nodes = self.collect_node_views(tod)?;
        Ok(SystemView {
            now: self.now,
            tod,
            weather: self.weather_today,
            solar: self.last_solar,
            nodes,
        })
    }

    /// Node views for `0..nodes` in node order. [`Simulation::node_view`]
    /// is a pure `&self` read, so with a configured pool (and a fleet
    /// large enough to amortize dispatch) the views are built over
    /// contiguous node-range shards and concatenated in shard order —
    /// the identical vector.
    fn collect_node_views(&self, tod: TimeOfDay) -> Result<Vec<NodeView>, SimError> {
        let n = self.config.nodes;
        let pool = match &self.pool {
            Some(pool) if n >= PAR_VIEW_MIN_NODES => pool,
            _ => return (0..n).map(|i| self.node_view(i, tod)).collect(),
        };
        let ranges = shard_ranges(n, pool.threads());
        let chunks: Vec<Result<Vec<NodeView>, SimError>> = pool.run(ranges.len(), |s| {
            ranges[s].clone().map(|i| self.node_view(i, tod)).collect()
        });
        if let Some(exec) = &self.exec_obs {
            exec.merge_wait_view.add(pool.last_caller_wait_ns());
        }
        let mut nodes = Vec::with_capacity(n);
        for chunk in chunks {
            nodes.extend(chunk?);
        }
        Ok(nodes)
    }

    /// Builds the read-only view of one node — the unit of incremental
    /// view maintenance: after a placement admits a VM, only the admitted
    /// node's entry changes, so the placement loop refreshes that single
    /// entry instead of rebuilding the whole [`SystemView`].
    fn node_view(&self, i: usize, tod: TimeOfDay) -> Result<NodeView, SimError> {
        let bank = self.bank_of[i];
        let share = 1.0 / self.members[bank].len() as f64;
        let battery = self.batteries.unit(bank)?;
        let host = self.cluster.host(i)?;
        let ratings = self.ratings(i)?;
        Ok(NodeView {
            node: i,
            soc: battery.soc(),
            window_metrics: AgingMetrics::from_accumulator(battery.telemetry().window(), &ratings),
            lifetime_metrics: AgingMetrics::from_accumulator(
                battery.telemetry().lifetime(),
                &ratings,
            ),
            damage: battery.total_damage(),
            capacity_fraction: battery.capacity_fraction(),
            server_power: host.power(tod),
            utilization: host.utilization(tod),
            dvfs: host.dvfs(),
            online: host.is_online(),
            degraded: self.degraded[i],
            free_resources: host.free_resources(),
            vms: host
                .vms()
                .map(|vm| VmView {
                    id: vm.id(),
                    kind: vm.kind(),
                    state: vm.state(),
                    progress: vm.progress(),
                })
                .collect(),
            battery_available: self.floored_available(bank, self.config.dt)? * share,
            battery_capacity_wh: battery.effective_capacity().as_f64()
                * battery.spec().nominal_voltage().as_f64()
                * share,
            battery_capacity_ah: battery.spec().capacity().as_f64() * share,
            battery_lifetime_throughput_ah: battery.spec().lifetime_throughput().as_f64() * share,
            soc_floor: self.soc_floors[bank],
            cutoff_events: battery.cutoff_events(),
            hours_since_full: battery.hours_since_full(),
        })
    }

    /// `obs` is the engine's own context, lent by [`Simulation::step`]
    /// while `self.obs` holds a disabled placeholder.
    fn record_row(&mut self, solar: Watts, tod: TimeOfDay, obs: &Obs) -> Result<(), SimError> {
        let n = self.config.nodes;
        // One fused pass builds all three per-node series (the old code
        // walked the fleet three times); and when the flight ring is off
        // the build is handed to the recorder lazily, so sampled rows
        // that the stride/cap will drop anyway are never built at all —
        // on capped long-fleet runs that is most of them.
        let batteries = &self.batteries;
        let cluster = &self.cluster;
        let bank_of = &self.bank_of;
        let last_currents = &self.last_currents;
        let now = self.now;
        let build = move || -> Result<TraceRow, SimError> {
            let mut soc = Vec::with_capacity(n);
            let mut server_power = Vec::with_capacity(n);
            let mut battery_current = Vec::with_capacity(n);
            for (i, &bank) in bank_of.iter().enumerate().take(n) {
                soc.push(batteries.unit(bank)?.soc().value());
                server_power.push(cluster.host(i)?.power(tod));
                battery_current.push(last_currents[bank]);
            }
            Ok(TraceRow {
                at: now,
                solar,
                soc,
                server_power,
                battery_current,
                work_cumulative: cluster.total_work_done(),
            })
        };
        if self.flight.is_enabled() {
            // The flight ring sees every sampled row, so build eagerly.
            let row = build()?;
            self.flight.push(Recorder::row_json(&row));
            self.recorder.push(row);
        } else {
            self.recorder.push_with(build)?;
        }
        // Refresh the observability gauges at the trace cadence: cheap,
        // deterministic values, and read-only with respect to sim state.
        self.counters.unserved_wh.set(self.unserved_energy.as_f64());
        self.counters
            .curtailed_wh
            .set(self.curtailed_energy.as_f64());
        self.counters
            .grid_charge_wh
            .set(self.grid_charge_energy.as_f64());
        if obs.is_enabled() {
            let mut agg = AgingBreakdown::default();
            for b in self.batteries.iter() {
                agg.accumulate(&b.aging_breakdown());
            }
            self.aging_obs.record(&agg);
        }
        // Exec-pool gauges refresh at the same cadence, so a live
        // scrape (`console serve`) sees pool state at most one sample
        // interval old.
        if let (Some(exec), Some(pool)) = (&self.exec_obs, &self.pool) {
            exec.refresh(pool);
        }
        Ok(())
    }

    /// Consumes the simulation and produces the final report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the engine's bookkeeping is inconsistent
    /// with the substrates.
    pub fn into_report(mut self, policy: &'static str) -> Result<SimReport, SimError> {
        // Flush engine-owned health events and flight dumps into the obs
        // store: they export next to metrics and spans, but stay out of
        // the report, which is compared bit-for-bit across obs on/off.
        self.obs.record_health_events(self.health.take_events());
        self.obs.record_flight_dumps(self.flight.take_dumps());
        let completed_jobs = self.cluster.hosts().map(|h| h.completed_jobs()).sum();
        let migrations = self.cluster.migrations_started();
        let nodes = (0..self.config.nodes)
            .map(|i| {
                let battery = self.batteries.unit(self.bank_of[i])?;
                let acc = battery.telemetry().lifetime();
                let ratings = BatteryRatings {
                    capacity: battery.spec().capacity(),
                    lifetime_throughput: battery.spec().lifetime_throughput(),
                };
                Ok(NodeReport {
                    node: i,
                    damage: battery.total_damage(),
                    damage_breakdown: battery.aging_breakdown(),
                    capacity_fraction: battery.capacity_fraction(),
                    lifetime_metrics: AgingMetrics::from_accumulator(acc, &ratings),
                    soc_histogram: acc.soc_time_histogram,
                    deep_discharge_time: acc.deep_discharge_time,
                    observed: acc.observed,
                    cutoff_events: battery.cutoff_events(),
                    downtime: self.downtime[i],
                    full_charge_events: acc.full_charge_events,
                    round_trip_efficiency: acc.round_trip_efficiency(),
                    work_done: self.cluster.host(i)?.work_done(),
                })
            })
            .collect::<Result<_, SimError>>()?;
        Ok(SimReport {
            policy,
            days: self.config.days(),
            nodes,
            total_work: self.cluster.total_work_done(),
            completed_jobs,
            migrations,
            unserved_energy: self.unserved_energy,
            curtailed_energy: self.curtailed_energy,
            grid_charge_energy: self.grid_charge_energy,
            recorder: self.recorder,
            events: self.events,
        })
    }
}

/// Convenience: run one configuration under one policy.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is rejected or the run hits
/// a broken engine invariant.
///
/// # Examples
///
/// ```
/// use baat_sim::{run_simulation, RoundRobinPolicy, SimConfig};
/// use baat_solar::Weather;
///
/// let config = SimConfig::prototype_day(Weather::Sunny, 42);
/// let report = run_simulation(config, &mut RoundRobinPolicy::new())?;
/// assert_eq!(report.days, 1);
/// # Ok::<(), baat_sim::SimError>(())
/// ```
pub fn run_simulation<P: Policy>(config: SimConfig, policy: &mut P) -> Result<SimReport, SimError> {
    Simulation::new(config)?.run(policy)
}

/// Runs one configuration under one policy while recording metrics and
/// stage timings into `obs`.
///
/// The report is bit-identical to what [`run_simulation`] produces for
/// the same config: observation never perturbs the run.
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is rejected or the run hits
/// a broken engine invariant.
pub fn run_simulation_observed<P: Policy>(
    config: SimConfig,
    policy: &mut P,
    obs: Obs,
) -> Result<SimReport, SimError> {
    Simulation::with_obs(config, obs)?.run(policy)
}

/// Fraction of operating time servers were up, across the run (a simple
/// availability figure).
pub fn availability(report: &SimReport, operating: SimDuration) -> Fraction {
    if operating.is_zero() || report.nodes.is_empty() {
        return Fraction::ONE;
    }
    let total_downtime: f64 = report
        .nodes
        .iter()
        .map(|n| n.downtime.as_secs() as f64)
        .sum();
    let total_operating = operating.as_secs() as f64 * report.nodes.len() as f64;
    Fraction::saturating(1.0 - total_downtime / total_operating)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoundRobinPolicy;

    fn quick_config(weather: Weather) -> SimConfig {
        let mut b = SimConfig::builder();
        b.weather_plan(vec![weather])
            .dt(SimDuration::from_secs(30))
            .sample_every(10)
            .seed(7);
        b.build().unwrap()
    }

    #[test]
    fn one_sunny_day_runs_and_does_work() {
        let report =
            run_simulation(quick_config(Weather::Sunny), &mut RoundRobinPolicy::new()).unwrap();
        assert!(report.total_work > 0.0, "servers must compute");
        assert!(report.completed_jobs > 0, "batch jobs must finish");
        assert!(!report.recorder.is_empty());
        assert_eq!(report.nodes.len(), 6);
    }

    #[test]
    fn batteries_cycle_during_the_day() {
        let report =
            run_simulation(quick_config(Weather::Cloudy), &mut RoundRobinPolicy::new()).unwrap();
        for node in &report.nodes {
            assert!(
                node.lifetime_metrics.nat > 0.0,
                "node {} never discharged",
                node.node
            );
        }
        assert!(report.mean_damage() > 0.0);
    }

    #[test]
    fn rainy_day_stresses_batteries_more_than_sunny() {
        let sunny =
            run_simulation(quick_config(Weather::Sunny), &mut RoundRobinPolicy::new()).unwrap();
        let rainy =
            run_simulation(quick_config(Weather::Rainy), &mut RoundRobinPolicy::new()).unwrap();
        assert!(
            rainy.total_ah_discharged() > sunny.total_ah_discharged(),
            "rainy {} vs sunny {}",
            rainy.total_ah_discharged(),
            sunny.total_ah_discharged()
        );
        assert!(rainy.mean_damage() > sunny.mean_damage());
    }

    #[test]
    fn runs_are_deterministic() {
        let a =
            run_simulation(quick_config(Weather::Cloudy), &mut RoundRobinPolicy::new()).unwrap();
        let b =
            run_simulation(quick_config(Weather::Cloudy), &mut RoundRobinPolicy::new()).unwrap();
        assert_eq!(a.total_work, b.total_work);
        assert_eq!(a.mean_damage(), b.mean_damage());
        assert_eq!(a.events.len(), b.events.len());
    }

    #[test]
    fn observation_does_not_perturb_the_run() {
        let plain =
            run_simulation(quick_config(Weather::Cloudy), &mut RoundRobinPolicy::new()).unwrap();
        let obs = Obs::enabled();
        let observed = run_simulation_observed(
            quick_config(Weather::Cloudy),
            &mut RoundRobinPolicy::new(),
            obs.clone(),
        )
        .unwrap();
        assert_eq!(plain, observed, "obs must be side-effect-free");
        // And the registry actually recorded the run.
        assert!(!obs.snapshot().is_empty());
        assert!(!obs.stage_stats().is_empty());
        let steps = obs
            .stage_stats()
            .iter()
            .find(|s| s.stage == Stage::BatteryStep)
            .map(|s| s.calls)
            .unwrap_or(0);
        assert!(steps > 0, "battery steps must be profiled");
    }

    #[test]
    fn servers_idle_outside_operating_window() {
        let report =
            run_simulation(quick_config(Weather::Sunny), &mut RoundRobinPolicy::new()).unwrap();
        // Find a recorded row before 08:30: server power must be zero.
        let early = report
            .recorder
            .rows()
            .iter()
            .find(|r| r.at.time_of_day() < TimeOfDay::from_hm(8, 0))
            .expect("early rows exist");
        assert!(early.server_power.iter().all(|p| p.as_f64() == 0.0));
        // And a midday row with nonzero power.
        let midday = report
            .recorder
            .rows()
            .iter()
            .find(|r| {
                r.at.time_of_day() > TimeOfDay::from_hm(11, 0)
                    && r.at.time_of_day() < TimeOfDay::from_hm(12, 0)
            })
            .expect("midday rows exist");
        assert!(midday.server_power.iter().any(|p| p.as_f64() > 0.0));
    }

    #[test]
    fn pre_aging_increases_reported_damage() {
        let config = quick_config(Weather::Sunny);
        let mut sim = Simulation::new(config).unwrap();
        sim.pre_age_batteries(0.5);
        let mut policy = RoundRobinPolicy::new();
        let report = sim.run(&mut policy).unwrap();
        assert!(report.mean_damage() >= 0.5);
        for node in &report.nodes {
            assert!(node.capacity_fraction < 0.95);
        }
    }

    #[test]
    fn multi_day_run_advances_clock() {
        let mut b = SimConfig::builder();
        b.weather_plan(vec![Weather::Sunny, Weather::Rainy])
            .dt(SimDuration::from_secs(60))
            .sample_every(10)
            .seed(3);
        let config = b.build().unwrap();
        let report = run_simulation(config, &mut RoundRobinPolicy::new()).unwrap();
        assert_eq!(report.days, 2);
        let last = report.recorder.rows().last().unwrap();
        assert_eq!(last.at.day(), 1);
    }

    #[test]
    fn shared_pool_topology_runs_and_shares_telemetry() {
        use crate::config::BatteryTopology;
        let mut b = SimConfig::builder();
        b.weather_plan(vec![Weather::Cloudy])
            .dt(SimDuration::from_secs(30))
            .sample_every(10)
            .topology(BatteryTopology::SharedPool { pools: 2 })
            .seed(7);
        let config = b.build().unwrap();
        let report = run_simulation(config, &mut RoundRobinPolicy::new()).unwrap();
        assert!(report.total_work > 0.0);
        // Rack members share a bank: their battery stats are identical.
        assert_eq!(report.nodes[0].damage, report.nodes[1].damage);
        assert_eq!(report.nodes[0].damage, report.nodes[2].damage);
        assert_eq!(report.nodes[3].damage, report.nodes[5].damage);
        // The two pools differ (different loads + manufacturing spread).
        assert_ne!(report.nodes[0].damage, report.nodes[3].damage);
    }

    #[test]
    fn shared_pool_must_divide_nodes() {
        use crate::config::BatteryTopology;
        let mut b = SimConfig::builder();
        b.topology(BatteryTopology::SharedPool { pools: 4 }); // 6 % 4 != 0
        assert!(b.build().is_err());
        let mut b2 = SimConfig::builder();
        b2.topology(BatteryTopology::SharedPool { pools: 0 });
        assert!(b2.build().is_err());
    }

    #[test]
    fn shared_pool_sheds_one_server_at_a_time() {
        use crate::config::BatteryTopology;
        use crate::events::Event;
        // One big pool on a rainy day: shedding events must name
        // individual nodes, not kill the whole rack at once.
        let mut b = SimConfig::builder();
        b.weather_plan(vec![Weather::Rainy])
            .dt(SimDuration::from_secs(30))
            .sample_every(10)
            .topology(BatteryTopology::SharedPool { pools: 1 })
            .seed(3);
        let report = run_simulation(b.build().unwrap(), &mut RoundRobinPolicy::new()).unwrap();
        let shutdowns: Vec<usize> = report
            .events
            .iter()
            .filter_map(|e| match e.event {
                Event::ServerShutdown { node } => Some(node),
                _ => None,
            })
            .collect();
        assert!(!shutdowns.is_empty(), "a rainy day must shed load");
        // Nodes survive long enough that sheds happen at distinct times.
        assert!(report.total_work > 0.0);
    }

    #[test]
    fn availability_counts_downtime() {
        let report =
            run_simulation(quick_config(Weather::Rainy), &mut RoundRobinPolicy::new()).unwrap();
        let a = availability(&report, SimDuration::from_hours(10));
        assert!(a.value() <= 1.0);
    }
}
