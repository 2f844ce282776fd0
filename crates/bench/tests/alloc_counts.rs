//! Allocation-count pins: `cargo test -p baat-bench --features
//! count-allocs --test alloc_counts`.
//!
//! Measured with a counting global allocator:
//!
//! 1. disabled obs handles — metrics, tracer, health monitor, flight
//!    recorder — perform **zero** heap allocations per operation;
//! 2. a full faulted day simulated with `Obs::disabled()` stays within
//!    the committed per-step allocation budget, i.e. the trace/health
//!    wiring added to the engine attributes no allocations to the
//!    disabled path;
//! 3. the checkpoint codec allocates per node, not per logged row:
//!    `to_bytes` allocates once, and decode plus restore cost the same
//!    at 2 h as at 8 h of one run;
//! 4. an over-subscribed fleet, whose job queue every control interval
//!    retries, stays within a per-interval allocation budget.
#![cfg(feature = "count-allocs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use baat_core::Scheme;
use baat_obs::{FlightRecorder, HealthConfig, HealthMonitor, NodeHealthSample, Obs, SpanId};
use baat_sim::{FaultMix, FaultPlan, SimConfig, SimSnapshot, Simulation};
use baat_solar::Weather;
use baat_units::SimDuration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method delegates to `System` with unchanged arguments;
// the counter update has no safety impact.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before, out)
}

/// Allocations per step budgeted for the engine's own step loop (events,
/// queues, amortized growth) on the faulted BAAT day below, which
/// measures 2.58/step. Disabled observability must not add to it, and
/// the inline routing pass adds nothing either.
const STEP_ALLOC_BUDGET: f64 = 2.8;

fn faulted_day_config() -> SimConfig {
    faulted_day_config_threads(1)
}

fn faulted_day_config_threads(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::builder();
    cfg.weather_plan(vec![Weather::Cloudy])
        .dt(SimDuration::from_secs(30))
        .sample_every(40)
        .threads(threads)
        .seed(1);
    let probe = cfg.build().expect("valid");
    cfg.faults(FaultPlan::generate(
        1,
        probe.days(),
        probe.nodes,
        probe.nodes,
        &FaultMix::light(),
    ));
    cfg.build().expect("valid")
}

/// One test fn runs every budget in turn: the counter is global, and
/// the harness allocates on its own thread as each test starts and
/// ends, which would leak into a concurrent test's exact counts.
#[test]
fn allocation_budgets() {
    disabled_observability_allocates_nothing();
    checkpoint_allocations_scale_with_nodes_not_rows();
    queue_retries_stay_in_the_interval_budget();
}

fn disabled_observability_allocates_nothing() {
    // --- invariant 1: disabled handles are allocation-free per op. ---
    let obs = Obs::disabled();
    let counter = obs.counter("alloc.test.counter");
    let gauge = obs.gauge("alloc.test.gauge");
    let histogram = obs.histogram("alloc.test.histogram");
    let tracer = obs.tracer();
    let mut health = HealthMonitor::new(HealthConfig::default(), &obs);
    let mut flight = FlightRecorder::new(64, obs.is_enabled());

    let (n, _) = allocs_during(|| {
        for i in 0..1000u64 {
            counter.inc();
            counter.add(i);
            gauge.set(i as f64);
            histogram.observe(i);
            let span = tracer.start("alloc.test", SpanId::NONE, i);
            tracer.attr_u64(span, "i", i);
            tracer.attr_f64(span, "f", 0.5);
            tracer.attr_str(span, "s", "x");
            tracer.attr_bool(span, "b", true);
            tracer.end(span, i + 1);
            health.push_sample(NodeHealthSample {
                node: 0,
                soc: 0.8,
                soc_floor: 0.4,
                damage: 0.001,
                degraded: false,
                charger_mode_switches: i,
                online: true,
            });
            health.evaluate(i * 60);
            flight.dump("degraded_mode", i * 60);
        }
    });
    assert_eq!(n, 0, "disabled obs handles allocated {n} times");
    assert!(health.events().is_empty());
    assert!(flight.dumps().is_empty());

    // --- invariant 2: a disabled-obs faulted day stays in budget. ---
    let config = faulted_day_config();
    let mut sim = Simulation::with_obs(config, Obs::disabled()).expect("valid");
    let mut policy = Scheme::Baat.build();
    let steps = sim.total_steps();
    let (n, result) = allocs_during(|| sim.run_steps(&mut policy, steps));
    result.expect("runs");
    let per_step = n as f64 / steps as f64;
    println!("allocs/step, 1 engine thread: {per_step:.3} (budget {STEP_ALLOC_BUDGET})");
    assert!(
        per_step < STEP_ALLOC_BUDGET,
        "faulted day with disabled obs allocated {per_step:.3}/step \
         (budget {STEP_ALLOC_BUDGET})"
    );

    // --- invariant 3: the sharded engine with disabled obs stays in
    // its own budget. The extra headroom over `STEP_ALLOC_BUDGET` is
    // the pool's inherent per-batch dispatch cost (the shard ranges, the
    // task list, the result-slot and result vectors); shards write
    // their outcomes into the shared scratch buffer, so there are no
    // per-shard output vectors. Measures 6.58/step. The metering itself
    // must add nothing:
    // worker meters are sized at pool construction, per-shard timing
    // vectors live in the reusable step scratch, and the off path is
    // one relaxed load per batch — any metering allocation would blow
    // the tight margin. The counting allocator is global, so
    // worker-thread allocations are counted too.
    const SHARDED_STEP_ALLOC_BUDGET: f64 = 7.5;
    let config = faulted_day_config_threads(4);
    let mut sim = Simulation::with_obs(config, Obs::disabled()).expect("valid");
    let mut policy = Scheme::Baat.build();
    let steps = sim.total_steps();
    let (n, result) = allocs_during(|| sim.run_steps(&mut policy, steps));
    result.expect("runs");
    let per_step = n as f64 / steps as f64;
    println!("allocs/step, 4 engine threads: {per_step:.3} (budget {SHARDED_STEP_ALLOC_BUDGET})");
    assert!(
        per_step < SHARDED_STEP_ALLOC_BUDGET,
        "sharded faulted day with disabled obs allocated {per_step:.3}/step \
         (budget {SHARDED_STEP_ALLOC_BUDGET})"
    );
}

/// The checkpoint codec's allocations scale with the fleet, not with the
/// rows its histories have logged: `to_bytes` allocates its one output
/// buffer, and decoding plus restoring a snapshot taken at 8 h costs
/// exactly as many allocations as one taken at 2 h of the same run.
fn checkpoint_allocations_scale_with_nodes_not_rows() {
    let mut cfg = SimConfig::builder();
    // One trace row (step 0) in both snapshots: the recorder's rows stay
    // fixed here, so only the power-table and telemetry histories grow.
    cfg.weather_plan(vec![Weather::Cloudy])
        .sample_every(1 << 20)
        .seed(5);
    let config = cfg.build().expect("valid");
    let mut sim = Simulation::new(config.clone()).expect("valid");
    let mut policy = Scheme::Baat.build();
    let steps_per_hour = 3600 / config.dt.as_secs();
    let mut round_trip = |hours: u64| {
        let target = hours * steps_per_hour;
        sim.run_steps(&mut policy, target - sim.step_index())
            .expect("runs");
        let snapshot = sim.snapshot_with_policy(&policy);
        let (encode, bytes) = allocs_during(|| snapshot.to_bytes());
        assert_eq!(encode, 1, "to_bytes at {hours} h allocated {encode} times");
        let (resume, restored) = allocs_during(|| {
            let decoded = SimSnapshot::from_bytes(&bytes).expect("decodes");
            Simulation::restore(config.clone(), &decoded).expect("restores")
        });
        assert_eq!(restored.state_hash(), sim.state_hash());
        (resume, snapshot.state.power_table[0].0.len())
    };
    let (early, early_rows) = round_trip(2);
    let (late, late_rows) = round_trip(8);
    println!(
        "from_bytes + restore allocations: {early} at 2 h ({early_rows} rows/node), \
         {late} at 8 h ({late_rows} rows/node)"
    );
    assert!(
        late_rows >= 4 * early_rows,
        "{early_rows} -> {late_rows} rows"
    );
    assert_eq!(
        early, late,
        "decode + restore allocations grew with logged rows"
    );
}

/// Allocations per control interval budgeted for an over-subscribed
/// fleet: four hosts through two rainy days under a mix far beyond
/// their capacity, one step per control interval, so the pending queue
/// holds hundreds of jobs that every interval retries. Measures 3.68
/// (e-Buff) and 4.25 (BAAT) per interval. The retry itself allocates
/// nothing: a job that stays queued stays where it is, and the per-kind
/// FIFOs keep their capacity from pass to pass.
const INTERVAL_ALLOC_BUDGET: f64 = 4.5;

fn queue_retries_stay_in_the_interval_budget() {
    let mut cfg = SimConfig::builder();
    cfg.weather_plan(vec![Weather::Rainy, Weather::Rainy])
        .nodes(4)
        .workload_mix(12, 160)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(3);
    let config = cfg.build().expect("valid");
    for scheme in [Scheme::EBuff, Scheme::Baat] {
        let mut sim = Simulation::with_obs(config.clone(), Obs::disabled()).expect("valid");
        let mut policy = scheme.build();
        let intervals = sim.total_steps();
        let (n, result) = allocs_during(|| sim.run_steps(&mut policy, intervals));
        result.expect("runs");
        let queued = sim.snapshot().state.pending.len();
        assert!(queued >= 100, "{scheme}: only {queued} jobs queued");
        let per_interval = n as f64 / intervals as f64;
        println!(
            "allocs/control interval, {scheme} with {queued} jobs queued: {per_interval:.3} \
             (budget {INTERVAL_ALLOC_BUDGET})"
        );
        assert!(
            per_interval < INTERVAL_ALLOC_BUDGET,
            "{scheme}: over-subscribed fleet allocated {per_interval:.3}/interval \
             (budget {INTERVAL_ALLOC_BUDGET})"
        );
    }
}
