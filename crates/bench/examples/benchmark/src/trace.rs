//! In-memory spans recorded around calls into the simulator's public
//! API, and the forwarding policy wrapper that times `Policy::control`.
//!
//! Spans never enter engine code: the benchmark opens one before calling a
//! public function and closes it after. They stay in memory until the
//! run ends and are then written out as `spans.jsonl`.

use std::time::Instant;

use baat_obs::json::JsonLine;
use baat_sim::{Action, ControlCtx, PlacementSpec, Policy, SystemView};
use baat_workload::WorkloadKind;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.step.window` or `core.control`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced pass of the run the span belongs to.
    pub pass: u32,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Tags spans opened from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children of one span may not overlap in time, but
/// the union is taken anyway so a malformed trace cannot go negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Renders spans as JSON lines: id, name, pass, start, end, parent and
/// self time, all times in nanoseconds since the run's first span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let mut line = JsonLine::new();
        line.u64_field("id", id as u64)
            .str_field("name", s.name)
            .u64_field("pass", u64::from(s.pass))
            .u64_field("start_ns", s.start_ns)
            .u64_field("end_ns", s.end_ns);
        match s.parent {
            Some(p) => line.u64_field("parent", p as u64),
            None => line.raw_field("parent", "null"),
        };
        line.u64_field("self_ns", self_ns);
        out.push_str(&line.finish());
        out.push('\n');
    }
    out
}

/// Counters the wrapper keeps about the control calls it forwarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlCounts {
    /// `control` calls.
    pub calls: u64,
    /// Actions the policy returned.
    pub actions: u64,
    /// Outcomes the engine handed back through `ControlCtx::last_outcomes`.
    pub outcomes: u64,
    /// Of those, rejected ones.
    pub rejected: u64,
}

/// A forwarding [`Policy`] that opens a `core.control` span around each
/// `control` call and counts what passes through. Every other method
/// forwards unchanged, including `placement_spec`, so the engine keeps
/// its incremental placement path and the run stays bit-identical.
pub struct TracedPolicy<'t, P> {
    /// The wrapped policy.
    pub inner: P,
    /// Where spans go; the benchmark opens its own spans here too.
    pub tracer: &'t mut Tracer,
    /// Totals over every forwarded call.
    pub counts: ControlCounts,
    /// Set by `control`; the benchmark clears it before each step.
    pub controlled: bool,
}

impl<'t, P: Policy> TracedPolicy<'t, P> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: P, tracer: &'t mut Tracer) -> Self {
        Self {
            inner,
            tracer,
            counts: ControlCounts::default(),
            controlled: false,
        }
    }
}

impl<P: Policy> Policy for TracedPolicy<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, view: &SystemView, ctx: &ControlCtx<'_>) -> Vec<Action> {
        let id = self.tracer.open("core.control");
        let actions = self.inner.control(view, ctx);
        self.tracer.close(id);
        self.controlled = true;
        self.counts.calls += 1;
        self.counts.actions += actions.len() as u64;
        self.counts.outcomes += ctx.last_outcomes.len() as u64;
        self.counts.rejected += ctx.last_outcomes.iter().filter(|o| o.is_rejected()).count() as u64;
        actions
    }

    fn placement_order(&mut self, kind: WorkloadKind, view: &SystemView) -> Vec<usize> {
        self.inner.placement_order(kind, view)
    }

    fn placement_spec(&self) -> PlacementSpec {
        self.inner.placement_spec()
    }

    fn save_state(&self) -> Vec<u64> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &[u64]) {
        self.inner.load_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baat_bench::runner::fleet_config;
    use baat_core::Scheme;
    use baat_sim::Simulation;
    use baat_solar::Weather;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span("step", 0, 100, None),
            span("control", 10, 40, Some(0)),
            span("inner", 15, 35, Some(1)),
            span("view", 50, 70, Some(0)),
            span("report", 100, 130, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20, 30]);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_double_counted() {
        let spans = [
            span("parent", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_spans_in_opening_order() {
        let mut t = Tracer::new();
        t.set_pass(3);
        let outer = t.open("outer");
        t.span("inner", || ());
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].pass, 3);
        let jsonl = spans_jsonl(s);
        assert!(jsonl.starts_with(r#"{"id":0,"name":"outer","pass":3,"#));
        assert!(jsonl.contains(r#""parent":null"#) && jsonl.contains(r#""parent":0,"#));
    }

    #[test]
    fn wrapped_policy_leaves_a_24_host_day_bit_identical() {
        for scheme in [Scheme::Baat, Scheme::BaatH] {
            let config = fleet_config(24, Weather::Cloudy, 5);
            let mut plain = Simulation::new(config.clone()).expect("valid config");
            let mut policy = scheme.build();
            let steps = plain.total_steps();
            plain.run_steps(&mut policy, steps).expect("day runs");

            let mut traced = Simulation::new(config).expect("valid config");
            let mut tracer = Tracer::new();
            let mut wrapper = TracedPolicy::new(scheme.build(), &mut tracer);
            traced.run_steps(&mut wrapper, steps).expect("day runs");

            assert_eq!(plain.state_hash(), traced.state_hash(), "{scheme}");
            assert_eq!(wrapper.placement_spec(), policy.placement_spec());
            assert_eq!(wrapper.save_state(), policy.save_state());
            let calls = wrapper.counts.calls;
            assert!(calls > 0);
            assert_eq!(tracer.spans().len() as u64, calls);
        }
    }
}
