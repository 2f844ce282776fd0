//! Time-series trace recording.
//!
//! The prototype's display module visualizes "data captured by sensors,
//! system log trace, and various aging metrics … in real time" (§V.A).
//! The recorder is the simulation's equivalent: downsampled per-node
//! series plus global series, consumed by the figure harness.

use baat_units::{SimInstant, Watts};

/// One recorded sample row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Sample time.
    pub at: SimInstant,
    /// Total solar power.
    pub solar: Watts,
    /// Per-node battery SoC (0–1).
    pub soc: Vec<f64>,
    /// Per-node server power.
    pub server_power: Vec<Watts>,
    /// Per-node battery current (positive = discharge), amperes.
    pub battery_current: Vec<f64>,
    /// Cumulative useful work (core-hours).
    pub work_cumulative: f64,
}

/// Downsampled time-series store.
///
/// The engine pre-sizes the row buffer from `Simulation::total_steps`
/// so long sweeps never re-grow (and re-copy) the `Vec` row by row. An
/// optional `max_rows` cap bounds memory on very long runs: when the
/// cap is reached the recorder halves its resolution in place (keeps
/// every other row and doubles the accepted-push stride), so the stored
/// series always spans the whole run at the finest resolution that
/// fits.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    rows: Vec<TraceRow>,
    max_rows: Option<usize>,
    /// Only every `keep_every`-th push is stored (doubles on each
    /// downsampling pass).
    keep_every: u64,
    /// Total pushes offered so far (stored or not).
    pushes: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::with_limits(0, None)
    }

    /// Creates an empty recorder pre-sized for `rows_hint` rows.
    pub fn with_capacity(rows_hint: usize) -> Self {
        Self::with_limits(rows_hint, None)
    }

    /// Creates an empty recorder pre-sized for `rows_hint` rows and
    /// bounded to at most `max_rows` stored rows (downsampling in place
    /// when the cap is hit). `None` keeps every offered row.
    pub fn with_limits(rows_hint: usize, max_rows: Option<usize>) -> Self {
        let capacity = match max_rows {
            Some(max) => rows_hint.min(max),
            None => rows_hint,
        };
        Self {
            rows: Vec::with_capacity(capacity),
            max_rows,
            keep_every: 1,
            pushes: 0,
        }
    }

    /// The configured row cap, if any.
    pub fn max_rows(&self) -> Option<usize> {
        self.max_rows
    }

    /// Current accepted-push stride (1 until the cap is first hit).
    pub fn stride(&self) -> u64 {
        self.keep_every
    }

    /// Total rows offered so far, stored or not (checkpoint view).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Rebuilds a recorder at a saved position: the retained rows, the
    /// configured cap, and the stride/push counters, exactly as captured
    /// from [`Recorder::rows`], [`Recorder::max_rows`],
    /// [`Recorder::stride`] and [`Recorder::pushes`]. Future pushes
    /// continue the same downsampling schedule bit-identically.
    pub fn from_parts(
        rows: Vec<TraceRow>,
        max_rows: Option<usize>,
        keep_every: u64,
        pushes: u64,
    ) -> Self {
        Self {
            rows,
            max_rows,
            keep_every: keep_every.max(1),
            pushes,
        }
    }

    /// Counts the next offered row and decides whether it is stored,
    /// running the cap-halving pass if due — the shared admission
    /// sequence behind [`Recorder::push`] and [`Recorder::push_with`].
    fn admit_next(&mut self) -> bool {
        let index = self.pushes;
        self.pushes += 1;
        if !index.is_multiple_of(self.keep_every) {
            return false;
        }
        if let Some(max) = self.max_rows {
            if self.rows.len() >= max.max(2) {
                // Stored rows are exactly the pushes ≡ 0 (mod stride);
                // keeping the even positions leaves the pushes ≡ 0
                // (mod 2·stride) — the same series at half resolution.
                let mut i = 0usize;
                self.rows.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.keep_every *= 2;
                if !index.is_multiple_of(self.keep_every) {
                    return false;
                }
            }
        }
        true
    }

    /// Offers a sample row. Without a cap every row is stored; with one,
    /// rows beyond the cap trigger an in-place halving of the stored
    /// series and a doubling of the stride.
    pub fn push(&mut self, row: TraceRow) {
        if self.admit_next() {
            self.rows.push(row);
        }
    }

    /// Offers a sample row built on demand: the stride/cap admission
    /// decision runs *first*, so rows the stride would drop cost nothing
    /// to produce. On capped long runs most offered rows are dropped
    /// (the stride doubles each time the cap is hit), which makes the
    /// builder skip the dominant cost of the recorder stage on large
    /// fleets. The stored series is identical to feeding every prebuilt
    /// row through [`Recorder::push`].
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; the offer is still counted (the
    /// admission decision already ran).
    pub fn push_with<E>(&mut self, build: impl FnOnce() -> Result<TraceRow, E>) -> Result<(), E> {
        if self.admit_next() {
            self.rows.push(build()?);
        }
        Ok(())
    }

    /// All rows in time order.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes one row as a single JSON object line (no trailing
    /// newline) — the same encoding [`Recorder::to_jsonl`] uses, shared
    /// with the flight recorder's telemetry ring.
    pub fn row_json(r: &TraceRow) -> String {
        use baat_obs::json::{f64_into, JsonLine};
        let mut line = JsonLine::new();
        line.u64_field("at_s", r.at.as_secs())
            .f64_field("solar_w", r.solar.as_f64());
        let mut soc = String::from("[");
        for (i, v) in r.soc.iter().enumerate() {
            if i > 0 {
                soc.push(',');
            }
            f64_into(&mut soc, *v);
        }
        soc.push(']');
        let mut power = String::from("[");
        for (i, p) in r.server_power.iter().enumerate() {
            if i > 0 {
                power.push(',');
            }
            f64_into(&mut power, p.as_f64());
        }
        power.push(']');
        let mut current = String::from("[");
        for (i, a) in r.battery_current.iter().enumerate() {
            if i > 0 {
                current.push(',');
            }
            f64_into(&mut current, *a);
        }
        current.push(']');
        line.raw_field("soc", &soc)
            .raw_field("server_w", &power)
            .raw_field("battery_a", &current)
            .f64_field("work_cumulative", r.work_cumulative);
        line.finish()
    }

    /// Renders the trace as JSONL (one object per sample row; per-node
    /// series as JSON arrays), for structured consumers.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&Self::row_json(r));
            out.push('\n');
        }
        out
    }

    /// Renders the trace as CSV (one row per sample; per-node SoC, server
    /// power and battery current columns), for plotting outside Rust.
    pub fn to_csv(&self) -> String {
        let nodes = self.rows.first().map_or(0, |r| r.soc.len());
        let mut out = String::from("time_s,solar_w");
        for i in 0..nodes {
            out.push_str(&format!(",soc_{i},server_w_{i},battery_a_{i}"));
        }
        out.push_str(",work_cumulative\n");
        for r in &self.rows {
            out.push_str(&format!("{},{:.1}", r.at.as_secs(), r.solar.as_f64()));
            for i in 0..nodes {
                out.push_str(&format!(
                    ",{:.4},{:.1},{:.2}",
                    r.soc[i],
                    r.server_power[i].as_f64(),
                    r.battery_current[i]
                ));
            }
            out.push_str(&format!(",{:.3}\n", r.work_cumulative));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(at: u64, soc: f64, work: f64) -> TraceRow {
        TraceRow {
            at: SimInstant::from_secs(at),
            solar: Watts::new(100.0),
            soc: vec![soc, soc / 2.0],
            server_power: vec![Watts::new(80.0), Watts::new(90.0)],
            battery_current: vec![1.0, -2.0],
            work_cumulative: work,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = Recorder::new();
        r.push(row(0, 1.0, 0.0));
        r.push(row(60, 0.8, 5.0));
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("time_s,solar_w,soc_0"));
        assert!(lines[2].starts_with("60,"));
    }

    #[test]
    fn empty_recorder() {
        let r = Recorder::new();
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_hint_presizes_without_changing_behavior() {
        let mut hinted = Recorder::with_capacity(64);
        let mut plain = Recorder::new();
        for i in 0..10 {
            hinted.push(row(i * 60, 1.0, i as f64));
            plain.push(row(i * 60, 1.0, i as f64));
        }
        assert_eq!(hinted, plain);
        assert_eq!(hinted.len(), 10);
    }

    #[test]
    fn max_rows_cap_halves_resolution_in_place() {
        let mut r = Recorder::with_limits(4, Some(4));
        for i in 0..16u64 {
            r.push(row(i * 60, 1.0, i as f64));
        }
        // Cap 4 over 16 pushes settles at stride 4: pushes 0,4,8,12.
        assert_eq!(r.stride(), 4);
        let times: Vec<u64> = r.rows().iter().map(|x| x.at.as_secs()).collect();
        assert_eq!(times, vec![0, 240, 480, 720]);
        assert!(r.len() <= 4);
        // The full span survives.
        assert_eq!(r.rows().last().map(|x| x.work_cumulative), Some(12.0));
    }

    #[test]
    fn capped_series_is_a_subset_of_the_uncapped_series() {
        let mut capped = Recorder::with_limits(8, Some(8));
        let mut full = Recorder::new();
        for i in 0..100u64 {
            let x = row(i * 30, 1.0 - i as f64 / 100.0, i as f64);
            capped.push(x.clone());
            full.push(x);
        }
        assert!(capped.len() <= 8);
        for kept in capped.rows() {
            assert!(full.rows().contains(kept));
        }
    }

    #[test]
    fn push_with_skips_building_dropped_rows() {
        let mut lazy = Recorder::with_limits(4, Some(4));
        let mut eager = Recorder::with_limits(4, Some(4));
        let mut built = 0usize;
        for i in 0..64u64 {
            let r = row(i * 60, 1.0, i as f64);
            eager.push(r.clone());
            lazy.push_with::<()>(|| {
                built += 1;
                Ok(r)
            })
            .unwrap();
        }
        assert_eq!(lazy, eager, "lazy and eager series must be identical");
        // Only the admitted rows (stored now, possibly displaced by a
        // later halving) were ever built — far fewer than the 64 offers.
        assert!(built < 16, "64 offers must build fewer than 16 rows");
    }

    #[test]
    fn no_cap_keeps_every_row() {
        let mut r = Recorder::with_capacity(2);
        for i in 0..50u64 {
            r.push(row(i, 1.0, 0.0));
        }
        assert_eq!(r.len(), 50);
        assert_eq!(r.stride(), 1);
    }
}
