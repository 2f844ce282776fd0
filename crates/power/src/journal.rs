//! Append-only history journals.
//!
//! A [`Journal`] keeps, for each of a fixed set of keys (nodes or
//! banks), the newest `limit` rows recorded under that key, the same
//! rows a per-key ring evicting its oldest row would keep. It stores
//! them differently: each push appends `(key, row)` to one log in
//! recording order, so the hot path writes sequentially instead of into
//! thousands of scattered rings. The per-key view is built only when it
//! is read: [`Journal::capture`] for a checkpoint, and compaction, which
//! folds the log into the per-key base once the log outgrows a quarter
//! of the retained rows.

use std::collections::VecDeque;

/// Entries per log chunk. The log grows a chunk at a time, so a push
/// never copies the entries before it.
const CHUNK: usize = 4_096;

/// Per-key rows retained up to `limit` each, recorded through an
/// append-only log.
#[derive(Debug, Clone)]
pub struct Journal<T> {
    /// Rows folded in by restore or compaction, per key, oldest first;
    /// each holds at most `limit`. A deque, so compaction drops evicted
    /// rows from the front without moving the rest.
    base: Vec<VecDeque<T>>,
    /// `(key, row)` pushed since, in recording order, in chunks of
    /// [`CHUNK`] entries.
    log: Vec<Vec<(u32, T)>>,
    /// Entries in `log`.
    logged: usize,
    /// Rows retained per key.
    limit: usize,
}

impl<T: Copy> Journal<T> {
    /// An empty journal over `keys` keys retaining `limit` rows each.
    pub fn new(keys: usize, limit: usize) -> Self {
        Self::restore((0..keys).map(|_| &[][..]), limit)
    }

    /// A journal holding `rows`, one oldest-first slice per key. Each
    /// key keeps its newest `limit` rows, exactly as pushing the rows
    /// one by one would.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` keys.
    pub fn restore<'a>(rows: impl Iterator<Item = &'a [T]>, limit: usize) -> Self
    where
        T: 'a,
    {
        let base: Vec<VecDeque<T>> = rows
            .map(|rows| rows[rows.len().saturating_sub(limit)..].to_vec().into())
            .collect();
        assert!(u32::try_from(base.len()).is_ok(), "journal keys fit a u32");
        Self {
            base,
            log: Vec::new(),
            logged: 0,
            limit,
        }
    }

    /// Records `row` under `key`, evicting that key's oldest row once it
    /// holds `limit`; a journal with limit 0 keeps nothing.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn push(&mut self, key: usize, row: T) {
        assert!(key < self.base.len(), "journal key {key} out of range");
        if self.limit == 0 {
            return;
        }
        let chunk = self.logged / CHUNK;
        if chunk == self.log.len() {
            self.grow();
        }
        self.log[chunk].push((key as u32, row));
        self.logged += 1;
        if self.logged > self.base.len() * self.limit / 4 {
            self.compact();
        }
    }

    /// Adds an empty chunk to the log. Out of line, like [`compact`],
    /// so that `push` stays small enough to inline.
    ///
    /// [`compact`]: Journal::compact
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.log.push(Vec::with_capacity(CHUNK));
    }

    /// Every key's retained rows, oldest first, each in a `Vec` of
    /// exactly its length.
    pub fn capture(&self) -> Vec<Vec<T>> {
        let splits = self.split();
        let mut rows: Vec<Vec<T>> = self
            .base
            .iter()
            .zip(&splits)
            .map(|(base, split)| {
                let mut kept = Vec::with_capacity(split.kept);
                kept.extend(base.range(split.base_evicted..));
                kept
            })
            .collect();
        fold_log(&self.log, splits, |key, row| rows[key].push(row));
        rows
    }

    /// Folds the log into the base, dropping every evicted row, and
    /// empties the log.
    #[cold]
    #[inline(never)]
    fn compact(&mut self) {
        let splits = self.split();
        for (base, split) in self.base.iter_mut().zip(&splits) {
            base.drain(..split.base_evicted);
            base.reserve_exact(split.kept - base.len());
        }
        let base = &mut self.base;
        fold_log(&self.log, splits, |key, row| base[key].push_back(row));
        self.log.clear();
        self.logged = 0;
    }

    /// How each key's rows split between evicted and kept.
    fn split(&self) -> Vec<Split> {
        let mut logged = vec![0usize; self.base.len()];
        for chunk in &self.log {
            for &(key, _) in chunk {
                logged[key as usize] += 1;
            }
        }
        self.base
            .iter()
            .zip(logged)
            .map(|(base, logged)| {
                let total = base.len() + logged;
                let evicted = total.saturating_sub(self.limit);
                let base_evicted = evicted.min(base.len());
                Split {
                    base_evicted,
                    log_evicted: evicted - base_evicted,
                    kept: total - evicted,
                }
            })
            .collect()
    }

    /// Rows held in memory, counting allocated but unused capacity.
    #[cfg(test)]
    fn held(&self) -> usize {
        let base: usize = self.base.iter().map(VecDeque::capacity).sum();
        base + self.log.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// One key's share of a fold: its oldest `base_evicted` base rows and
/// then its oldest `log_evicted` logged rows fall out of the newest
/// `limit`, leaving `kept`.
#[derive(Debug, Clone, Copy)]
struct Split {
    base_evicted: usize,
    log_evicted: usize,
    kept: usize,
}

/// Hands each logged row to `keep` with its key, in recording order,
/// after skipping the key's first `log_evicted` entries.
fn fold_log<T: Copy>(
    log: &[Vec<(u32, T)>],
    mut splits: Vec<Split>,
    mut keep: impl FnMut(usize, T),
) {
    for &(key, row) in log.iter().flatten() {
        let key = key as usize;
        let skip = &mut splits[key].log_evicted;
        if *skip > 0 {
            *skip -= 1;
        } else {
            keep(key, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// After ten limits' worth of pushes to every key, the journal holds
    /// at most the retained rows, a quarter more in the log, and one
    /// partly filled chunk.
    #[test]
    fn memory_stays_within_a_quarter_over_the_retained_rows() {
        for (keys, limit) in [(1, 1), (3, 7), (6, 4_096), (8, 8_192)] {
            let mut journal = Journal::new(keys, limit);
            let mut peak = 0;
            for i in 0..10 * limit {
                for key in 0..keys {
                    journal.push(key, i as u64);
                    peak = peak.max(journal.held());
                }
            }
            let bound = keys * limit * 5 / 4 + CHUNK;
            assert!(peak <= bound, "{keys} keys x {limit}: {peak} > {bound}");
            let rows = journal.capture();
            assert!(rows
                .iter()
                .all(|r| r.len() == limit && r.capacity() == limit));
        }
    }
}
