//! Append-only history journals.
//!
//! A [`Journal`] keeps, for each of a fixed set of keys (nodes or
//! banks), the newest `limit` rows recorded under that key, the same
//! rows a per-key ring evicting its oldest row would keep. It stores
//! them differently: each push appends the row to one log in recording
//! order, so the hot path writes sequentially instead of into thousands
//! of scattered rings. The log is a deque of fixed-size chunks, and it
//! gives memory back a whole chunk at a time: once the newer chunks hold
//! every key's retained rows, the oldest chunk holds only evicted rows
//! and is retired without reading one. A retired row that its key still
//! retains (the key lagged the others, or the journal was restored)
//! moves to that key's *base*. The per-key view is built only when it is
//! read, by [`Journal::capture`] for a checkpoint.

use std::collections::VecDeque;

/// Rows per log chunk at most; a quarter of the retained rows caps it
/// for small journals. A chunk is allocated whole, so a push never
/// copies the rows before it.
const CHUNK: usize = 4_096;

/// Marks a key's retirement count once its share of the chunk is
/// settled.
const SETTLED: u32 = 1 << 31;

/// Per-key rows retained up to `limit` each, recorded through an
/// append-only log.
#[derive(Debug, Clone)]
pub struct Journal<T> {
    /// Rows restored, or moved in from retired chunks, per key, oldest
    /// first; each deque is reserved exactly and holds at most `limit`.
    base: Vec<VecDeque<T>>,
    /// Capacity of `base`, summed over keys.
    base_capacity: usize,
    /// Sealed chunks, oldest first.
    sealed: VecDeque<Chunk<T>>,
    /// Rows in `sealed`.
    sealed_rows: usize,
    /// The chunk pushes write to, newer than every sealed one.
    head: Chunk<T>,
    /// The key that extends the head's last run.
    next: usize,
    /// Rows each key holds in `base` and the log, evicted ones included.
    held: Vec<usize>,
    /// Per-key counts while a chunk retires, all zero otherwise; sized
    /// by the first retirement.
    scratch: Vec<u32>,
    /// Rows per chunk.
    chunk_rows: usize,
    /// Rows retained per key.
    limit: usize,
    /// Rows retirement has moved to the base.
    #[cfg(test)]
    moved: usize,
}

/// One stretch of the log: rows in recording order, and their keys as
/// runs. A chunk is full when its rows reach their capacity, so a
/// cloned head, whose capacity is its length, is sealed short rather
/// than grown.
#[derive(Debug, Clone)]
struct Chunk<T> {
    rows: Vec<T>,
    /// `(first key, run length)`: a run's rows are keyed `first`,
    /// `first + 1`, …, wrapping to key 0 after the last key, so a
    /// lockstep sweep over every key is one run however often it wraps.
    runs: Vec<(u32, u32)>,
}

impl<T> Chunk<T> {
    fn new(rows: usize) -> Self {
        Self {
            rows: Vec::with_capacity(rows),
            runs: Vec::new(),
        }
    }

    /// The key of each row, in order, for a journal over `keys` keys.
    fn keys(&self, keys: usize) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(move |&(first, len)| {
            let mut key = first as usize;
            (0..len).map(move |_| {
                let this = key;
                key += 1;
                if key == keys {
                    key = 0;
                }
                this
            })
        })
    }
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
        let keys = base.len();
        assert!(u32::try_from(keys).is_ok(), "journal keys fit a u32");
        Self {
            base_capacity: base.iter().map(VecDeque::capacity).sum(),
            held: base.iter().map(VecDeque::len).collect(),
            base,
            sealed: VecDeque::new(),
            sealed_rows: 0,
            head: Chunk::new(0),
            next: 0,
            scratch: Vec::new(),
            chunk_rows: CHUNK.min(keys.saturating_mul(limit) / 4).max(1),
            limit,
            #[cfg(test)]
            moved: 0,
        }
    }

    /// Records `row` under `key`, evicting that key's oldest row once it
    /// holds `limit`; a journal with limit 0 keeps nothing.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn push(&mut self, key: usize, row: T) {
        let keys = self.held.len();
        assert!(key < keys, "journal key {key} out of range");
        if self.limit == 0 {
            return;
        }
        if self.head.rows.len() == self.head.rows.capacity() {
            self.seal();
        }
        let head = &mut self.head;
        head.rows.push(row);
        match head.runs.last_mut() {
            Some((_, len)) if key == self.next => *len += 1,
            _ => head.runs.push((key as u32, 1)),
        }
        self.next = if key + 1 == keys { 0 } else { key + 1 };
        self.held[key] += 1;
    }

    /// Seals the full head into the log, retires the oldest chunks for
    /// as long as the base and the newer chunks still have room for
    /// every retained row, and starts a new head, reusing a retired
    /// chunk when there is one. Out of line, so that `push` stays small
    /// enough to inline.
    #[cold]
    #[inline(never)]
    fn seal(&mut self) {
        let head = std::mem::replace(&mut self.head, Chunk::new(0));
        if !head.rows.is_empty() {
            self.sealed_rows += head.rows.len();
            self.sealed.push_back(head);
        }
        let retained = self.held.len().saturating_mul(self.limit);
        let mut spare = None;
        while let Some(oldest) = self.sealed.front() {
            if self.base_capacity + self.sealed_rows - oldest.rows.len() < retained {
                break;
            }
            let oldest = self.sealed.pop_front().expect("front exists");
            self.sealed_rows -= oldest.rows.len();
            spare = Some(self.retire(oldest));
        }
        self.head = spare.unwrap_or_else(|| Chunk::new(self.chunk_rows));
    }

    /// Takes the oldest chunk out of the log. The evicted rows of each
    /// key in it are dropped, base rows first; rows the key still
    /// retains move to its base, reserved exactly once. Returns the
    /// chunk emptied.
    fn retire(&mut self, mut chunk: Chunk<T>) -> Chunk<T> {
        let keys = self.held.len();
        self.scratch.resize(keys, 0);
        for key in chunk.keys(keys) {
            self.scratch[key] += 1;
        }
        let mut moves = false;
        for key in chunk.keys(keys) {
            let rows = self.scratch[key];
            if rows & SETTLED != 0 {
                continue;
            }
            let rows = rows as usize;
            let base = &mut self.base[key];
            let newer = self.held[key] - base.len() - rows;
            let room = self.limit.saturating_sub(newer);
            let keep = rows.min(room);
            let keep_base = base.len().min(room - keep);
            base.drain(..base.len() - keep_base);
            let before = base.capacity();
            if keep > 0 {
                base.reserve_exact(keep);
                moves = true;
            } else if base.is_empty() {
                *base = VecDeque::new();
            }
            self.base_capacity = self.base_capacity + base.capacity() - before;
            self.held[key] = newer + keep_base + keep;
            // A chunk holds at most `CHUNK` rows, far below the flag.
            self.scratch[key] = SETTLED | (rows - keep) as u32;
        }
        if moves {
            for (key, &row) in chunk.keys(keys).zip(&chunk.rows) {
                let skip = &mut self.scratch[key];
                if *skip & !SETTLED > 0 {
                    *skip -= 1;
                } else {
                    self.base[key].push_back(row);
                    #[cfg(test)]
                    {
                        self.moved += 1;
                    }
                }
            }
        }
        for key in chunk.keys(keys) {
            self.scratch[key] = 0;
        }
        chunk.rows.clear();
        chunk.runs.clear();
        chunk
    }

    /// Every key's retained rows, oldest first, each in a `Vec` of
    /// exactly its length.
    pub fn capture(&self) -> Vec<Vec<T>> {
        // A key's oldest `held - limit` rows are evicted: its base rows
        // first, then its oldest logged ones.
        let mut skip = Vec::with_capacity(self.held.len());
        let mut rows: Vec<Vec<T>> = self
            .base
            .iter()
            .zip(&self.held)
            .map(|(base, &held)| {
                let evicted = held.saturating_sub(self.limit);
                let base_evicted = evicted.min(base.len());
                skip.push(evicted - base_evicted);
                let mut kept = Vec::with_capacity(held - evicted);
                kept.extend(base.range(base_evicted..));
                kept
            })
            .collect();
        for chunk in self.sealed.iter().chain([&self.head]) {
            for (key, &row) in chunk.keys(self.held.len()).zip(&chunk.rows) {
                if skip[key] > 0 {
                    skip[key] -= 1;
                } else {
                    rows[key].push(row);
                }
            }
        }
        rows
    }

    /// Rows held in memory, counting allocated but unused capacity.
    #[cfg(test)]
    fn allocated(&self) -> usize {
        let base: usize = self.base.iter().map(VecDeque::capacity).sum();
        assert_eq!(base, self.base_capacity);
        let log = self.sealed.iter().chain([&self.head]);
        base + log.map(|chunk| chunk.rows.capacity()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `rounds` rows to every key in key order, tracking the
    /// peak of [`Journal::allocated`].
    fn lockstep(journal: &mut Journal<u64>, rounds: usize) -> usize {
        let keys = journal.held.len();
        let mut peak = 0;
        for i in 0..rounds {
            for key in 0..keys {
                journal.push(key, i as u64);
                peak = peak.max(journal.allocated());
            }
        }
        peak
    }

    /// After ten limits' worth of pushes to every key, the journal holds
    /// at most the retained rows, a quarter more in the log, and one
    /// partly filled chunk; more precisely, the retained rows and two
    /// chunks.
    #[test]
    fn memory_stays_within_a_quarter_over_the_retained_rows() {
        for (keys, limit) in [(1, 1), (3, 7), (6, 4_096), (8, 8_192)] {
            let mut journal = Journal::new(keys, limit);
            let peak = lockstep(&mut journal, 10 * limit);
            let bound = keys * limit * 5 / 4 + CHUNK;
            assert!(peak <= bound, "{keys} keys x {limit}: {peak} > {bound}");
            let tight = keys * limit + 2 * journal.chunk_rows;
            assert!(peak <= tight, "{keys} keys x {limit}: {peak} > {tight}");
            let rows = journal.capture();
            assert!(rows
                .iter()
                .all(|r| r.len() == limit && r.capacity() == limit));
        }
    }

    /// Lockstep pushes, the order the engine records in, retire every
    /// chunk without copying a row: each row of the oldest chunk is
    /// already evicted when it goes.
    #[test]
    fn lockstep_pushes_never_move_a_row_to_the_base() {
        for (keys, limit) in [(6, 4_096), (8, 8_192)] {
            let mut journal = Journal::new(keys, limit);
            lockstep(&mut journal, 10 * limit);
            assert_eq!(journal.moved, 0, "{keys} keys x {limit}");
            assert!(journal.base.iter().all(|b| b.capacity() == 0));
            assert!(journal.sealed.iter().all(|c| c.runs.len() == 1));
        }
    }

    /// A clone taken mid-chunk seals its short head on the next push
    /// instead of growing it, and keeps recording exactly like the
    /// original.
    #[test]
    fn a_clone_records_like_its_original() {
        let (keys, limit) = (3, 4_096);
        let mut journal = Journal::new(keys, limit);
        lockstep(&mut journal, limit + 100);
        let mut clone = journal.clone();
        assert_eq!(clone.head.rows.capacity(), clone.head.rows.len());
        lockstep(&mut journal, 2 * limit);
        let peak = lockstep(&mut clone, 2 * limit);
        assert!(peak <= keys * limit + 2 * clone.chunk_rows, "{peak}");
        assert_eq!(clone.capture(), journal.capture());
        assert_eq!(clone.moved, 0);
    }

    /// A journal restored full and then pushed in lockstep, and one
    /// pushed in bursts by single keys, stay within the same bound.
    #[test]
    fn memory_bound_holds_after_restores_and_bursts() {
        for (keys, limit) in [(3, 7), (6, 4_096)] {
            let full: Vec<Vec<u64>> = (0..keys).map(|_| vec![7; limit]).collect();
            let mut journal = Journal::restore(full.iter().map(|r| &r[..]), limit);
            let bound = keys * limit + 2 * journal.chunk_rows;
            let peak = lockstep(&mut journal, 3 * limit);
            assert!(peak <= bound, "restored {keys} x {limit}: {peak} > {bound}");

            let mut journal = Journal::new(keys, limit);
            let mut peak = 0;
            for key in (0..keys).chain(0..keys) {
                for i in 0..3 * limit {
                    journal.push(key, i as u64);
                    peak = peak.max(journal.allocated());
                }
            }
            assert!(peak <= bound, "bursts {keys} x {limit}: {peak} > {bound}");
            let rows = journal.capture();
            assert!(rows.iter().all(|r| r.len() == limit));
        }
    }
}
