//! Append-only history journals and the shared histories they capture.
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
//! moves to that key's *base*.
//!
//! Stored rows never change: a sealed chunk is immutable behind an
//! [`Arc`], and the base is one `Arc`-shared block that retirement edits
//! through [`Arc::make_mut`]. So [`Journal::capture`] returns a
//! [`History`] that shares the journal's segments instead of copying
//! them, copying only the head chunk pushes still write to, and
//! [`Journal::restore`] adopts a history's segments the same way. Both
//! cost O(keys + chunks), whatever the rows. The one copy left is the
//! base's: retiring a chunk while a captured history still holds the
//! base copies the base once.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Rows per log chunk at most; a quarter of the retained rows caps it
/// for small journals. A chunk is allocated whole, so a push never
/// copies the rows before it.
const CHUNK: usize = 4_096;

/// Marks a key's retirement count once its share of the chunk is
/// settled.
const SETTLED: u32 = 1 << 31;

/// Keys a block walk covers at most.
const BLOCK: usize = 64;

/// Per-key rows retained up to `limit` each, oldest first: restored
/// rows, or rows moved in from retired chunks.
type Base<T> = Vec<VecDeque<T>>;

/// Per-key rows retained up to `limit` each, recorded through an
/// append-only log.
#[derive(Debug, Clone)]
pub struct Journal<T> {
    /// Rows restored, or moved in from retired chunks, per key, oldest
    /// first; shared with the histories captured since it last changed.
    base: Arc<Base<T>>,
    /// Capacity of `base`, summed over keys.
    base_capacity: usize,
    /// Sealed chunks, oldest first, shared with captured histories.
    sealed: VecDeque<Arc<Chunk<T>>>,
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

    /// Calls `f(key - keys.start, row)` for each row of the keys in
    /// `keys`, in order, for a journal over `stride` keys. Within a run,
    /// the rows of neighbouring keys lie side by side, so the block's
    /// rows are read as one stretch per sweep over the keys.
    fn for_each_in(&self, keys: &Range<usize>, stride: usize, mut f: impl FnMut(usize, &T)) {
        let block = keys.len();
        let mut start = 0;
        for &(first, len) in &self.runs {
            let run = &self.rows[start..start + len as usize];
            start += run.len();
            // The block index of the run's first key: `block` or more
            // lies outside the block.
            let first = (first as usize + stride - keys.start) % stride;
            let mut at = 0;
            while at < run.len() {
                let i = (first + at) % stride;
                if i >= block {
                    at += stride - i;
                    continue;
                }
                let n = (block - i).min(run.len() - at);
                for (j, row) in run[at..at + n].iter().enumerate() {
                    f(i + j, row);
                }
                at += n;
            }
        }
    }

    /// The newest row of `key`, if the chunk holds one.
    fn last(&self, key: usize, keys: usize) -> Option<&T> {
        let mut end = self.rows.len();
        for &(first, len) in self.runs.iter().rev() {
            let start = end - len as usize;
            let offset = (key + keys - first as usize) % keys;
            if let Some(after) = (len as usize).checked_sub(offset + 1) {
                return Some(&self.rows[start + offset + after / keys * keys]);
            }
            end = start;
        }
        None
    }
}

/// Rows per chunk for `keys` keys retaining `limit` rows each.
fn chunk_rows(keys: usize, limit: usize) -> usize {
    CHUNK.min(keys.saturating_mul(limit) / 4).max(1)
}

impl<T: Copy> Journal<T> {
    /// An empty journal over `keys` keys retaining `limit` rows each.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` keys.
    pub fn new(keys: usize, limit: usize) -> Self {
        assert!(u32::try_from(keys).is_ok(), "journal keys fit a u32");
        let base = Arc::new((0..keys).map(|_| VecDeque::new()).collect());
        Self::from_parts(base, VecDeque::new(), vec![0; keys], limit)
    }

    /// A journal holding `history`'s rows at its limit, recording on
    /// exactly as the journal it was captured from would. The journal
    /// shares the history's segments: O(keys + chunks), whatever the
    /// rows.
    pub fn restore(history: &History<T>) -> Self {
        let sealed = history.chunks.iter().cloned().collect();
        let base = Arc::clone(&history.base);
        Self::from_parts(base, sealed, history.held.clone(), history.limit)
    }

    /// A journal over `base` and `sealed` with an empty head.
    fn from_parts(
        base: Arc<Base<T>>,
        sealed: VecDeque<Arc<Chunk<T>>>,
        held: Vec<usize>,
        limit: usize,
    ) -> Self {
        Self {
            base_capacity: base.iter().map(VecDeque::capacity).sum(),
            base,
            sealed_rows: sealed.iter().map(|c| c.rows.len()).sum(),
            sealed,
            head: Chunk::new(0),
            next: 0,
            chunk_rows: chunk_rows(held.len(), limit),
            held,
            scratch: Vec::new(),
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
    /// chunk that no history shares. Out of line, so that `push` stays
    /// small enough to inline.
    #[cold]
    #[inline(never)]
    fn seal(&mut self) {
        let head = std::mem::replace(&mut self.head, Chunk::new(0));
        if !head.rows.is_empty() {
            self.sealed_rows += head.rows.len();
            self.sealed.push_back(Arc::new(head));
        }
        let retained = self.held.len().saturating_mul(self.limit);
        let mut spare = None;
        while let Some(oldest) = self.sealed.front() {
            if self.base_capacity + self.sealed_rows - oldest.rows.len() < retained {
                break;
            }
            let oldest = self.sealed.pop_front().expect("front exists");
            self.sealed_rows -= oldest.rows.len();
            self.retire(&oldest);
            spare = Arc::try_unwrap(oldest).ok().or(spare);
        }
        self.head = match spare {
            Some(mut chunk) => {
                chunk.rows.clear();
                chunk.runs.clear();
                chunk
            }
            None => Chunk::new(self.chunk_rows),
        };
    }

    /// The base, for an edit: copied first if a captured history still
    /// shares it.
    fn base_mut(&mut self) -> &mut Base<T> {
        let shared = Arc::get_mut(&mut self.base).is_none();
        let base = Arc::make_mut(&mut self.base);
        if shared {
            self.base_capacity = base.iter().map(VecDeque::capacity).sum();
        }
        base
    }

    /// Takes the oldest chunk out of the log. The evicted rows of each
    /// key in it are dropped, base rows first; rows the key still
    /// retains move to its base, reserved exactly once. A key whose base
    /// needs no edit leaves the base shared.
    fn retire(&mut self, chunk: &Chunk<T>) {
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
            let base = &self.base[key];
            let len = base.len();
            let newer = self.held[key] - len - rows;
            let room = self.limit.saturating_sub(newer);
            let keep = rows.min(room);
            let keep_base = len.min(room - keep);
            if keep > 0 || keep_base < len || (len == 0 && base.capacity() > 0) {
                let base = &mut self.base_mut()[key];
                let before = base.capacity();
                base.drain(..len - keep_base);
                if keep > 0 {
                    base.reserve_exact(keep);
                    moves = true;
                } else if base.is_empty() {
                    *base = VecDeque::new();
                }
                let after = base.capacity();
                self.base_capacity = self.base_capacity + after - before;
            }
            self.held[key] = newer + keep_base + keep;
            // A chunk holds at most `CHUNK` rows, far below the flag.
            self.scratch[key] = SETTLED | (rows - keep) as u32;
        }
        if moves {
            // Reserving for a moved row made the base unshared.
            let base = Arc::get_mut(&mut self.base).expect("base unshared by retirement");
            for (key, &row) in chunk.keys(keys).zip(&chunk.rows) {
                let skip = &mut self.scratch[key];
                if *skip & !SETTLED > 0 {
                    *skip -= 1;
                } else {
                    base[key].push_back(row);
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
    }

    /// Every key's retained rows, as a history sharing the journal's
    /// base and sealed chunks and holding a copy of its head: O(keys +
    /// chunks), whatever the rows.
    pub fn capture(&self) -> History<T> {
        let mut chunks = Vec::with_capacity(self.sealed.len() + 1);
        chunks.extend(self.sealed.iter().cloned());
        if !self.head.rows.is_empty() {
            chunks.push(Arc::new(self.head.clone()));
        }
        History {
            base: Arc::clone(&self.base),
            chunks,
            held: self.held.clone(),
            limit: self.limit,
        }
    }

    /// Rows held in memory, counting allocated but unused capacity.
    #[cfg(test)]
    fn allocated(&self) -> usize {
        let base: usize = self.base.iter().map(VecDeque::capacity).sum();
        assert_eq!(base, self.base_capacity);
        let sealed = self.sealed.iter().map(|chunk| chunk.rows.capacity());
        base + sealed.sum::<usize>() + self.head.rows.capacity()
    }
}

/// An immutable per-key view of a [`Journal`]'s retained rows: its
/// shared base and chunks, a copy of its head, and each key's count of
/// rows held, from which the evicted ones follow. Cloning shares the
/// segments too.
///
/// Two histories are equal when they retain the same rows per key at
/// the same limit, however their segments are laid out.
#[derive(Clone)]
pub struct History<T> {
    base: Arc<Base<T>>,
    /// Sealed chunks, oldest first, then the head's copy.
    chunks: Vec<Arc<Chunk<T>>>,
    /// Rows each key holds in `base` and `chunks`, evicted ones
    /// included: a key's oldest `held - limit` rows are evicted, its
    /// base rows first.
    held: Vec<usize>,
    limit: usize,
}

impl<T> History<T> {
    /// Keys [`History::for_each_row`] walks at a time at most.
    pub const BLOCK: usize = BLOCK;

    /// A history holding `rows`, one oldest-first `Vec` per key, at
    /// retention `limit`: each key keeps its newest `limit` rows, as
    /// recording the rows one by one would. The `Vec`s become the
    /// history's base as they are, without a copy.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` keys.
    pub fn from_rows(rows: Vec<Vec<T>>, limit: usize) -> Self {
        assert!(u32::try_from(rows.len()).is_ok(), "history keys fit a u32");
        Self {
            held: rows.iter().map(Vec::len).collect(),
            base: Arc::new(rows.into_iter().map(VecDeque::from).collect()),
            chunks: Vec::new(),
            limit,
        }
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.held.len()
    }

    /// Rows retained per key at most.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Rows `key` retains.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn len(&self, key: usize) -> usize {
        self.held[key].min(self.limit)
    }

    /// Calls `f(key - keys.start, row)` for every row the keys in `keys`
    /// retain, each key's rows oldest first. A lockstep chunk holds a
    /// key's rows a whole sweep apart, so the keys are walked together,
    /// chunk by chunk, their rows interleaved: a block of neighbouring
    /// keys reads each sweep's stretch of their rows once, not once per
    /// key, and the walk costs O(rows + sweeps + chunks). At most
    /// [`History::BLOCK`] keys a call.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is out of range or longer than `BLOCK`.
    pub fn for_each_row(&self, keys: Range<usize>, mut f: impl FnMut(usize, &T)) {
        assert!(keys.len() <= Self::BLOCK, "at most {} keys", Self::BLOCK);
        let stride = self.keys();
        // Evicted base rows go first, then the oldest logged ones.
        let mut skip = [0; BLOCK];
        for (i, key) in keys.clone().enumerate() {
            let evicted = self.held[key] - self.len(key);
            let base = &self.base[key];
            skip[i] = evicted.saturating_sub(base.len());
            base.range(evicted.min(base.len())..)
                .for_each(|row| f(i, row));
        }
        if keys.is_empty() {
            return;
        }
        for chunk in &self.chunks {
            chunk.for_each_in(&keys, stride, |i, row| match &mut skip[i] {
                0 => f(i, row),
                evicted => *evicted -= 1,
            });
        }
    }

    /// The newest row `key` retains.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn last(&self, key: usize) -> Option<&T> {
        if self.len(key) == 0 {
            return None;
        }
        let keys = self.keys();
        let logged = self.chunks.iter().rev().find_map(|c| c.last(key, keys));
        logged.or_else(|| self.base[key].back())
    }
}

impl<T: Copy> History<T> {
    /// Every key's retained rows, oldest first, each in a `Vec` of
    /// exactly its length.
    pub fn to_rows(&self) -> Vec<Vec<T>> {
        (0..self.keys())
            .map(|key| {
                let mut rows = Vec::with_capacity(self.len(key));
                self.for_each_row(key..key + 1, |_, &row| rows.push(row));
                rows
            })
            .collect()
    }
}

impl<T: Copy + PartialEq> PartialEq for History<T> {
    fn eq(&self, other: &Self) -> bool {
        self.limit == other.limit && self.to_rows() == other.to_rows()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for History<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("History")
            .field("limit", &self.limit)
            .field("rows", &self.to_rows())
            .finish()
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
            let rows = journal.capture().to_rows();
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
            let full = History::from_rows(vec![vec![7; limit]; keys], limit);
            let mut journal = Journal::restore(&full);
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
            let history = journal.capture();
            assert!((0..keys).all(|key| history.len(key) == limit));
        }
    }

    /// Capture and restore share every sealed chunk and the base instead
    /// of copying them; only the head is copied.
    #[test]
    fn capture_and_restore_share_the_segments() {
        let (keys, limit) = (5, 4_096);
        let mut journal = Journal::new(keys, limit);
        lockstep(&mut journal, 2_000);
        let history = journal.capture();
        assert!(Arc::ptr_eq(&history.base, &journal.base));
        assert_eq!(history.chunks.len(), journal.sealed.len() + 1);
        for (shared, sealed) in history.chunks.iter().zip(&journal.sealed) {
            assert!(Arc::ptr_eq(shared, sealed));
        }
        let restored = Journal::restore(&history);
        assert!(Arc::ptr_eq(&restored.base, &history.base));
        for (sealed, shared) in restored.sealed.iter().zip(&history.chunks) {
            assert!(Arc::ptr_eq(sealed, shared));
        }
        assert_eq!(restored.capture(), history);
    }

    /// A retired chunk that a history still shares is left to it, and
    /// the base is copied once for the retirement's edit, its capacity
    /// counted anew (the rows came with spare capacity, the copy has
    /// none); a chunk no one shares becomes the next head.
    #[test]
    fn retirement_copies_only_what_a_history_shares() {
        let (keys, limit) = (2, 64);
        let rows: Vec<Vec<u64>> = (0..keys as u64)
            .map(|k| {
                let mut rows = Vec::with_capacity(2 * limit);
                rows.resize(limit, k);
                rows
            })
            .collect();
        let history = History::from_rows(rows, limit);
        let mut journal = Journal::restore(&history);
        lockstep(&mut journal, 3 * limit);
        assert!(!Arc::ptr_eq(&journal.base, &history.base));
        assert_eq!(Arc::strong_count(&history.base), 1);
        let kept = journal.capture();
        let before = kept.to_rows();
        lockstep(&mut journal, 3 * limit);
        assert_eq!(kept.to_rows(), before);
        assert!(kept.chunks.iter().all(|c| Arc::strong_count(c) == 1));
    }

    /// The walk of one key or of several at once, the newest row and the
    /// per-key lengths agree with each key's pushes, for lockstep,
    /// lagging and lone keys.
    #[test]
    fn row_walks_match_each_keys_pushes() {
        let (keys, limit) = (4, 50);
        let mut journal = Journal::new(keys, limit);
        let mut expected = vec![Vec::new(); keys];
        let mut next = 0u64;
        for round in 0..400 {
            for (key, rows) in expected.iter_mut().enumerate() {
                // Key 1 lags every third round, and key 3 bursts alone.
                let times = match key {
                    1 if round % 3 == 0 => 0,
                    3 if round % 50 == 7 => 30,
                    _ => 1,
                };
                for _ in 0..times {
                    journal.push(key, next);
                    rows.push(next);
                    next += 1;
                }
            }
        }
        let history = journal.capture();
        let kept: Vec<_> = expected.iter().map(|r| &r[r.len() - limit..]).collect();
        for (key, rows) in kept.iter().enumerate() {
            assert_eq!(history.len(key), limit);
            assert_eq!(history.last(key), rows.last());
        }
        for block in [0..keys, 1..3, 3..4, 2..2] {
            let mut walked = vec![Vec::new(); block.len()];
            history.for_each_row(block.clone(), |i, &row| walked[i].push(row));
            assert_eq!(walked, kept[block]);
        }
    }
}
