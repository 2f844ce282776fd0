//! The job queue: VMs no host could take yet, retried every control
//! interval in arrival order (the prototype's job queue).
//!
//! The queue keeps one FIFO per [`WorkloadKind`], and stamps every entry
//! with a global arrival sequence number, so arrival order is a merge of
//! the six FIFO heads. All VMs of one kind make the same resource
//! request. Within one placement pass hosts only lose free resources, so
//! once a kind's request is known to fit nowhere (its own walk failed,
//! or a request no larger in cores and memory did), every VM of that
//! kind still queued would be skipped: the kind leaves the merge
//! without being visited. A pass therefore costs O((placed + failed
//! walks) × kinds), not O(queued), and an entry moves only when it is
//! placed.

use std::collections::VecDeque;

use baat_workload::WorkloadKind;

const KINDS: usize = WorkloadKind::ALL.len();

/// `kind`'s FIFO; [`WorkloadKind::ALL`] lists the kinds in declaration
/// order.
fn slot(kind: WorkloadKind) -> usize {
    kind as usize
}

/// The resource requests one placement pass (an arrivals batch, or one
/// retry of the queue) found no host for.
///
/// Within a pass hosts only lose free resources: admissions charge them,
/// and nothing releases resources or powers a host on or off between
/// two attempts. So once request `r` walked every host and failed, any
/// request at least `r` in both cores and memory cannot fit either until
/// the pass ends, and its O(n) walk can be skipped with the same result.
/// Recorded requests are pairwise distinct workload requests (an equal
/// one is skipped, not recorded), so a slot per workload kind suffices.
#[derive(Debug, Default)]
struct PlacementPass {
    failed: [(u32, u32); KINDS],
    len: usize,
}

impl PlacementPass {
    /// `true` if `request` dominates a request that already failed.
    fn known_unplaceable(&self, request: (u32, u32)) -> bool {
        self.failed[..self.len]
            .iter()
            .any(|&(cores, memory)| request.0 >= cores && request.1 >= memory)
    }

    /// Remembers that `request` fit on no host.
    fn record_failure(&mut self, request: (u32, u32)) {
        if let Some(slot) = self.failed.get_mut(self.len) {
            *slot = request;
            self.len += 1;
        }
    }
}

/// Queued items in arrival order, kept as one FIFO per workload kind.
///
/// Generic over the item so the retry can be checked against a plain
/// arrival-ordered scan without building VMs or hosts.
#[derive(Debug, Clone)]
pub struct PendingQueue<T> {
    /// Per kind: `(arrival sequence number, item)`, ascending.
    fifos: [VecDeque<(u64, T)>; KINDS],
    next_seq: u64,
    len: usize,
}

impl<T> Default for PendingQueue<T> {
    fn default() -> Self {
        Self {
            fifos: Default::default(),
            next_seq: 0,
            len: 0,
        }
    }
}

impl<T> PendingQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue holding `items` in the given arrival order, each kind's
    /// FIFO allocated at its exact length.
    pub fn from_ordered<S>(
        items: &[S],
        kind: impl Fn(&S) -> WorkloadKind,
        mut item: impl FnMut(&S) -> T,
    ) -> Self {
        let mut queue = Self {
            fifos: std::array::from_fn(|k| {
                VecDeque::with_capacity(items.iter().filter(|s| slot(kind(s)) == k).count())
            }),
            ..Self::default()
        };
        for s in items {
            queue.push(kind(s), item(s));
        }
        queue
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item`, a VM of `kind`, behind everything already queued.
    pub fn push(&mut self, kind: WorkloadKind, item: T) {
        self.fifos[slot(kind)].push_back((self.next_seq, item));
        self.next_seq += 1;
        self.len += 1;
    }

    /// Moves every item of `other` behind this queue's items, keeping
    /// their order.
    pub fn append(&mut self, other: &mut Self) {
        while let Some((k, _)) = other.earliest(&[0; KINDS], |_| true) {
            let (_, item) = other.fifos[k].pop_front().expect("kind has a head");
            other.len -= 1;
            self.push(WorkloadKind::ALL[k], item);
        }
    }

    /// The queued items in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mut at = [0; KINDS];
        std::iter::from_fn(move || {
            let (k, _) = self.earliest(&at, |_| true)?;
            at[k] += 1;
            Some(&self.fifos[k][at[k] - 1].1)
        })
    }

    /// Among the kinds `live` admits, the one whose entry at `at[k]`
    /// arrived first, with that entry's sequence number.
    fn earliest(&self, at: &[usize; KINDS], live: impl Fn(usize) -> bool) -> Option<(usize, u64)> {
        (0..KINDS)
            .filter(|&k| live(k))
            .filter_map(|k| self.fifos[k].get(at[k]).map(|&(seq, _)| (k, seq)))
            .min_by_key(|&(_, seq)| seq)
    }

    /// Offers every queued item to `place` once, in arrival order.
    /// `place` hands back an item it could not place; handed-back items
    /// keep their order.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first error `place` returns; the item
    /// it was offered is dropped.
    pub fn retry_all<E>(
        &mut self,
        mut place: impl FnMut(T) -> Result<Option<T>, E>,
    ) -> Result<(), E> {
        // A handed-back item goes to the back of its FIFO, behind the
        // kind's unvisited items, so each FIFO stays in arrival order.
        let mut unvisited = self.fifos.each_ref().map(VecDeque::len);
        while let Some((k, seq)) = self.earliest(&[0; KINDS], |k| unvisited[k] > 0) {
            unvisited[k] -= 1;
            let (_, item) = self.fifos[k].pop_front().expect("kind has a head");
            self.len -= 1;
            if let Some(item) = place(item)? {
                self.fifos[k].push_back((seq, item));
                self.len += 1;
            }
        }
        Ok(())
    }

    /// One placement pass over the queue, in arrival order: offers
    /// `place(item, kind, start)` the head of each kind whose request is
    /// not yet known to fit nowhere. `place` walks the hosts and hands
    /// the item back if none took it; that kind's request is then known
    /// unplaceable, and so is every request no smaller in both cores and
    /// memory.
    ///
    /// `start` is where the item's round-robin walk begins: `cursor` plus
    /// the number of items ahead of it in the queue as it stood when the
    /// pass began, modulo `nodes`. That is the start a per-item cursor
    /// advanced for every queued item, skipped or not, gives it, and
    /// `cursor` ends the pass advanced by the pass length the same way.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first error `place` returns; the item
    /// it was offered is dropped and `cursor` is left as it was.
    pub fn retry<E>(
        &mut self,
        cursor: &mut usize,
        nodes: usize,
        mut place: impl FnMut(T, WorkloadKind, usize) -> Result<Option<T>, E>,
    ) -> Result<(), E> {
        if self.len == 0 || nodes == 0 {
            // No walk can start, and a cursor over no nodes stays put.
            return Ok(());
        }
        let base = *cursor % nodes;
        let passed = self.len;
        let mut pass = PlacementPass::default();
        let mut live = [true; KINDS];
        let mut placed = 0;
        while let Some((k, seq)) = self.earliest(&[0; KINDS], |k| live[k]) {
            let kind = WorkloadKind::ALL[k];
            let request = kind.resource_request();
            if pass.known_unplaceable(request) {
                live[k] = false;
                continue;
            }
            // Every item placed so far arrived before this one, every
            // live kind's items after it; only retired kinds still hold
            // items ahead of it.
            let ahead = placed
                + (0..KINDS)
                    .filter(|&j| !live[j])
                    .map(|j| self.fifos[j].partition_point(|&(s, _)| s < seq))
                    .sum::<usize>();
            let (_, item) = self.fifos[k].pop_front().expect("kind has a head");
            self.len -= 1;
            match place(item, kind, (base + ahead % nodes) % nodes)? {
                None => placed += 1,
                Some(item) => {
                    self.fifos[k].push_front((seq, item));
                    self.len += 1;
                    pass.record_failure(request);
                    live[k] = false;
                }
            }
        }
        *cursor = (base + passed % nodes) % nodes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_the_kind_list() {
        for (k, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            assert_eq!(slot(kind), k);
        }
    }

    #[test]
    fn iteration_and_rebuild_keep_arrival_order() {
        let kinds = [3, 0, 3, 5, 1, 0, 3];
        let mut queue = PendingQueue::new();
        for (i, &k) in kinds.iter().enumerate() {
            queue.push(WorkloadKind::ALL[k], i);
        }
        let order: Vec<usize> = queue.iter().copied().collect();
        assert_eq!(order, (0..kinds.len()).collect::<Vec<_>>());
        let rebuilt = PendingQueue::from_ordered(&order, |&i| WorkloadKind::ALL[kinds[i]], |&i| i);
        assert_eq!(rebuilt.len(), kinds.len());
        assert!(rebuilt.iter().copied().eq(order.iter().copied()));
        let mut tail = PendingQueue::new();
        tail.push(WorkloadKind::ALL[5], 7);
        tail.push(WorkloadKind::ALL[0], 8);
        queue.append(&mut tail);
        assert!(tail.is_empty());
        assert!(queue.iter().copied().eq(0..9));
    }

    #[test]
    fn round_robin_starts_cycle_through_the_nodes() {
        let mut queue = PendingQueue::new();
        for i in 0..5 {
            queue.push(WorkloadKind::ALL[i % 2], i);
        }
        let mut starts = Vec::new();
        let mut cursor = 4;
        queue
            .retry(&mut cursor, 3, |_, _, start| {
                starts.push(start);
                Ok::<_, ()>(None)
            })
            .expect("never fails");
        assert_eq!(starts, [1, 2, 0, 1, 2]);
        assert_eq!(cursor, 0);
        assert!(queue.is_empty());
    }

    #[test]
    fn retry_all_keeps_handed_back_items_in_order() {
        let mut queue = PendingQueue::new();
        for i in 0..12 {
            queue.push(WorkloadKind::ALL[i % 4], i);
        }
        let mut offered = Vec::new();
        queue
            .retry_all(|i| {
                offered.push(i);
                Ok::<_, ()>((i % 3 != 0).then_some(i))
            })
            .expect("never fails");
        assert_eq!(offered, (0..12).collect::<Vec<_>>());
        let left: Vec<usize> = queue.iter().copied().collect();
        assert_eq!(left, [1, 2, 4, 5, 7, 8, 10, 11]);
        assert_eq!(queue.len(), 8);
    }
}
