//! The bounded sample rings behind [`TelemetryLog`](crate::TelemetryLog)
//! and the power table.
//!
//! A ring is a `VecDeque` that evicts its oldest row once it holds
//! `limit` rows. Checkpoints carry its rows as a plain oldest-first
//! `Vec`; [`rows`] and [`restore`] move them across by slice instead of
//! row by row, and [`restore`] keeps exactly what [`push`] would.

use std::collections::VecDeque;

/// Appends `row`, evicting the oldest row first when the ring already
/// holds `limit`; a ring with limit 0 keeps nothing.
pub fn push<T>(ring: &mut VecDeque<T>, row: T, limit: usize) {
    if limit == 0 {
        return;
    }
    if ring.len() == limit {
        ring.pop_front();
    }
    ring.push_back(row);
}

/// The ring's rows, oldest first, copied into one exact-size `Vec` by
/// slice.
pub fn rows<T: Copy>(ring: &VecDeque<T>) -> Vec<T> {
    let (front, back) = ring.as_slices();
    let mut out = Vec::with_capacity(ring.len());
    out.extend_from_slice(front);
    out.extend_from_slice(back);
    out
}

/// Rebuilds a ring bounded to `limit` rows from `rows`, oldest first.
///
/// Keeps the newest `limit` rows, exactly as [`push`]ing `rows` one by
/// one would. The capacity is the smallest power of two above the row
/// count, capped at `limit`: the footprint the push path's doubling
/// reaches, and room for the next push without reallocating (a full
/// ring evicts before it pushes).
pub fn restore<T: Copy>(rows: &[T], limit: usize) -> VecDeque<T> {
    let kept = &rows[rows.len().saturating_sub(limit)..];
    let capacity = limit.min((kept.len() + 1).next_power_of_two());
    let mut ring = VecDeque::with_capacity(capacity);
    ring.extend(kept);
    ring
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pushed(rows: &[u32], limit: usize) -> VecDeque<u32> {
        let mut ring = VecDeque::new();
        for &r in rows {
            push(&mut ring, r, limit);
        }
        ring
    }

    #[test]
    fn restore_keeps_what_pushing_keeps() {
        let rows: Vec<u32> = (0..40).collect();
        for limit in [0, 1, 7, 16, 39, 40, 41, 64] {
            for n in [0, 1, 15, 16, 17, 40] {
                let ring = restore(&rows[..n], limit);
                assert_eq!(ring, pushed(&rows[..n], limit), "limit {limit}, {n} rows");
                assert_eq!(super::rows(&ring), Vec::from(ring.clone()));
            }
        }
    }

    #[test]
    fn restored_ring_takes_the_next_push_in_place() {
        for (n, limit) in [
            (0, 8),
            (5, 8),
            (7, 8),
            (8, 8),
            (12, 8),
            (100, 4096),
            (128, 4096),
        ] {
            let rows: Vec<u32> = (0..n).collect();
            let mut ring = restore(&rows, limit);
            let capacity = ring.capacity();
            assert!(capacity <= limit.next_power_of_two(), "{n}/{limit}");
            push(&mut ring, u32::MAX, limit);
            assert_eq!(ring.capacity(), capacity, "{n} rows, limit {limit}");
        }
    }

    #[test]
    fn rows_unwraps_a_wrapped_ring() {
        let mut ring: VecDeque<u32> = (0..8).collect();
        for i in 8..13 {
            ring.pop_front();
            ring.push_back(i);
        }
        assert_eq!(rows(&ring), (5..13).collect::<Vec<_>>());
    }
}
