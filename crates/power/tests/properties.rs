//! Property-based tests for the power infrastructure.

use std::collections::VecDeque;

use baat_power::{Charger, History, Journal, PowerSwitcher};
use baat_rng::StdRng;
use baat_testkit::prelude::*;
use baat_units::{Soc, Watts};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The switcher conserves energy on both the supply and demand sides
    /// for any inputs.
    #[test]
    fn switcher_conserves_energy(
        demand in 0.0f64..2000.0,
        solar in 0.0f64..2000.0,
        battery in 0.0f64..2000.0,
        acceptance in 0.0f64..500.0,
    ) {
        let sw = PowerSwitcher::prototype();
        let r = sw.route(
            Watts::new(demand),
            Watts::new(solar),
            Watts::new(battery),
            Watts::new(acceptance),
        );
        // Supply side: solar splits exactly into load, charger, curtailed.
        let solar_split =
            r.solar_to_load.as_f64() + r.surplus_to_charger.as_f64() + r.curtailed.as_f64();
        prop_assert!((solar_split - solar).abs() < 1e-9);
        // Demand side: load splits into solar, inverter-delivered battery
        // power, and unserved.
        let served = r.solar_to_load.as_f64()
            + r.battery_to_load.as_f64() * sw.inverter_efficiency()
            + r.unserved.as_f64();
        prop_assert!((served - demand).abs() < 1e-9);
        // No component is negative or exceeds its source.
        for v in [
            r.solar_to_load.as_f64(),
            r.battery_to_load.as_f64(),
            r.surplus_to_charger.as_f64(),
            r.unserved.as_f64(),
            r.curtailed.as_f64(),
        ] {
            prop_assert!(v >= 0.0);
        }
        prop_assert!(r.battery_to_load.as_f64() <= battery + 1e-9);
        prop_assert!(r.surplus_to_charger.as_f64() <= acceptance + 1e-9);
    }

    /// Battery is only used when solar cannot cover demand.
    #[test]
    fn battery_is_the_second_choice(demand in 0.0f64..1000.0, solar in 0.0f64..1000.0) {
        let sw = PowerSwitcher::prototype();
        let r = sw.route(
            Watts::new(demand),
            Watts::new(solar),
            Watts::new(10_000.0),
            Watts::new(10_000.0),
        );
        if solar >= demand {
            prop_assert_eq!(r.battery_to_load, Watts::ZERO);
            prop_assert_eq!(r.unserved, Watts::ZERO);
        } else {
            prop_assert!(r.battery_to_load.as_f64() > 0.0 || demand == solar);
        }
    }

    /// Charger output is bounded by acceptance × efficiency and is
    /// monotone in available power.
    #[test]
    fn charger_monotone_and_bounded(
        soc in 0.0f64..=1.0,
        p1 in 0.0f64..600.0,
        p2 in 0.0f64..600.0,
    ) {
        prop_assume!(p1 <= p2);
        let c = Charger::prototype();
        let soc = Soc::new(soc).unwrap();
        let out1 = c.charge_power(soc, Watts::new(p1));
        let out2 = c.charge_power(soc, Watts::new(p2));
        prop_assert!(out1 <= out2);
        prop_assert!(out2.as_f64() <= c.acceptance(soc).as_f64() * c.efficiency() + 1e-9);
        prop_assert!(out2.as_f64() <= p2 * c.efficiency() + 1e-9);
    }

    /// Charger acceptance never grows as the battery fills.
    #[test]
    fn acceptance_monotone_in_soc(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        prop_assume!(a <= b);
        let c = Charger::prototype();
        let acc_low = c.acceptance(Soc::new(a).unwrap());
        let acc_high = c.acceptance(Soc::new(b).unwrap());
        prop_assert!(acc_high <= acc_low + Watts::new(1e-9));
    }
}

/// The per-key ring rule the journal replaces, kept as its oracle: a
/// `VecDeque` per key that evicts its oldest row once it holds `limit`,
/// checkpointed as an oldest-first `Vec` and restored to the newest
/// `limit` rows.
mod ring {
    use std::collections::VecDeque;

    pub fn push(ring: &mut VecDeque<u64>, row: u64, limit: usize) {
        if limit == 0 {
            return;
        }
        if ring.len() == limit {
            ring.pop_front();
        }
        ring.push_back(row);
    }

    pub fn rows(ring: &VecDeque<u64>) -> Vec<u64> {
        ring.iter().copied().collect()
    }

    pub fn restore(rows: &[u64], limit: usize) -> VecDeque<u64> {
        rows[rows.len().saturating_sub(limit)..]
            .iter()
            .copied()
            .collect()
    }
}

/// Checks a captured history against the rings: same rows per key,
/// walked whole, counted, and newest first, each `Vec` exact-size.
fn history_matches_rings(
    history: &History<u64>,
    rings: &[VecDeque<u64>],
) -> Result<(), TestCaseError> {
    let rows = history.to_rows();
    prop_assert_eq!(rows.len(), rings.len());
    prop_assert_eq!(history.keys(), rings.len());
    for (key, (rows, ring)) in rows.iter().zip(rings).enumerate() {
        prop_assert_eq!(rows, &ring::rows(ring));
        prop_assert_eq!(rows.capacity(), rows.len());
        prop_assert_eq!(history.len(key), ring.len());
        prop_assert_eq!(history.last(key), ring.back());
    }
    Ok(())
}

/// Checks a journal's capture against the rings.
fn matches_rings(journal: &Journal<u64>, rings: &[VecDeque<u64>]) -> Result<(), TestCaseError> {
    history_matches_rings(&journal.capture(), rings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Seeded sequences of pushes, with keys dropping out for stretches
    /// (ragged rows) or logging bursts alone, restores from over-long,
    /// short and empty rows, and captures, run long enough to retire
    /// chunks and evict: the journal keeps exactly the rows per-key
    /// rings keep, at limit 1, a small limit, two middling limits and
    /// the engine's real limits. Below 16,384 retained rows a chunk is
    /// a quarter of them, so every limit but 8,192 also draws chunks
    /// smaller than 4,096 rows, and the small limits chunks of a few
    /// rows.
    #[test]
    fn journal_keeps_what_per_key_rings_keep(
        seed in 0u64..u64::MAX,
        pick in 0usize..6,
    ) {
        let limit = [1, 3, 50, 700, 4_096, 8_192][pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = rng.random_range(1..=8usize);
        let mut journal = Journal::new(keys, limit);
        let mut rings = vec![VecDeque::new(); keys];
        let mut dropped = vec![false; keys];
        let mut next = 0u64;
        let mut push = |journal: &mut Journal<u64>, ring: &mut VecDeque<u64>, key| {
            journal.push(key, next);
            ring::push(ring, next, limit);
            next += 1;
        };
        let rounds = rng.random_range(0..3 * limit + 200);
        let rare = 1.0 / (limit as f64 + 20.0);
        for _ in 0..rounds {
            if rng.random::<f64>() < rare {
                // One key alone logs a burst, enough to evict some of
                // its own logged rows before their chunk retires.
                let key = rng.random_range(0..keys);
                for _ in 0..rng.random_range(1..=2 * limit + 2) {
                    push(&mut journal, &mut rings[key], key);
                }
            }
            for (key, ring) in rings.iter_mut().enumerate() {
                if rng.random::<f64>() < 4.0 * rare {
                    dropped[key] = !dropped[key];
                }
                if !dropped[key] {
                    push(&mut journal, ring, key);
                }
            }
            if rng.random::<f64>() < rare {
                matches_rings(&journal, &rings)?;
            }
            if rng.random::<f64>() < rare {
                // Restore from each ring's rows, made over-long, cut
                // short or emptied.
                let rows: Vec<Vec<u64>> = rings
                    .iter()
                    .map(|ring| {
                        let mut rows = ring::rows(ring);
                        match rng.random_range(0..4u32) {
                            0 => {
                                let extra = rng.random_range(1..=limit as u64 + 2);
                                rows.splice(0..0, (0..extra).map(|i| i << 40));
                            }
                            1 => drop(rows.drain(..rows.len() / 2)),
                            2 => rows.clear(),
                            _ => {}
                        }
                        rows
                    })
                    .collect();
                rings = rows.iter().map(|r| ring::restore(r, limit)).collect();
                journal = Journal::restore(&History::from_rows(rows, limit));
            }
        }
        matches_rings(&journal, &rings)?;
    }
}

/// The order a journal's keys push in.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Every key once per round, in key order, as the engine records.
    Lockstep,
    /// Every key per round, but one key skips about two rounds of three.
    Lagging,
    /// Lockstep, with one key now and then logging a burst alone.
    Burst,
}

/// One round of pushes in `order` to the journal and its twin, mirrored
/// on the rings.
fn round(
    order: Order,
    rng: &mut StdRng,
    journals: &mut [&mut Journal<u64>; 2],
    rings: &mut [VecDeque<u64>],
    next: &mut u64,
    limit: usize,
) {
    let keys = rings.len();
    let mut push = |key: usize, rings: &mut [VecDeque<u64>]| {
        for journal in journals.iter_mut() {
            journal.push(key, *next);
        }
        ring::push(&mut rings[key], *next, limit);
        *next += 1;
    };
    if let Order::Burst = order {
        if rng.random::<f64>() < 1.0 / (limit as f64 / 8.0 + 4.0) {
            let key = rng.random_range(0..keys);
            for _ in 0..rng.random_range(1..=2 * limit + 2) {
                push(key, rings);
            }
        }
    }
    for key in 0..keys {
        // The lagging key is pushed in about one round of three.
        if matches!(order, Order::Lagging) && key == keys / 2 && rng.random_range(0..3) != 0 {
            continue;
        }
        push(key, rings);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A history captured at a random point stays unchanged, and equal
    /// to the rings' rows at that point, through every later push,
    /// chunk retirement and restore of the journal it came from. A
    /// journal restored from that history, given the same pushes and
    /// restores as the original, keeps recording exactly like it. Under
    /// lockstep, lagging-key and lone-key-burst orders at limits 50,
    /// 700 and 4,096, so chunks of 12 to 4,096 rows retire, some shared
    /// with the history and some not.
    #[test]
    fn captured_history_is_isolated_from_later_changes(
        seed in 0u64..u64::MAX,
        pick in 0usize..3,
        order in 0usize..3,
    ) {
        let limit = [50, 700, 4_096][pick];
        let order = [Order::Lockstep, Order::Lagging, Order::Burst][order];
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = rng.random_range(1..=8usize);
        let mut journal = Journal::new(keys, limit);
        let mut rings = vec![VecDeque::new(); keys];
        let mut next = 0u64;
        let before = rng.random_range(0..2 * limit + 100);
        let mut unused = Journal::new(keys, limit);
        for _ in 0..before {
            round(order, &mut rng, &mut [&mut journal, &mut unused], &mut rings, &mut next, limit);
        }
        let captured = journal.capture();
        let expected: Vec<Vec<u64>> = rings.iter().map(ring::rows).collect();
        history_matches_rings(&captured, &rings)?;
        prop_assert!(captured == History::from_rows(expected.clone(), limit));
        let mut twin = Journal::restore(&captured);
        let rare = 1.0 / (limit as f64 + 20.0);
        for _ in 0..rng.random_range(limit..3 * limit + 200) {
            round(order, &mut rng, &mut [&mut journal, &mut twin], &mut rings, &mut next, limit);
            if rng.random::<f64>() < rare {
                // Each restores from its own capture, which shares its
                // segments, or both from the rings' rows.
                if rng.random::<bool>() {
                    journal = Journal::restore(&journal.capture());
                    twin = Journal::restore(&twin.capture());
                } else {
                    let rows: Vec<Vec<u64>> = rings.iter().map(ring::rows).collect();
                    journal = Journal::restore(&History::from_rows(rows.clone(), limit));
                    twin = Journal::restore(&History::from_rows(rows, limit));
                }
            }
            if rng.random::<f64>() < rare {
                prop_assert_eq!(&captured.to_rows(), &expected);
            }
        }
        prop_assert_eq!(&captured.to_rows(), &expected);
        matches_rings(&journal, &rings)?;
        matches_rings(&twin, &rings)?;
        prop_assert!(twin.capture() == journal.capture());
    }
}
