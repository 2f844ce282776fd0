//! The resume-equivalence test layer for versioned [`SimSnapshot`]s.
//!
//! Resume equivalence is pinned three ways:
//!
//! 1. **Property**: over random seeds, weathers, chemistries, fleet
//!    sizes and checkpoint steps, a run snapshotted at an arbitrary
//!    step — serialized to bytes, parsed back, and restored into a
//!    fresh engine + policy — finishes with a report and event JSONL
//!    **byte-identical** to the uninterrupted run (faulted configs
//!    included).
//! 2. **Golden**: a committed binary checkpoint file restores in this
//!    (necessarily different) process and finishes identically to a
//!    from-scratch run; the current encoder also still produces those
//!    exact bytes, pinning format version 2. Regenerate with
//!    `BAAT_UPDATE_GOLDEN=1` only on an intentional format change
//!    (which must bump `SNAPSHOT_VERSION`). The version-1 file stays as
//!    a read-only fixture: it is refused by version, and its header and
//!    body match the version-2 file byte for byte.
//! 3. **CI**: `ci/check.sh replay` kills a checkpointing console run
//!    mid-flight and resumes it in a fresh process (see `ci/`).
//!
//! Version/config/chemistry skew must surface as typed
//! [`SnapshotError`]s — never a panic, never a silently-wrong resume —
//! and so must hostile bodies that carry a valid checksum.

use std::path::PathBuf;

use baat_battery::Chemistry;
use baat_power::{History, PowerTable, ServerPowerRecord};
use baat_rng::StdRng;
use baat_sim::{
    config_hash, crc64, fnv1a, ChemistrySpec, FaultMix, FaultPlan, Policy, RoundRobinPolicy,
    SimConfig, SimError, SimSnapshot, Simulation, SnapshotError, SNAPSHOT_VERSION,
};
use baat_solar::Weather;
use baat_testkit::prelude::*;
use baat_units::{SimDuration, SimInstant, Watts};

fn weather_strategy() -> impl Strategy<Value = Weather> {
    prop_oneof![
        Just(Weather::Sunny),
        Just(Weather::Cloudy),
        Just(Weather::Rainy),
    ]
}

fn chemistry_strategy() -> impl Strategy<Value = Chemistry> {
    prop_oneof![Just(Chemistry::LeadAcid), Just(Chemistry::LiIon)]
}

/// Coarse-timestep config in the given chemistry, optionally with a
/// seeded heavy fault plan (non-empty for every seed), so snapshots
/// carry live fault-injector state.
fn coarse_config(chemistry: Chemistry, weather: Weather, seed: u64, nodes: usize) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .nodes(nodes)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(seed)
        .chemistry(ChemistrySpec::new(chemistry));
    b.build().expect("coarse config is valid")
}

fn faulted_config(chemistry: Chemistry, weather: Weather, seed: u64, nodes: usize) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .nodes(nodes)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(seed)
        .chemistry(ChemistrySpec::new(chemistry))
        .faults(FaultPlan::generate(
            seed,
            1,
            nodes,
            nodes,
            &FaultMix::heavy(),
        ));
    b.build().expect("faulted config is valid")
}

fn total_steps(config: &SimConfig) -> u64 {
    config.days() as u64 * 86_400 / config.dt.as_secs()
}

/// Runs `config` to completion in one piece.
fn straight_run(config: SimConfig) -> baat_sim::SimReport {
    let sim = Simulation::new(config).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run(&mut policy).expect("straight run succeeds")
}

/// Runs `config` to `split` steps, round-trips a policy-inclusive
/// snapshot through bytes, restores a fresh engine + policy from it,
/// and finishes.
fn split_run(config: SimConfig, split: u64) -> baat_sim::SimReport {
    let mut sim = Simulation::new(config.clone()).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, split).expect("prefix runs");
    let bytes = sim.snapshot_with_policy(&policy).to_bytes();
    drop(sim);
    let snapshot = SimSnapshot::from_bytes(&bytes).expect("bytes parse back");
    let resumed = Simulation::restore(config, &snapshot).expect("snapshot restores");
    let mut fresh_policy = RoundRobinPolicy::new();
    assert!(
        snapshot.apply_policy_state(&mut fresh_policy),
        "policy names match, so state must apply"
    );
    resumed
        .run_remaining(&mut fresh_policy)
        .expect("resumed run succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A simulation cloned (via snapshot bytes) at an arbitrary step and
    /// finished equals the uninterrupted run — both chemistries, with a
    /// non-empty fault plan in the mix.
    #[test]
    fn resume_at_any_step_is_bit_identical(
        weather in weather_strategy(),
        chemistry in chemistry_strategy(),
        seed in 0u64..500,
        nodes in 2usize..6,
        split_permille in 1u64..999,
    ) {
        let config = faulted_config(chemistry, weather, seed, nodes);
        let split = (total_steps(&config) * split_permille / 1000).max(1);
        let straight = straight_run(config.clone());
        let resumed = split_run(config, split);
        // Report equality covers aging, throughput, recorder rows and
        // the event log; JSONL byte-equality additionally pins the
        // serialized artifacts CI compares.
        prop_assert_eq!(&straight, &resumed);
        prop_assert_eq!(straight.events.to_jsonl(), resumed.events.to_jsonl());
        prop_assert_eq!(
            straight.recorder.to_jsonl(),
            resumed.recorder.to_jsonl()
        );
    }

    /// Fault-free runs resume identically too (the injector state is
    /// empty but still round-trips).
    #[test]
    fn clean_runs_resume_identically(
        weather in weather_strategy(),
        chemistry in chemistry_strategy(),
        seed in 0u64..500,
    ) {
        let config = coarse_config(chemistry, weather, seed, 4);
        let split = total_steps(&config) / 2;
        let straight = straight_run(config.clone());
        let resumed = split_run(config, split);
        prop_assert_eq!(straight, resumed);
    }

    /// The state hash is position-independent: pausing a run at STEP and
    /// restoring an earlier checkpoint then re-stepping to STEP land on
    /// the same hash — the invariant `console replay` prints.
    #[test]
    fn replay_lands_on_the_paused_state_hash(
        weather in weather_strategy(),
        chemistry in chemistry_strategy(),
        seed in 0u64..500,
    ) {
        let config = faulted_config(chemistry, weather, seed, 4);
        let steps = total_steps(&config);
        let (checkpoint, target) = (steps / 4, steps / 2);

        let mut paused = Simulation::new(config.clone()).expect("sim builds");
        let mut policy = RoundRobinPolicy::new();
        paused.run_steps(&mut policy, target).expect("paused run");
        let paused_hash = paused.state_hash();

        let mut sim = Simulation::new(config.clone()).expect("sim builds");
        let mut policy = RoundRobinPolicy::new();
        sim.run_steps(&mut policy, checkpoint).expect("prefix runs");
        let bytes = sim.snapshot_with_policy(&policy).to_bytes();
        let snapshot = SimSnapshot::from_bytes(&bytes).expect("bytes parse");
        let mut replayed = Simulation::restore(config, &snapshot).expect("restores");
        let mut fresh = RoundRobinPolicy::new();
        snapshot.apply_policy_state(&mut fresh);
        replayed
            .run_steps(&mut fresh, target - checkpoint)
            .expect("replay steps");
        prop_assert_eq!(replayed.state_hash(), paused_hash);
    }
}

#[test]
fn unsupported_version_is_a_typed_error() {
    let config = coarse_config(Chemistry::LeadAcid, Weather::Cloudy, 7, 3);
    let sim = Simulation::new(config.clone()).expect("sim builds");
    let mut snapshot = sim.snapshot();
    snapshot.version = SNAPSHOT_VERSION + 1;
    match Simulation::restore(config, &snapshot)
        .err()
        .expect("restore must fail")
    {
        SimError::Snapshot(SnapshotError::UnsupportedVersion { found, expected }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn config_skew_is_a_typed_error() {
    let config = coarse_config(Chemistry::LeadAcid, Weather::Cloudy, 7, 3);
    let sim = Simulation::new(config).expect("sim builds");
    let snapshot = sim.snapshot();
    // Same shape, different seed: the config hash must catch it.
    let skewed = coarse_config(Chemistry::LeadAcid, Weather::Cloudy, 8, 3);
    match Simulation::restore(skewed, &snapshot)
        .err()
        .expect("restore must fail")
    {
        SimError::Snapshot(SnapshotError::ConfigMismatch { snapshot, config }) => {
            assert_ne!(snapshot, config);
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn chemistry_skew_is_a_typed_error() {
    let config = coarse_config(Chemistry::LeadAcid, Weather::Cloudy, 7, 3);
    let sim = Simulation::new(config).expect("sim builds");
    let snapshot = sim.snapshot();
    let li_ion = coarse_config(Chemistry::LiIon, Weather::Cloudy, 7, 3);
    match Simulation::restore(li_ion, &snapshot)
        .err()
        .expect("restore must fail")
    {
        SimError::Snapshot(SnapshotError::ChemistryMismatch { snapshot, config }) => {
            assert_eq!(snapshot, Chemistry::LeadAcid);
            assert_eq!(config, Chemistry::LiIon);
        }
        other => panic!("expected ChemistryMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_and_corrupt_files_are_typed_errors() {
    let config = coarse_config(Chemistry::LeadAcid, Weather::Cloudy, 7, 3);
    let sim = Simulation::new(config).expect("sim builds");
    let bytes = sim.snapshot().to_bytes();

    // Every prefix must fail cleanly, never panic.
    for cut in [0, 4, 8, 12, 13, 21, 29, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes must not parse"
        );
    }
    // A flipped body bit fails the checksum.
    let mut corrupt = bytes.clone();
    let mid = 37 + (corrupt.len() - 37) / 2;
    corrupt[mid] ^= 0x01;
    match SimSnapshot::from_bytes(&corrupt) {
        Err(SnapshotError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// `checkpoint_every` sinks snapshots at interior boundaries only, and
/// the checkpointed run's report equals the uninterrupted one.
#[test]
fn checkpoint_every_sinks_interior_boundaries_and_matches_straight_run() {
    let config = faulted_config(Chemistry::LeadAcid, Weather::Cloudy, 11, 4);
    let steps = total_steps(&config);
    let every = 50;

    let straight = straight_run(config.clone());

    let sim = Simulation::new(config).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    let mut seen = Vec::new();
    let report = sim
        .checkpoint_every(&mut policy, every, |snap| {
            seen.push(snap.state.step_index);
            Ok(())
        })
        .expect("checkpointed run succeeds");

    let expected: Vec<u64> = (1..)
        .map(|i| i * every)
        .take_while(|&s| s < steps)
        .collect();
    assert_eq!(
        seen, expected,
        "interior boundaries only, no final snapshot"
    );
    assert_eq!(straight, report);
}

/// Resuming from the *last* snapshot of an interrupted checkpointed run
/// reproduces the uninterrupted artifacts — the library half of the CI
/// kill-and-resume cell.
#[test]
fn interrupted_checkpoint_run_resumes_to_identical_artifacts() {
    let config = faulted_config(Chemistry::LiIon, Weather::Rainy, 23, 4);
    let steps = total_steps(&config);
    let straight = straight_run(config.clone());

    // "Interrupt" by running only to the third boundary, keeping the
    // snapshot bytes a killed process would have flushed to disk.
    let every = steps / 5;
    let mut sim = Simulation::new(config.clone()).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, every * 3).expect("prefix runs");
    let bytes = sim.snapshot_with_policy(&policy).to_bytes();
    drop(sim);

    let snapshot = SimSnapshot::from_bytes(&bytes).expect("bytes parse");
    let resumed = Simulation::restore(config, &snapshot).expect("restores");
    let mut fresh = RoundRobinPolicy::new();
    snapshot.apply_policy_state(&mut fresh);
    let report = resumed.run_remaining(&mut fresh).expect("resumed run");
    assert_eq!(straight.events.to_jsonl(), report.events.to_jsonl());
    assert_eq!(straight.recorder.to_jsonl(), report.recorder.to_jsonl());
    assert_eq!(straight, report);
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_path() -> PathBuf {
    golden_dir().join("checkpoint_v2.snap")
}

/// Header bytes before the body (magic, version, chemistry, config
/// hash, body length) and trailer bytes after it (checksum).
const HEADER: usize = 29;
const TRAILER: usize = 8;

fn trailer(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[bytes.len() - TRAILER..].try_into().expect("8 bytes"))
}

fn body(bytes: &[u8]) -> &[u8] {
    &bytes[HEADER..bytes.len() - TRAILER]
}

fn read_golden() -> Vec<u8> {
    let path = golden_path();
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden checkpoint {} ({e}); regenerate with BAAT_UPDATE_GOLDEN=1",
            path.display()
        )
    })
}

/// Re-frames `body` under the golden's header with a matching length
/// field and a recomputed checksum, so the decoder sees the body itself.
fn reframe(header: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = header[..HEADER - 8].to_vec();
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc64(body).to_le_bytes());
    out
}

/// The golden checkpoint's scenario: fixed chemistry, weather, seed,
/// fleet and fault plan, snapshotted at step 120 of 288.
fn golden_config() -> SimConfig {
    faulted_config(Chemistry::LeadAcid, Weather::Cloudy, 4242, 4)
}

const GOLDEN_SPLIT: u64 = 120;

fn golden_bytes_now() -> Vec<u8> {
    let mut sim = Simulation::new(golden_config()).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, GOLDEN_SPLIT)
        .expect("prefix runs");
    sim.snapshot_with_policy(&policy).to_bytes()
}

/// The committed checkpoint file — written by an earlier process — still
/// parses, carries format version 2 and the scenario's config hash, and
/// byte-matches what the current encoder produces.
#[test]
fn golden_checkpoint_file_is_byte_stable() {
    let actual = golden_bytes_now();
    let path = golden_path();
    if std::env::var_os("BAAT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden checkpoint");
    }
    let committed = read_golden();
    assert_eq!(
        committed, actual,
        "snapshot encoding drifted from the committed checkpoint; an \
         intentional format change must bump SNAPSHOT_VERSION and \
         regenerate with BAAT_UPDATE_GOLDEN=1"
    );
}

/// Cross-process resume: restoring the committed checkpoint file and
/// finishing the run matches a from-scratch run bit for bit.
#[test]
fn golden_checkpoint_resumes_identically_across_processes() {
    let path = golden_path();
    if std::env::var_os("BAAT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, golden_bytes_now()).expect("write golden checkpoint");
    }
    let snapshot = SimSnapshot::read_file(&path).unwrap_or_else(|e| {
        panic!("golden checkpoint unreadable ({e}); regenerate with BAAT_UPDATE_GOLDEN=1")
    });
    assert_eq!(snapshot.version, SNAPSHOT_VERSION);
    assert_eq!(snapshot.chemistry, Chemistry::LeadAcid);
    assert_eq!(snapshot.config_hash, config_hash(&golden_config()));
    assert_eq!(snapshot.state.step_index, GOLDEN_SPLIT);

    let resumed = Simulation::restore(golden_config(), &snapshot).expect("restores");
    let mut policy = RoundRobinPolicy::new();
    assert!(snapshot.apply_policy_state(&mut policy));
    let report = resumed.run_remaining(&mut policy).expect("resumed run");
    let straight = straight_run(golden_config());
    assert_eq!(straight, report);
}

/// The committed checkpoint, decoded, restored and captured again from
/// the restored engine (whose journals adopted the decoded rows), encodes
/// back to the file's exact bytes.
#[test]
fn golden_checkpoint_restores_and_recaptures_to_its_own_bytes() {
    let golden = read_golden();
    let snapshot = SimSnapshot::from_bytes(&golden).expect("golden parses");
    let restored = Simulation::restore(golden_config(), &snapshot).expect("restores");
    let mut policy = RoundRobinPolicy::new();
    assert!(snapshot.apply_policy_state(&mut policy));
    let recaptured = restored.snapshot_with_policy(&policy);
    assert_eq!(recaptured, snapshot);
    assert_eq!(recaptured.to_bytes(), golden);
}

/// The version-1 golden (FNV-1a trailer) is refused by version, and
/// version 2 changed nothing but the version field and the trailer: its
/// header and body equal version 1's byte for byte.
#[test]
fn v1_checkpoint_is_refused_and_matches_v2_but_for_version_and_trailer() {
    let v1 = std::fs::read(golden_dir().join("checkpoint_v1.snap")).expect("v1 fixture");
    let v2 = read_golden();
    assert_eq!(
        SimSnapshot::from_bytes(&v1),
        Err(SnapshotError::UnsupportedVersion {
            found: 1,
            expected: 2
        })
    );
    assert_eq!(v1.len(), v2.len());
    assert_eq!(v1[..8], v2[..8], "magic");
    assert_eq!(v1[8..12], 1u32.to_le_bytes());
    assert_eq!(v2[8..12], 2u32.to_le_bytes());
    assert_eq!(
        v1[12..HEADER],
        v2[12..HEADER],
        "chemistry, config hash, length"
    );
    assert!(body(&v1) == body(&v2), "body");
    assert_eq!(trailer(&v1), fnv1a(body(&v1)));
    assert_eq!(trailer(&v2), crc64(body(&v2)));
    // The state hash is still FNV-1a over the unchanged body.
    let snapshot = SimSnapshot::from_bytes(&v2).expect("v2 golden parses");
    assert_eq!(snapshot.state_hash(), fnv1a(body(&v2)));
}

/// Every single-bit flip of the body fails the checksum before the body
/// is decoded: each bit of the first and last 64 body bytes, plus 256
/// seeded positions in between.
#[test]
fn single_bit_flips_fail_the_checksum() {
    let golden = read_golden();
    let len = body(&golden).len();
    let mut rng = StdRng::seed_from_u64(0xc4c6_4b17);
    let mut bits: Vec<usize> = (0..64 * 8)
        .chain((len - 64) * 8..len * 8)
        .chain((0..256).map(|_| rng.random_range(0..len * 8)))
        .collect();
    bits.sort_unstable();
    bits.dedup();
    for bit in bits {
        let mut bytes = golden.clone();
        bytes[HEADER + bit / 8] ^= 1 << (bit % 8);
        assert_eq!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt {
                context: "checksum"
            }),
            "body bit {bit}"
        );
    }
}

/// Seeded hostile bodies — byte flips, overwritten words, truncations
/// and splices of the golden's body, re-framed with a valid length and
/// checksum so the decoder really sees them — decode to `Ok` or a typed
/// error, never a panic or an oversized allocation; every body that
/// decodes restores to `Ok` or a typed error as well.
#[test]
fn mutated_bodies_with_valid_checksums_never_panic() {
    let golden = read_golden();
    let original = body(&golden);
    let len = original.len();
    let mut rng = StdRng::seed_from_u64(0x5eed_b0d1);
    let (mut restored, mut refused, mut rejected) = (0, 0, 0);
    for case in 0..1500 {
        let mut b = original.to_vec();
        match case % 4 {
            0 => {
                for _ in 0..rng.random_range(1..=4usize) {
                    let at = rng.random_range(0..len);
                    b[at] ^= rng.random_range(1..=255u8);
                }
            }
            1 => {
                // A random word, often landing on a length prefix.
                let at = rng.random_range(0..len - 8);
                let word = match rng.random_range(0..3u8) {
                    0 => rng.next_u64(),
                    1 => rng.next_u64() >> rng.random_range(32..64u32),
                    _ => u64::from(rng.random_range(0..64u8)),
                };
                b[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
            2 => b.truncate(rng.random_range(0..len)),
            _ => {
                let from = rng.random_range(0..len);
                let to = rng.random_range(from..=len.min(from + 512));
                let at = rng.random_range(0..len);
                let chunk = b[from..to].to_vec();
                if rng.random::<bool>() {
                    b.splice(at..at, chunk);
                } else {
                    let end = (at + chunk.len()).min(len);
                    b.splice(at..end, chunk);
                }
            }
        }
        match SimSnapshot::from_bytes(&reframe(&golden, &b)) {
            Err(SnapshotError::Corrupt {
                context: "checksum",
            }) => panic!("case {case}: re-framed body failed its checksum"),
            // A decoded body is restored too: `Ok` or a typed error.
            Ok(snapshot) => match Simulation::restore(golden_config(), &snapshot) {
                Ok(_) => restored += 1,
                Err(_) => refused += 1,
            },
            Err(_) => rejected += 1,
        }
    }
    // Flipped float payloads still decode and restore; truncations never
    // decode.
    assert!(
        restored > 0 && rejected > 0,
        "{restored} restored, {refused} refused on restore, {rejected} rejected on decode"
    );
}

/// Re-encodes `edit`ed golden state, so the hostile state arrives as a
/// body with a valid length and checksum.
fn edited_golden(edit: impl FnOnce(&mut baat_sim::SimState)) -> Vec<u8> {
    let mut snapshot = SimSnapshot::from_bytes(&read_golden()).expect("golden parses");
    edit(&mut snapshot.state);
    snapshot.to_bytes()
}

/// A telemetry history holding more samples than its capacity is
/// refused by the decoder: restoring it would build a history that never
/// shrinks back under its cap, or, at capacity 0, never updates again.
#[test]
fn telemetry_samples_beyond_capacity_are_corrupt() {
    for capacity in [|n: usize| n - 1, |_| 0] {
        let bytes = edited_golden(|s| {
            let samples = s.telemetry.len(1);
            assert!(samples > 0);
            s.batteries[1].telemetry.max_samples = capacity(samples);
        });
        assert_eq!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Corrupt {
                context: "telemetry samples len"
            })
        );
    }
    // At capacity exactly, the history is full and still decodes.
    let bytes = edited_golden(|s| {
        s.batteries[1].telemetry.max_samples = s.telemetry.len(1);
    });
    SimSnapshot::from_bytes(&bytes).expect("full history decodes");
}

/// A power-table run longer than the table's retention is refused by
/// the decoder, as an over-long telemetry run is: a restore adopts the
/// decoded rows as they are, so it would resume a table holding more
/// rows than recording ever leaves it. A run at the retention exactly
/// decodes.
#[test]
fn power_table_runs_beyond_retention_are_corrupt() {
    /// `rows` with node 1's run lengthened to `len` by repeating `row`.
    fn stretched<T: Copy>(rows: &History<T>, row: T, len: usize) -> History<T> {
        let mut rows = rows.to_rows();
        let extra = len - rows[1].len();
        rows[1].splice(0..0, std::iter::repeat_n(row, extra));
        History::from_rows(rows, len)
    }
    let server_row = ServerPowerRecord {
        at: SimInstant::from_secs(0),
        power: Watts::new(1.0),
    };
    for (len, fits) in [
        (PowerTable::MAX_ROWS, true),
        (PowerTable::MAX_ROWS + 1, false),
    ] {
        let battery = edited_golden(|s| {
            let row = s.battery_rows.to_rows()[1][0];
            s.battery_rows = stretched(&s.battery_rows, row, len);
        });
        let server = edited_golden(|s| s.server_rows = stretched(&s.server_rows, server_row, len));
        for (bytes, context) in [
            (battery, "power table battery len"),
            (server, "power table server len"),
        ] {
            let decoded = SimSnapshot::from_bytes(&bytes);
            if fits {
                assert_eq!(decoded.expect("decodes").to_bytes(), bytes, "{context}");
            } else {
                assert_eq!(decoded, Err(SnapshotError::Corrupt { context }));
            }
        }
    }
}

/// A telemetry capacity other than the unit's configured one decodes
/// but is refused on restore: it would lift (or drop) the retention
/// bound for the rest of the run.
#[test]
fn telemetry_capacity_must_match_the_configured_one() {
    let golden = SimSnapshot::from_bytes(&read_golden()).expect("golden parses");
    let configured = golden.state.batteries[1].telemetry.max_samples;
    assert_eq!(configured, 4_096);
    // The last one is a full history that the decoder accepts.
    for capacity in [configured + 1, 1 << 40, 0, golden.state.telemetry.len(1)] {
        let bytes = edited_golden(|s| {
            let mut samples = s.telemetry.to_rows();
            samples[1].truncate(capacity);
            s.telemetry = History::from_rows(samples, s.telemetry.limit());
            s.batteries[1].telemetry.max_samples = capacity;
        });
        let snapshot = SimSnapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(
            Simulation::restore(golden_config(), &snapshot).err(),
            Some(SimError::Snapshot(SnapshotError::StateMismatch {
                context: "telemetry capacity"
            })),
            "capacity {capacity}"
        );
    }
}

/// Decodable states that do not fit the rebuilt simulation are refused
/// on restore with a typed error, not applied in part.
#[test]
fn misfit_states_are_refused_on_restore() {
    let mismatch = |context| SimError::Snapshot(SnapshotError::StateMismatch { context });
    let edits: [(fn(&mut baat_sim::SimState), _); 2] = [
        (
            |s| {
                let mut battery = s.battery_rows.to_rows();
                let mut server = s.server_rows.to_rows();
                battery.pop();
                server.pop();
                s.battery_rows = History::from_rows(battery, s.battery_rows.limit());
                s.server_rows = History::from_rows(server, s.server_rows.limit());
            },
            mismatch("per-node/per-bank vector lengths"),
        ),
        (
            |s| s.injector.held.push(None),
            mismatch("fault injector lengths"),
        ),
    ];
    for (edit, expected) in edits {
        let snapshot = SimSnapshot::from_bytes(&edited_golden(edit)).expect("decodes");
        assert_eq!(
            Simulation::restore(golden_config(), &snapshot).err(),
            Some(expected)
        );
    }
    let snapshot =
        SimSnapshot::from_bytes(&edited_golden(|s| drop(s.cluster.hosts.pop()))).expect("decodes");
    assert!(matches!(
        Simulation::restore(golden_config(), &snapshot),
        Err(SimError::Server(_))
    ));
}

/// A policy with a different name than the snapshot's recorded state
/// keeps its fresh state (no cross-policy contamination).
#[test]
fn policy_state_only_applies_to_the_matching_policy() {
    struct Renamed(RoundRobinPolicy);
    impl Policy for Renamed {
        fn name(&self) -> &'static str {
            "renamed"
        }
        fn control(
            &mut self,
            view: &baat_sim::SystemView,
            ctx: &baat_sim::ControlCtx<'_>,
        ) -> Vec<baat_sim::Action> {
            self.0.control(view, ctx)
        }
        fn placement_order(
            &mut self,
            kind: baat_workload::WorkloadKind,
            view: &baat_sim::SystemView,
        ) -> Vec<usize> {
            self.0.placement_order(kind, view)
        }
        fn save_state(&self) -> Vec<u64> {
            self.0.save_state()
        }
        fn load_state(&mut self, state: &[u64]) {
            self.0.load_state(state);
        }
    }

    let config = coarse_config(Chemistry::LeadAcid, Weather::Sunny, 3, 3);
    let mut sim = Simulation::new(config).expect("sim builds");
    let mut policy = RoundRobinPolicy::new();
    sim.run_steps(&mut policy, 50).expect("prefix runs");
    let snapshot = sim.snapshot_with_policy(&policy);

    let mut other = Renamed(RoundRobinPolicy::new());
    assert!(!snapshot.apply_policy_state(&mut other));
    assert_eq!(other.0.save_state(), RoundRobinPolicy::new().save_state());
}
