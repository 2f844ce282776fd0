//! Versioned checkpoint/restore for a running [`Simulation`].
//!
//! A [`SimSnapshot`] carries everything the engine needs to resume a run
//! bit-identically: the dynamic half of every substrate (battery units,
//! cluster, sensors, workload generator, cloud process, fault injector),
//! every RNG stream position, the event log and trace recorder, and the
//! engine's own step bookkeeping. The static half — specs, variation
//! scales, derived tables — is deliberately absent: it is reproduced
//! exactly by rebuilding the simulation from the same [`SimConfig`], so
//! a snapshot is *config + dynamic state*, never a full object graph.
//!
//! The byte format is self-describing and dependency-free:
//!
//! ```text
//! magic    8 bytes  b"BAATSNAP"
//! version  u32 LE   SNAPSHOT_VERSION
//! chem     u8       index into Chemistry::ALL
//! config   u64 LE   FNV-1a hash of the canonical config rendering
//! len      u64 LE   body length in bytes
//! body     len      field-ordered little-endian state encoding
//! check    u64 LE   CRC-64/XZ of the body
//! ```
//!
//! Integers are little-endian; `f64`s travel as raw IEEE-754 bits (so
//! round-tripping is bit-exact, NaN payloads included); enums are
//! single-byte tags. Loading rejects wrong magic, unknown versions,
//! chemistry or config mismatches, truncation and corruption with typed
//! [`SnapshotError`]s — it never panics on malformed input, and no
//! length prefix can make it reserve more memory than the remaining
//! input could fill.
//!
//! One field-ordered walk of the state feeds every consumer through a
//! byte [`Sink`]: a counting pass sizes the output, a second pass writes
//! header, body and trailer into one exact-size buffer, and
//! [`SimSnapshot::state_hash`] streams FNV-1a over the same bytes
//! without materializing them. Runs of fixed-width rows (sensor samples,
//! server power rows) go out one `put` per row and come back from one
//! bounds check per run.
//!
//! The three histories (power-table battery and server rows per node,
//! telemetry samples per bank) travel in [`SimState`] as [`History`]s
//! that share the engine's journal segments, so capturing a state copies
//! no retained row. The encoder reads each key's rows across those
//! segments, at a fixed stride through each lockstep chunk, and fills a
//! block of keys' runs at a time into `to_bytes`' zeroed buffer. The
//! decoder parses each key's run straight into that key of one base
//! block per history, and a restore adopts the block as it is.
//!
//! [`Simulation`]: crate::Simulation

use std::collections::VecDeque;
use std::ops::Range;

use baat_battery::{
    AgingBreakdown, BatteryUnitState, Chemistry, SensorSample, TelemetryState, UsageAccumulator,
};
use baat_faults::{FaultKind, InjectorState};
use baat_power::{ChargeStage, History, PowerTable, ServerPowerRecord};
use baat_server::{ClusterState, DvfsLevel, HostState, InFlightState, ServerId};
use baat_solar::Weather;
use baat_units::{
    AmpHours, Amperes, Celsius, SimDuration, SimInstant, Soc, TimeOfDay, Volts, WattHours, Watts,
};
use baat_workload::{Arrival, VmId, VmSnapshot, VmState, WorkloadKind};

use crate::config::SimConfig;
use crate::events::Event;
use crate::events::TimedEvent;
use crate::policy::{Action, ActionOutcome, ActionResult, Policy, RejectReason};
use crate::recorder::TraceRow;

/// File magic identifying a BAAT snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"BAATSNAP";

/// Current snapshot format version. Bumped on any encoding change;
/// loaders reject other versions rather than misread them.
///
/// Version 2 kept version 1's header and body byte for byte and replaced
/// the trailer's FNV-1a with CRC-64/XZ.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Header bytes before the body: magic, version, chemistry, config hash
/// and body length.
const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8;
/// Trailer bytes after the body: the CRC-64/XZ checksum.
const TRAILER_LEN: usize = 8;

/// Why a snapshot could not be encoded, decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build understands.
        expected: u32,
    },
    /// The snapshot's battery chemistry differs from the config's.
    ChemistryMismatch {
        /// Chemistry recorded in the snapshot.
        snapshot: Chemistry,
        /// Chemistry the restoring config uses.
        config: Chemistry,
    },
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Config hash recorded in the snapshot.
        snapshot: u64,
        /// Hash of the restoring config.
        config: u64,
    },
    /// The input ended before the named field could be read.
    Truncated {
        /// The field being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A decoded value was structurally invalid (bad enum tag, checksum
    /// failure, impossible length).
    Corrupt {
        /// What was being decoded.
        context: &'static str,
    },
    /// The decoded state does not fit the restoring simulation (e.g. a
    /// per-bank vector of the wrong length) — a config-hash near-miss
    /// that slipped past the header checks.
    StateMismatch {
        /// The mismatched section.
        context: &'static str,
    },
    /// Reading or writing the snapshot file failed.
    Io(String),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a BAAT snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            SnapshotError::ChemistryMismatch { snapshot, config } => write!(
                f,
                "snapshot chemistry {} does not match config chemistry {}",
                snapshot.name(),
                config.name()
            ),
            SnapshotError::ConfigMismatch { snapshot, config } => write!(
                f,
                "snapshot config hash {snapshot:#018x} does not match restoring config \
                 {config:#018x}; resume with the exact configuration the checkpoint was taken \
                 under"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::Corrupt { context } => write!(f, "snapshot corrupt: invalid {context}"),
            SnapshotError::StateMismatch { context } => {
                write!(f, "snapshot state does not fit the simulation: {context}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A policy's serialized decision state, carried alongside the engine
/// state so a resumed run replays the same future decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyState {
    /// [`Policy::name`] of the policy that produced the state.
    pub name: String,
    /// Opaque policy-private words (see [`Policy::save_state`]).
    pub data: Vec<u64>,
}

/// The dynamic state of a simulation at one step boundary.
///
/// Everything here is overwritten onto a freshly constructed
/// `Simulation` during restore; anything *not* here is either static
/// (rebuilt from config), an exact replay cache (safe to cold-start) or
/// observability-only (rebuilt empty).
#[derive(Debug, Clone, PartialEq)]
pub struct SimState {
    /// Steps completed so far.
    pub step_index: u64,
    /// Simulation clock.
    pub now: SimInstant,
    /// Weather class of the current day.
    pub weather_today: Weather,
    /// The day `start_day` last ran for (None before the first step).
    pub started_day: Option<u64>,
    /// Whether the operating window was open on the last step.
    pub in_window: bool,
    /// Per-bank SoC discharge floors.
    pub soc_floors: Vec<f64>,
    /// Per-bank consecutive-unserved-step streaks.
    pub unserved_streak: Vec<u32>,
    /// Per-node instant the node went offline (None while online).
    pub offline_since: Vec<Option<SimInstant>>,
    /// Per-node accumulated downtime.
    pub downtime: Vec<SimDuration>,
    /// Total energy demanded but not served.
    pub unserved_energy: WattHours,
    /// Total solar energy curtailed.
    pub curtailed_energy: WattHours,
    /// Total grid energy used for charging.
    pub grid_charge_energy: WattHours,
    /// Remaining arrivals of the current day, soonest first.
    pub arrivals_today: Vec<Arrival>,
    /// Jobs awaiting placement, in queue order.
    pub pending: Vec<VmSnapshot>,
    /// Cloud-process RNG stream position.
    pub clouds_rng: [u64; 4],
    /// Cloud-process AR(1) state.
    pub clouds_ar: f64,
    /// Per-bank battery current from the last step (A, +discharge).
    pub last_currents: Vec<f64>,
    /// Per-bank battery terminal voltage from the last step.
    pub last_voltages: Vec<f64>,
    /// Total solar power from the last step.
    pub last_solar: Watts,
    /// Outcomes of the previous control interval's actions.
    pub last_outcomes: Vec<ActionOutcome>,
    /// Per-bank cumulative charger mode switches.
    pub mode_switches: Vec<u64>,
    /// Per-bank last-observed charger stage.
    pub stage_last: Vec<Option<ChargeStage>>,
    /// Per-node degraded (stale-telemetry) flags.
    pub degraded: Vec<bool>,
    /// Actions the fallback scheme saw rejected last interval.
    pub fallback_rejected: Vec<Action>,
    /// Round-robin placement cursor.
    pub rr_cursor: u64,
    /// Workload-generator RNG stream position.
    pub generator_rng: [u64; 4],
    /// Next VM id the generator will assign.
    pub generator_next_id: u64,
    /// Per-bank sensor noise RNG stream positions.
    pub sensor_rngs: Vec<[u64; 4]>,
    /// Fault-injector runtime state (active flags, held samples, RNG).
    pub injector: InjectorState,
    /// The full event log, oldest first.
    pub events: Vec<TimedEvent>,
    /// Recorder accepted-push stride.
    pub recorder_keep_every: u64,
    /// Recorder total pushes offered.
    pub recorder_pushes: u64,
    /// Recorder retained rows, oldest first.
    pub recorder_rows: Vec<TraceRow>,
    /// Cluster runtime state (hosts, VMs, in-flight migrations).
    pub cluster: ClusterState,
    /// Per-node power-table battery rows, sharing the engine's journal.
    pub battery_rows: History<SensorSample>,
    /// Per-node power-table server rows, sharing the engine's journal.
    pub server_rows: History<ServerPowerRecord>,
    /// Per-bank battery unit state (SoC, thermal, aging, latest sample
    /// and usage accumulators).
    pub batteries: Vec<BatteryUnitState>,
    /// Per-bank telemetry samples, sharing the engine's journal; encoded
    /// within each bank's battery state.
    pub telemetry: History<SensorSample>,
    /// Policy decision state, when captured with a policy in hand.
    pub policy: Option<PolicyState>,
}

/// A versioned, self-describing checkpoint of a running simulation.
///
/// Produced by `Simulation::snapshot`, consumed by
/// `Simulation::restore`. The header triple (version, chemistry, config
/// hash) lets a loader reject a snapshot it cannot faithfully resume
/// *before* touching the body.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`] when produced by this build).
    pub version: u32,
    /// Battery chemistry the run used.
    pub chemistry: Chemistry,
    /// FNV-1a hash of the configuration the run was built from.
    pub config_hash: u64,
    /// The dynamic state.
    pub state: SimState,
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the workspace's dependency-free hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.put(bytes);
    h.0
}

/// CRC-64/XZ reflected polynomial (ECMA-182, bit-reversed).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-16 lookup tables: `CRC64_TABLES[0]` is the classic
/// byte-at-a-time table, and `CRC64_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so 16 input bytes fold in with 16
/// independent lookups.
static CRC64_TABLES: [[u64; 256]; 16] = crc64_tables();

const fn crc64_tables() -> [[u64; 256]; 16] {
    let mut t = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-64/XZ over a byte slice (reflected polynomial
/// `0xC96C5795D7870F42`, init and xorout all ones) — the check `xz
/// --check=crc64` computes, and the snapshot trailer.
///
/// The input is split into four equal lanes of whole 16-byte blocks
/// plus a tail of under 64 bytes. The lanes run as four independent
/// slicing-by-16 chains in one loop, so their table lookups overlap
/// instead of waiting on each other, and are joined by the linearity of
/// the raw (no init, no xorout) register: `raw(r, A‖B) = raw(0, B) ⊕
/// r·x^(8|B|) mod P`. Below 64 bytes the lanes are empty and the tail
/// is the whole input.
pub fn crc64(bytes: &[u8]) -> u64 {
    let lane = bytes.len() / 64 * 16;
    let (a, rest) = bytes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, rest) = rest.split_at(lane);
    let (d, tail) = rest.split_at(lane);
    let mut crc = [!0u64, 0, 0, 0];
    let blocks = a.chunks_exact(16).zip(b.chunks_exact(16));
    let blocks = blocks.zip(c.chunks_exact(16).zip(d.chunks_exact(16)));
    for ((b0, b1), (b2, b3)) in blocks {
        crc[0] = crc64_block(crc[0], b0);
        crc[1] = crc64_block(crc[1], b1);
        crc[2] = crc64_block(crc[2], b2);
        crc[3] = crc64_block(crc[3], b3);
    }
    let shift = crc64_x_pow_8n(lane);
    let joined = crc[1..]
        .iter()
        .fold(crc[0], |r, &next| gf2_mul_mod(r, shift) ^ next);
    !crc64_raw(joined, tail)
}

/// Folds one 16-byte block into the raw register with slicing-by-16.
#[inline(always)]
fn crc64_block(crc: u64, block: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    // The reflected CRC lines up with the block's first 8 bytes.
    let x = u128::from_le_bytes(block.try_into().expect("16 bytes")) ^ u128::from(crc);
    (0..16).fold(0, |acc, k| {
        acc ^ t[15 - k][((x >> (8 * k)) & 0xff) as usize]
    })
}

/// The raw register after feeding `bytes` to register `crc`, one
/// stream.
fn crc64_raw(mut crc: u64, bytes: &[u8]) -> u64 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        crc = crc64_block(crc, block);
    }
    for &b in blocks.remainder() {
        crc = CRC64_TABLES[0][((crc ^ u64::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// `a·b mod P` over GF(2) in the reflected representation, where bit
/// `63 − k` holds the coefficient of `x^k`.
fn gf2_mul_mod(a: u64, mut b: u64) -> u64 {
    let mut product = 0;
    let mut bit = 1u64 << 63;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        bit >>= 1;
        // b ← b·x mod P.
        b = if b & 1 == 1 {
            (b >> 1) ^ CRC64_POLY
        } else {
            b >> 1
        };
    }
    product
}

/// `x^(8n) mod P` by square-and-multiply: feeding `n` zero bytes to a
/// raw register multiplies it by this.
fn crc64_x_pow_8n(n: usize) -> u64 {
    let mut exp = 8 * n as u64;
    let mut power = 1u64 << 63; // x^0
    let mut square = 1u64 << 62; // x^1, then x^2, x^4, …
    while exp != 0 {
        if exp & 1 == 1 {
            power = gf2_mul_mod(power, square);
        }
        square = gf2_mul_mod(square, square);
        exp >>= 1;
    }
    power
}

/// Canonical hash of a [`SimConfig`], used to pin a snapshot to the
/// configuration it was captured under.
///
/// The hash covers every config field (via the canonical `Debug`
/// rendering, which is exhaustive for this plain-data struct), so *any*
/// config drift — different seed, fault plan, battery spec, topology —
/// changes the hash and restore refuses with
/// [`SnapshotError::ConfigMismatch`]. It is a same-build guard, not a
/// portable identity: the `version` header field owns cross-build
/// compatibility.
pub fn config_hash(config: &SimConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

// ---------------------------------------------------------------------
// Byte-level encoder/decoder.

/// Destination of encoded bytes. The format is walked once per
/// consumer: [`ByteCount`] sizes it, [`Buffer`] writes it and [`Fnv1a`]
/// hashes it, so all three see exactly the same bytes.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    /// Passes over `len` bytes that the encoder writes later, through
    /// [`Sink::written`], and returns where they start; `None` from a
    /// sink that only streams, to which the encoder puts them in order.
    fn gap(&mut self, _len: usize) -> Option<usize> {
        None
    }

    /// The bytes the sink keeps, gaps included; empty from a sink that
    /// keeps none, which has no gap to fill.
    fn written(&mut self) -> &mut [u8] {
        &mut []
    }
}

/// A growable sink for the unit tests' small encodings; it streams.
#[cfg(test)]
impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The output of [`SimSnapshot::to_bytes`]: a zeroed buffer of the
/// exact encoded size, written front to back. A gap is passed over,
/// already zero, and a zeroed allocation is not touched before it is
/// written, so no byte is written twice.
struct Buffer {
    bytes: Vec<u8>,
    len: usize,
}

impl Sink for Buffer {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        self.bytes[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    fn gap(&mut self, len: usize) -> Option<usize> {
        let start = self.len;
        self.len += len;
        Some(start)
    }

    fn written(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

/// Counts encoded bytes without storing them.
#[derive(Default)]
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn gap(&mut self, len: usize) -> Option<usize> {
        self.0 += len;
        Some(0)
    }
}

/// Streaming FNV-1a state.
struct Fnv1a(u64);

impl Sink for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

#[derive(Default)]
struct Enc<S> {
    out: S,
}

impl<S: Sink> Enc<S> {
    fn u8(&mut self, v: u8) {
        self.out.put(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.out.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.put(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn rng(&mut self, s: &[u64; 4]) {
        for &w in s {
            self.u64(w);
        }
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.out.put(s.as_bytes());
    }
    /// One fixed-width row of little-endian words, in a single `put`.
    fn words<const N: usize>(&mut self, words: [u64; N]) {
        self.out.put(words.map(u64::to_le_bytes).as_flattened());
    }
    /// `key`'s rows of `history` as a length-prefixed run of
    /// fixed-width rows. A streaming sink gets them in order, one `put`
    /// per row; any other sink leaves a gap, whose start is returned,
    /// for [`Enc::fill`] to write a block of keys' rows into at once.
    fn run<T, const N: usize>(
        &mut self,
        history: &History<T>,
        key: usize,
        words: impl Fn(&T) -> [u64; N],
    ) -> Option<usize> {
        let len = history.len(key);
        self.usize(len);
        let gap = self.out.gap(len * N * width::WORD);
        if gap.is_none() {
            history.for_each_row(key..key + 1, |_, row| self.words(words(row)));
        }
        gap
    }

    /// Writes the rows of `keys` into the gaps [`Enc::run`] left for
    /// them, `gaps[i]` for key `keys.start + i`, reading the block's
    /// rows chunk by chunk ([`History::for_each_row`]).
    fn fill<T, const N: usize>(
        &mut self,
        history: &History<T>,
        keys: Range<usize>,
        gaps: &[Option<usize>; BLOCK],
        words: impl Fn(&T) -> [u64; N],
    ) {
        let out = self.out.written();
        if out.is_empty() {
            return;
        }
        let mut at = gaps.map(|gap| gap.unwrap_or(0));
        history.for_each_row(keys, |i, row| {
            let row = words(row).map(u64::to_le_bytes);
            out[at[i]..at[i] + N * width::WORD].copy_from_slice(row.as_flattened());
            at[i] += N * width::WORD;
        });
    }
}

/// The `N` little-endian words of one fixed-width row.
fn words<const N: usize>(row: &[u8]) -> [u64; N] {
    std::array::from_fn(|i| {
        u64::from_le_bytes(row[8 * i..8 * i + 8].try_into().expect("8-byte word"))
    })
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, SnapshotError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated { context })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> DecResult<u8> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> DecResult<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> DecResult<u64> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn usize(&mut self, context: &'static str) -> DecResult<usize> {
        usize::try_from(self.u64(context)?).map_err(|_| SnapshotError::Corrupt { context })
    }

    /// A length prefix for a sequence of elements each encoded in at
    /// least `width` bytes — bounded by how many such elements the
    /// remaining input can hold, so a corrupt length fails fast and a
    /// `Vec::with_capacity(n)` never reserves more elements than the
    /// input could fill.
    fn len(&mut self, width: usize, context: &'static str) -> DecResult<usize> {
        let n = self.usize(context)?;
        if n > (self.buf.len() - self.pos) / width {
            return Err(SnapshotError::Corrupt { context });
        }
        Ok(n)
    }

    fn f64(&mut self, context: &'static str) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    fn bool(&mut self, context: &'static str) -> DecResult<bool> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { context }),
        }
    }

    fn opt_u64(&mut self, context: &'static str) -> DecResult<Option<u64>> {
        match self.u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64(context)?)),
            _ => Err(SnapshotError::Corrupt { context }),
        }
    }

    fn rng(&mut self, context: &'static str) -> DecResult<[u64; 4]> {
        Ok([
            self.u64(context)?,
            self.u64(context)?,
            self.u64(context)?,
            self.u64(context)?,
        ])
    }

    /// A length-prefixed run of at most `max` fixed-width rows of `N`
    /// words: the whole run is taken with one bounds check, then parsed
    /// row by row.
    fn rows<T, const N: usize>(
        &mut self,
        max: usize,
        context: &'static str,
        row: impl Fn([u64; N]) -> T,
    ) -> DecResult<Vec<T>> {
        let width = N * width::WORD;
        let n = self.len(width, context)?;
        if n > max {
            return Err(SnapshotError::Corrupt { context });
        }
        let run = self.take(n * width, context)?;
        Ok(run.chunks_exact(width).map(|r| row(words(r))).collect())
    }
}

/// Smallest encoded width, in bytes, of one element of each
/// length-prefixed sequence — the divisor [`Dec::len`] bounds a length
/// prefix by. Each is an exact minimum, pinned against the encoder by
/// `min_widths_match_the_encoder`.
mod width {
    /// A `u64` or `f64`.
    pub const WORD: usize = 8;
    /// A `u32`.
    pub const U32: usize = 4;
    /// A one-byte value: `bool`, enum tag, option tag or string byte.
    pub const TAG: usize = 1;
    /// An RNG stream position.
    pub const RNG: usize = 4 * WORD;
    /// An arrival: `u32` time of day plus a kind tag.
    pub const ARRIVAL: usize = U32 + TAG;
    /// A VM: id, kind, state, progress, work, migrations.
    pub const VM: usize = WORD + 2 * TAG + 2 * WORD + U32;
    /// An action; `SetDvfs` is the shortest (tag, node, level).
    pub const ACTION: usize = TAG + WORD + TAG;
    /// An action outcome: action plus result tag.
    pub const OUTCOME: usize = ACTION + TAG;
    /// A timed event; the shortest is a fault event whose fault carries
    /// no payload (timestamp, event tag, fault tag).
    pub const EVENT: usize = WORD + 2 * TAG;
    /// A sensor sample: timestamp and four `f64`s.
    pub const SAMPLE: usize = 5 * WORD;
    /// One node's power table: two length prefixes.
    pub const POWER_TABLE_NODE: usize = 2 * WORD;
    /// A recorder row with empty series: at, solar, three lengths, work.
    pub const TRACE_ROW: usize = 6 * WORD;
    /// A host with no VMs: dvfs, online, boot, work, jobs, VM count.
    pub const HOST: usize = 2 * TAG + 4 * WORD;
    /// An in-flight migration: VM, target, completion time.
    pub const IN_FLIGHT: usize = VM + 2 * WORD;
    /// A usage accumulator: 21 words.
    pub const ACCUMULATOR: usize = 21 * WORD;
    /// A battery with no aging mechanisms and no samples: four scalars,
    /// breakdown length, capacity, sample count, two accumulators.
    pub const BATTERY: usize = 7 * WORD + 2 * ACCUMULATOR;
}

// ---------------------------------------------------------------------
// Enum tag tables. Tags are part of the format: append-only, never
// reorder without bumping SNAPSHOT_VERSION.

fn weather_tag(w: Weather) -> u8 {
    Weather::ALL
        .iter()
        .position(|&x| x == w)
        .expect("known weather") as u8
}

fn weather_from(tag: u8) -> DecResult<Weather> {
    Weather::ALL
        .get(tag as usize)
        .copied()
        .ok_or(SnapshotError::Corrupt {
            context: "weather tag",
        })
}

fn chemistry_tag(c: Chemistry) -> u8 {
    Chemistry::ALL
        .iter()
        .position(|&x| x == c)
        .expect("known chemistry") as u8
}

fn chemistry_from(tag: u8) -> DecResult<Chemistry> {
    Chemistry::ALL
        .get(tag as usize)
        .copied()
        .ok_or(SnapshotError::Corrupt {
            context: "chemistry tag",
        })
}

fn kind_tag(k: WorkloadKind) -> u8 {
    WorkloadKind::ALL
        .iter()
        .position(|&x| x == k)
        .expect("known workload") as u8
}

fn kind_from(tag: u8) -> DecResult<WorkloadKind> {
    WorkloadKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or(SnapshotError::Corrupt {
            context: "workload kind tag",
        })
}

fn dvfs_tag(l: DvfsLevel) -> u8 {
    DvfsLevel::ALL
        .iter()
        .position(|&x| x == l)
        .expect("known dvfs level") as u8
}

fn dvfs_from(tag: u8) -> DecResult<DvfsLevel> {
    DvfsLevel::ALL
        .get(tag as usize)
        .copied()
        .ok_or(SnapshotError::Corrupt {
            context: "dvfs tag",
        })
}

fn vm_state_tag(s: VmState) -> u8 {
    match s {
        VmState::Running => 0,
        VmState::Paused => 1,
        VmState::Migrating => 2,
        VmState::Completed => 3,
    }
}

fn vm_state_from(tag: u8) -> DecResult<VmState> {
    Ok(match tag {
        0 => VmState::Running,
        1 => VmState::Paused,
        2 => VmState::Migrating,
        3 => VmState::Completed,
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "vm state tag",
            })
        }
    })
}

fn stage_tag(s: ChargeStage) -> u8 {
    match s {
        ChargeStage::Bulk => 0,
        ChargeStage::Absorption => 1,
        ChargeStage::Float => 2,
    }
}

fn stage_from(tag: u8) -> DecResult<ChargeStage> {
    Ok(match tag {
        0 => ChargeStage::Bulk,
        1 => ChargeStage::Absorption,
        2 => ChargeStage::Float,
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "charge stage tag",
            })
        }
    })
}

fn reject_tag(r: RejectReason) -> u8 {
    match r {
        RejectReason::UnknownNode => 0,
        RejectReason::UnknownVm => 1,
        RejectReason::AlreadyMigrating => 2,
        RejectReason::TargetIsSource => 3,
        RejectReason::TargetFull => 4,
        RejectReason::FaultInjected => 5,
    }
}

fn reject_from(tag: u8) -> DecResult<RejectReason> {
    Ok(match tag {
        0 => RejectReason::UnknownNode,
        1 => RejectReason::UnknownVm,
        2 => RejectReason::AlreadyMigrating,
        3 => RejectReason::TargetIsSource,
        4 => RejectReason::TargetFull,
        5 => RejectReason::FaultInjected,
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "reject reason tag",
            })
        }
    })
}

// ---------------------------------------------------------------------
// Composite encoders/decoders, one pair per carried type.

fn enc_action<S: Sink>(e: &mut Enc<S>, a: &Action) {
    match a {
        Action::SetDvfs { node, level } => {
            e.u8(0);
            e.usize(*node);
            e.u8(dvfs_tag(*level));
        }
        Action::Migrate { vm, target } => {
            e.u8(1);
            e.u64(vm.0);
            e.usize(*target);
        }
        Action::SetSocFloor { node, floor } => {
            e.u8(2);
            e.usize(*node);
            e.f64(floor.value());
        }
    }
}

fn dec_action(d: &mut Dec<'_>) -> DecResult<Action> {
    Ok(match d.u8("action tag")? {
        0 => Action::SetDvfs {
            node: d.usize("action node")?,
            level: dvfs_from(d.u8("action level")?)?,
        },
        1 => Action::Migrate {
            vm: VmId(d.u64("action vm")?),
            target: d.usize("action target")?,
        },
        2 => Action::SetSocFloor {
            node: d.usize("action node")?,
            floor: Soc::saturating(d.f64("action floor")?),
        },
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "action tag",
            })
        }
    })
}

fn enc_outcome<S: Sink>(e: &mut Enc<S>, o: &ActionOutcome) {
    enc_action(e, &o.action);
    match o.result {
        ActionResult::Applied => e.u8(0),
        ActionResult::Rejected(r) => {
            e.u8(1);
            e.u8(reject_tag(r));
        }
    }
}

fn dec_outcome(d: &mut Dec<'_>) -> DecResult<ActionOutcome> {
    let action = dec_action(d)?;
    let result = match d.u8("outcome tag")? {
        0 => ActionResult::Applied,
        1 => ActionResult::Rejected(reject_from(d.u8("outcome reason")?)?),
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "outcome tag",
            })
        }
    };
    Ok(ActionOutcome { action, result })
}

fn enc_fault<S: Sink>(e: &mut Enc<S>, f: &FaultKind) {
    match f {
        FaultKind::SensorDropout { bank } => {
            e.u8(0);
            e.usize(*bank);
        }
        FaultKind::SensorStuckAt { bank } => {
            e.u8(1);
            e.usize(*bank);
        }
        FaultKind::SensorNoise { bank, sigma } => {
            e.u8(2);
            e.usize(*bank);
            e.f64(*sigma);
        }
        FaultKind::SensorDrift {
            bank,
            volts_per_hour,
        } => {
            e.u8(3);
            e.usize(*bank);
            e.f64(*volts_per_hour);
        }
        FaultKind::PvOutage => e.u8(4),
        FaultKind::InverterDerate { fraction } => {
            e.u8(5);
            e.f64(*fraction);
        }
        FaultKind::ChargerFailure { bank } => {
            e.u8(6);
            e.usize(*bank);
        }
        FaultKind::ChargerModeStuck { bank } => {
            e.u8(7);
            e.usize(*bank);
        }
        FaultKind::BatteryOpenCircuit { bank } => {
            e.u8(8);
            e.usize(*bank);
        }
        FaultKind::ThermalSensorLoss { bank } => {
            e.u8(9);
            e.usize(*bank);
        }
        FaultKind::HostFailure { node } => {
            e.u8(10);
            e.usize(*node);
        }
        FaultKind::MigrationsBlocked => e.u8(11),
    }
}

fn dec_fault(d: &mut Dec<'_>) -> DecResult<FaultKind> {
    Ok(match d.u8("fault tag")? {
        0 => FaultKind::SensorDropout {
            bank: d.usize("fault bank")?,
        },
        1 => FaultKind::SensorStuckAt {
            bank: d.usize("fault bank")?,
        },
        2 => FaultKind::SensorNoise {
            bank: d.usize("fault bank")?,
            sigma: d.f64("fault sigma")?,
        },
        3 => FaultKind::SensorDrift {
            bank: d.usize("fault bank")?,
            volts_per_hour: d.f64("fault drift rate")?,
        },
        4 => FaultKind::PvOutage,
        5 => FaultKind::InverterDerate {
            fraction: d.f64("fault fraction")?,
        },
        6 => FaultKind::ChargerFailure {
            bank: d.usize("fault bank")?,
        },
        7 => FaultKind::ChargerModeStuck {
            bank: d.usize("fault bank")?,
        },
        8 => FaultKind::BatteryOpenCircuit {
            bank: d.usize("fault bank")?,
        },
        9 => FaultKind::ThermalSensorLoss {
            bank: d.usize("fault bank")?,
        },
        10 => FaultKind::HostFailure {
            node: d.usize("fault node")?,
        },
        11 => FaultKind::MigrationsBlocked,
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "fault tag",
            })
        }
    })
}

fn enc_event<S: Sink>(e: &mut Enc<S>, ev: &Event) {
    match ev {
        Event::ServerShutdown { node } => {
            e.u8(0);
            e.usize(*node);
        }
        Event::ServerRestart { node } => {
            e.u8(1);
            e.usize(*node);
        }
        Event::DvfsChanged { node, level } => {
            e.u8(2);
            e.usize(*node);
            e.u8(dvfs_tag(*level));
        }
        Event::MigrationStarted { vm, from, to } => {
            e.u8(3);
            e.u64(vm.0);
            e.usize(*from);
            e.usize(*to);
        }
        Event::Action { outcome } => {
            e.u8(4);
            enc_outcome(e, outcome);
        }
        Event::BatteryCutoff { node } => {
            e.u8(5);
            e.usize(*node);
        }
        Event::SocFloorChanged { node, floor } => {
            e.u8(6);
            e.usize(*node);
            e.f64(floor.value());
        }
        Event::PlacementFailed { node } => {
            e.u8(7);
            e.usize(*node);
        }
        Event::FaultInjected { fault } => {
            e.u8(8);
            enc_fault(e, fault);
        }
        Event::FaultCleared { fault } => {
            e.u8(9);
            enc_fault(e, fault);
        }
        Event::DegradedMode { node, active } => {
            e.u8(10);
            e.usize(*node);
            e.bool(*active);
        }
    }
}

fn dec_event(d: &mut Dec<'_>) -> DecResult<Event> {
    Ok(match d.u8("event tag")? {
        0 => Event::ServerShutdown {
            node: d.usize("event node")?,
        },
        1 => Event::ServerRestart {
            node: d.usize("event node")?,
        },
        2 => Event::DvfsChanged {
            node: d.usize("event node")?,
            level: dvfs_from(d.u8("event level")?)?,
        },
        3 => Event::MigrationStarted {
            vm: VmId(d.u64("event vm")?),
            from: d.usize("event from")?,
            to: d.usize("event to")?,
        },
        4 => Event::Action {
            outcome: dec_outcome(d)?,
        },
        5 => Event::BatteryCutoff {
            node: d.usize("event node")?,
        },
        6 => Event::SocFloorChanged {
            node: d.usize("event node")?,
            floor: Soc::saturating(d.f64("event floor")?),
        },
        7 => Event::PlacementFailed {
            node: d.usize("event node")?,
        },
        8 => Event::FaultInjected {
            fault: dec_fault(d)?,
        },
        9 => Event::FaultCleared {
            fault: dec_fault(d)?,
        },
        10 => Event::DegradedMode {
            node: d.usize("event node")?,
            active: d.bool("event active")?,
        },
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "event tag",
            })
        }
    })
}

fn enc_vm<S: Sink>(e: &mut Enc<S>, v: &VmSnapshot) {
    e.u64(v.id.0);
    e.u8(kind_tag(v.kind));
    e.u8(vm_state_tag(v.state));
    e.f64(v.progress);
    e.f64(v.work_done);
    e.u32(v.migrations);
}

fn dec_vm(d: &mut Dec<'_>) -> DecResult<VmSnapshot> {
    Ok(VmSnapshot {
        id: VmId(d.u64("vm id")?),
        kind: kind_from(d.u8("vm kind")?)?,
        state: vm_state_from(d.u8("vm state")?)?,
        progress: d.f64("vm progress")?,
        work_done: d.f64("vm work")?,
        migrations: d.u32("vm migrations")?,
    })
}

/// A sensor sample's row: timestamp, voltage, current, temperature, SoC.
fn sample_words(s: &SensorSample) -> [u64; 5] {
    [
        s.at.as_secs(),
        s.voltage.as_f64().to_bits(),
        s.current.as_f64().to_bits(),
        s.temperature.as_f64().to_bits(),
        s.soc.value().to_bits(),
    ]
}

fn sample_from([at, voltage, current, temperature, soc]: [u64; 5]) -> SensorSample {
    SensorSample {
        at: SimInstant::from_secs(at),
        voltage: Volts::new(f64::from_bits(voltage)),
        current: Amperes::new(f64::from_bits(current)),
        temperature: Celsius::new(f64::from_bits(temperature)),
        soc: Soc::saturating(f64::from_bits(soc)),
    }
}

/// A server power row: timestamp, power.
fn server_row_words(r: &ServerPowerRecord) -> [u64; 2] {
    [r.at.as_secs(), r.power.as_f64().to_bits()]
}

fn server_row_from([at, power]: [u64; 2]) -> ServerPowerRecord {
    ServerPowerRecord {
        at: SimInstant::from_secs(at),
        power: Watts::new(f64::from_bits(power)),
    }
}

fn enc_sample<S: Sink>(e: &mut Enc<S>, s: &SensorSample) {
    e.words(sample_words(s));
}

fn dec_sample(d: &mut Dec<'_>) -> DecResult<SensorSample> {
    Ok(sample_from(words(d.take(width::SAMPLE, "sample")?)))
}

fn enc_accumulator<S: Sink>(e: &mut Enc<S>, u: &UsageAccumulator) {
    e.f64(u.ah_discharged.as_f64());
    e.f64(u.ah_charged.as_f64());
    for r in &u.ah_discharged_by_range {
        e.f64(r.as_f64());
    }
    e.u64(u.observed.as_secs());
    e.u64(u.deep_discharge_time.as_secs());
    for b in &u.soc_time_histogram {
        e.u64(b.as_secs());
    }
    e.f64(u.peak_discharge.as_f64());
    e.f64(u.discharge_amp_seconds);
    e.u64(u.discharge_time.as_secs());
    e.f64(u.energy_out.as_f64());
    e.f64(u.energy_in.as_f64());
    e.u64(u.full_charge_events);
}

fn dec_accumulator(d: &mut Dec<'_>) -> DecResult<UsageAccumulator> {
    let mut u = UsageAccumulator {
        ah_discharged: AmpHours::new(d.f64("usage ah_discharged")?),
        ah_charged: AmpHours::new(d.f64("usage ah_charged")?),
        ..UsageAccumulator::default()
    };
    for r in &mut u.ah_discharged_by_range {
        *r = AmpHours::new(d.f64("usage range")?);
    }
    u.observed = SimDuration::from_secs(d.u64("usage observed")?);
    u.deep_discharge_time = SimDuration::from_secs(d.u64("usage deep time")?);
    for b in &mut u.soc_time_histogram {
        *b = SimDuration::from_secs(d.u64("usage histogram")?);
    }
    u.peak_discharge = Amperes::new(d.f64("usage peak")?);
    u.discharge_amp_seconds = d.f64("usage amp seconds")?;
    u.discharge_time = SimDuration::from_secs(d.u64("usage discharge time")?);
    u.energy_out = WattHours::new(d.f64("usage energy out")?);
    u.energy_in = WattHours::new(d.f64("usage energy in")?);
    u.full_charge_events = d.u64("usage full charges")?;
    Ok(u)
}

fn enc_breakdown<S: Sink>(e: &mut Enc<S>, b: &AgingBreakdown) {
    e.usize(b.len());
    for (_, value) in b.iter() {
        e.f64(value);
    }
}

/// Aging labels are `&'static str`s owned by the chemistry, so the
/// format stores values only, in chemistry breakdown order, and decoding
/// re-attaches the labels from the header's chemistry tag.
fn dec_breakdown(d: &mut Dec<'_>, chemistry: Chemistry) -> DecResult<AgingBreakdown> {
    let n = d.len(width::WORD, "breakdown len")?;
    if n == 0 {
        return Ok(AgingBreakdown::default());
    }
    let labels = chemistry.aging_labels();
    if n != labels.len() {
        return Err(SnapshotError::Corrupt {
            context: "breakdown mechanism count",
        });
    }
    let mut pairs = Vec::with_capacity(n);
    for &label in labels {
        pairs.push((label, d.f64("breakdown value")?));
    }
    Ok(AgingBreakdown::from_pairs(&pairs))
}

/// A bank's battery state, with its telemetry samples, key `bank` of
/// `samples`, in place of its latest sample. Returns the gap
/// [`Enc::run`] left for the samples.
fn enc_battery<S: Sink>(
    e: &mut Enc<S>,
    b: &BatteryUnitState,
    samples: &History<SensorSample>,
    bank: usize,
) -> Option<usize> {
    e.f64(b.soc.value());
    e.f64(b.hours_since_full);
    e.u64(b.cutoff_events);
    e.f64(b.temperature.as_f64());
    enc_breakdown(e, &b.aging);
    e.usize(b.telemetry.max_samples);
    let gap = e.run(samples, bank, sample_words);
    enc_accumulator(e, &b.telemetry.lifetime);
    enc_accumulator(e, &b.telemetry.window);
    gap
}

/// A bank's battery state and its telemetry samples, oldest first; the
/// newest sample is the unit's latest.
fn dec_battery(
    d: &mut Dec<'_>,
    chemistry: Chemistry,
) -> DecResult<(BatteryUnitState, Vec<SensorSample>)> {
    let soc = Soc::saturating(d.f64("battery soc")?);
    let hours_since_full = d.f64("battery hours since full")?;
    let cutoff_events = d.u64("battery cutoffs")?;
    let temperature = Celsius::new(d.f64("battery temperature")?);
    let aging = dec_breakdown(d, chemistry)?;
    let max_samples = d.usize("telemetry capacity")?;
    // A history never holds more than its capacity; restoring one that
    // did would never shrink back under it.
    let samples = d.rows(max_samples, "telemetry samples len", sample_from)?;
    let lifetime = dec_accumulator(d)?;
    let window = dec_accumulator(d)?;
    let state = BatteryUnitState {
        soc,
        hours_since_full,
        cutoff_events,
        temperature,
        aging,
        telemetry: TelemetryState {
            max_samples,
            latest: samples.last().copied(),
            lifetime,
            window,
        },
    };
    Ok((state, samples))
}

fn enc_host<S: Sink>(e: &mut Enc<S>, h: &HostState) {
    e.u8(dvfs_tag(h.dvfs));
    e.bool(h.online);
    e.u64(h.boot_remaining.as_secs());
    e.f64(h.work_done);
    e.u64(h.completed_jobs);
    e.usize(h.vms.len());
    for v in &h.vms {
        enc_vm(e, v);
    }
}

fn dec_host(d: &mut Dec<'_>) -> DecResult<HostState> {
    let dvfs = dvfs_from(d.u8("host dvfs")?)?;
    let online = d.bool("host online")?;
    let boot_remaining = SimDuration::from_secs(d.u64("host boot")?);
    let work_done = d.f64("host work")?;
    let completed_jobs = d.u64("host jobs")?;
    let n = d.len(width::VM, "host vm count")?;
    let mut vms = Vec::with_capacity(n);
    for _ in 0..n {
        vms.push(dec_vm(d)?);
    }
    Ok(HostState {
        dvfs,
        online,
        boot_remaining,
        work_done,
        completed_jobs,
        vms,
    })
}

fn enc_cluster<S: Sink>(e: &mut Enc<S>, c: &ClusterState) {
    e.usize(c.hosts.len());
    for h in &c.hosts {
        enc_host(e, h);
    }
    e.usize(c.in_flight.len());
    for m in &c.in_flight {
        enc_vm(e, &m.vm);
        e.usize(m.to.0);
        e.u64(m.completes_at.as_secs());
    }
    e.u64(c.migrations_started);
}

fn dec_cluster(d: &mut Dec<'_>) -> DecResult<ClusterState> {
    let n = d.len(width::HOST, "cluster host count")?;
    let mut hosts = Vec::with_capacity(n);
    for _ in 0..n {
        hosts.push(dec_host(d)?);
    }
    let m = d.len(width::IN_FLIGHT, "cluster in-flight count")?;
    let mut in_flight = Vec::with_capacity(m);
    for _ in 0..m {
        in_flight.push(InFlightState {
            vm: dec_vm(d)?,
            to: ServerId(d.usize("migration target")?),
            completes_at: SimInstant::from_secs(d.u64("migration completes")?),
        });
    }
    Ok(ClusterState {
        hosts,
        in_flight,
        migrations_started: d.u64("cluster migrations")?,
    })
}

fn enc_trace_row<S: Sink>(e: &mut Enc<S>, r: &TraceRow) {
    e.u64(r.at.as_secs());
    e.f64(r.solar.as_f64());
    e.usize(r.soc.len());
    for &s in &r.soc {
        e.f64(s);
    }
    e.usize(r.server_power.len());
    for &p in &r.server_power {
        e.f64(p.as_f64());
    }
    e.usize(r.battery_current.len());
    for &c in &r.battery_current {
        e.f64(c);
    }
    e.f64(r.work_cumulative);
}

fn dec_trace_row(d: &mut Dec<'_>) -> DecResult<TraceRow> {
    let at = SimInstant::from_secs(d.u64("row at")?);
    let solar = Watts::new(d.f64("row solar")?);
    let n = d.len(width::WORD, "row soc len")?;
    let mut soc = Vec::with_capacity(n);
    for _ in 0..n {
        soc.push(d.f64("row soc")?);
    }
    let n = d.len(width::WORD, "row power len")?;
    let mut server_power = Vec::with_capacity(n);
    for _ in 0..n {
        server_power.push(Watts::new(d.f64("row power")?));
    }
    let n = d.len(width::WORD, "row current len")?;
    let mut battery_current = Vec::with_capacity(n);
    for _ in 0..n {
        battery_current.push(d.f64("row current")?);
    }
    Ok(TraceRow {
        at,
        solar,
        soc,
        server_power,
        battery_current,
        work_cumulative: d.f64("row work")?,
    })
}

fn enc_injector<S: Sink>(e: &mut Enc<S>, i: &InjectorState) {
    e.usize(i.active.len());
    for &a in &i.active {
        e.bool(a);
    }
    e.usize(i.held.len());
    for h in &i.held {
        match h {
            None => e.u8(0),
            Some(s) => {
                e.u8(1);
                enc_sample(e, s);
            }
        }
    }
    e.usize(i.held_temp.len());
    for t in &i.held_temp {
        match t {
            None => e.u8(0),
            Some(c) => {
                e.u8(1);
                e.f64(c.as_f64());
            }
        }
    }
    e.rng(&i.rng_state);
}

fn dec_injector(d: &mut Dec<'_>) -> DecResult<InjectorState> {
    let n = d.len(width::TAG, "injector active len")?;
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        active.push(d.bool("injector active")?);
    }
    let n = d.len(width::TAG, "injector held len")?;
    let mut held = Vec::with_capacity(n);
    for _ in 0..n {
        held.push(match d.u8("injector held tag")? {
            0 => None,
            1 => Some(dec_sample(d)?),
            _ => {
                return Err(SnapshotError::Corrupt {
                    context: "injector held tag",
                })
            }
        });
    }
    let n = d.len(width::TAG, "injector held temp len")?;
    let mut held_temp = Vec::with_capacity(n);
    for _ in 0..n {
        held_temp.push(match d.u8("injector temp tag")? {
            0 => None,
            1 => Some(Celsius::new(d.f64("injector temp")?)),
            _ => {
                return Err(SnapshotError::Corrupt {
                    context: "injector temp tag",
                })
            }
        });
    }
    Ok(InjectorState {
        active,
        held,
        held_temp,
        rng_state: d.rng("injector rng")?,
    })
}

/// Keys a history's rows are encoded for at a time.
const BLOCK: usize = History::<SensorSample>::BLOCK;

/// `0..keys` in consecutive blocks of at most [`BLOCK`] keys.
fn blocks(keys: usize) -> impl Iterator<Item = Range<usize>> {
    (0..keys)
        .step_by(BLOCK)
        .map(move |start| start..keys.min(start + BLOCK))
}

fn encode_state<S: Sink>(e: &mut Enc<S>, s: &SimState) {
    e.u64(s.step_index);
    e.u64(s.now.as_secs());
    e.u8(weather_tag(s.weather_today));
    e.opt_u64(s.started_day);
    e.bool(s.in_window);
    e.usize(s.soc_floors.len());
    for &f in &s.soc_floors {
        e.f64(f);
    }
    e.usize(s.unserved_streak.len());
    for &v in &s.unserved_streak {
        e.u32(v);
    }
    e.usize(s.offline_since.len());
    for o in &s.offline_since {
        e.opt_u64(o.map(SimInstant::as_secs));
    }
    e.usize(s.downtime.len());
    for &t in &s.downtime {
        e.u64(t.as_secs());
    }
    e.f64(s.unserved_energy.as_f64());
    e.f64(s.curtailed_energy.as_f64());
    e.f64(s.grid_charge_energy.as_f64());
    e.usize(s.arrivals_today.len());
    for a in &s.arrivals_today {
        e.u32(a.at.as_secs());
        e.u8(kind_tag(a.kind));
    }
    e.usize(s.pending.len());
    for v in &s.pending {
        enc_vm(e, v);
    }
    e.rng(&s.clouds_rng);
    e.f64(s.clouds_ar);
    e.usize(s.last_currents.len());
    for &c in &s.last_currents {
        e.f64(c);
    }
    e.usize(s.last_voltages.len());
    for &v in &s.last_voltages {
        e.f64(v);
    }
    e.f64(s.last_solar.as_f64());
    e.usize(s.last_outcomes.len());
    for o in &s.last_outcomes {
        enc_outcome(e, o);
    }
    e.usize(s.mode_switches.len());
    for &m in &s.mode_switches {
        e.u64(m);
    }
    e.usize(s.stage_last.len());
    for st in &s.stage_last {
        match st {
            None => e.u8(255),
            Some(stage) => e.u8(stage_tag(*stage)),
        }
    }
    e.usize(s.degraded.len());
    for &f in &s.degraded {
        e.bool(f);
    }
    e.usize(s.fallback_rejected.len());
    for a in &s.fallback_rejected {
        enc_action(e, a);
    }
    e.u64(s.rr_cursor);
    e.rng(&s.generator_rng);
    e.u64(s.generator_next_id);
    e.usize(s.sensor_rngs.len());
    for r in &s.sensor_rngs {
        e.rng(r);
    }
    enc_injector(e, &s.injector);
    e.usize(s.events.len());
    for ev in &s.events {
        e.u64(ev.at.as_secs());
        enc_event(e, &ev.event);
    }
    e.u64(s.recorder_keep_every);
    e.u64(s.recorder_pushes);
    e.usize(s.recorder_rows.len());
    for r in &s.recorder_rows {
        enc_trace_row(e, r);
    }
    enc_cluster(e, &s.cluster);
    let nodes = s.battery_rows.keys();
    assert_eq!(nodes, s.server_rows.keys(), "power-table channels per node");
    e.usize(nodes);
    for block in blocks(nodes) {
        let mut battery = [None; BLOCK];
        let mut server = [None; BLOCK];
        for (i, node) in block.clone().enumerate() {
            battery[i] = e.run(&s.battery_rows, node, sample_words);
            server[i] = e.run(&s.server_rows, node, server_row_words);
        }
        e.fill(&s.battery_rows, block.clone(), &battery, sample_words);
        e.fill(&s.server_rows, block, &server, server_row_words);
    }
    assert_eq!(s.telemetry.keys(), s.batteries.len(), "telemetry per bank");
    e.usize(s.batteries.len());
    for block in blocks(s.batteries.len()) {
        let mut samples = [None; BLOCK];
        for (i, bank) in block.clone().enumerate() {
            samples[i] = enc_battery(e, &s.batteries[bank], &s.telemetry, bank);
        }
        e.fill(&s.telemetry, block, &samples, sample_words);
    }
    match &s.policy {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            e.str(&p.name);
            e.usize(p.data.len());
            for &w in &p.data {
                e.u64(w);
            }
        }
    }
}

fn decode_state(bytes: &[u8], chemistry: Chemistry) -> Result<SimState, SnapshotError> {
    let d = &mut Dec::new(bytes);
    let step_index = d.u64("step index")?;
    let now = SimInstant::from_secs(d.u64("now")?);
    let weather_today = weather_from(d.u8("weather")?)?;
    let started_day = d.opt_u64("started day")?;
    let in_window = d.bool("in window")?;
    let n = d.len(width::WORD, "soc floors len")?;
    let mut soc_floors = Vec::with_capacity(n);
    for _ in 0..n {
        soc_floors.push(d.f64("soc floor")?);
    }
    let n = d.len(width::U32, "unserved streak len")?;
    let mut unserved_streak = Vec::with_capacity(n);
    for _ in 0..n {
        unserved_streak.push(d.u32("unserved streak")?);
    }
    let n = d.len(width::TAG, "offline len")?;
    let mut offline_since = Vec::with_capacity(n);
    for _ in 0..n {
        offline_since.push(d.opt_u64("offline since")?.map(SimInstant::from_secs));
    }
    let n = d.len(width::WORD, "downtime len")?;
    let mut downtime = Vec::with_capacity(n);
    for _ in 0..n {
        downtime.push(SimDuration::from_secs(d.u64("downtime")?));
    }
    let unserved_energy = WattHours::new(d.f64("unserved energy")?);
    let curtailed_energy = WattHours::new(d.f64("curtailed energy")?);
    let grid_charge_energy = WattHours::new(d.f64("grid energy")?);
    let n = d.len(width::ARRIVAL, "arrivals len")?;
    let mut arrivals_today = Vec::with_capacity(n);
    for _ in 0..n {
        let at = d.u32("arrival at")?;
        if at >= 86_400 {
            return Err(SnapshotError::Corrupt {
                context: "arrival at",
            });
        }
        arrivals_today.push(Arrival {
            at: TimeOfDay::from_secs(at),
            kind: kind_from(d.u8("arrival kind")?)?,
        });
    }
    let n = d.len(width::VM, "pending len")?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(dec_vm(d)?);
    }
    let clouds_rng = d.rng("clouds rng")?;
    let clouds_ar = d.f64("clouds ar")?;
    let n = d.len(width::WORD, "currents len")?;
    let mut last_currents = Vec::with_capacity(n);
    for _ in 0..n {
        last_currents.push(d.f64("current")?);
    }
    let n = d.len(width::WORD, "voltages len")?;
    let mut last_voltages = Vec::with_capacity(n);
    for _ in 0..n {
        last_voltages.push(d.f64("voltage")?);
    }
    let last_solar = Watts::new(d.f64("last solar")?);
    let n = d.len(width::OUTCOME, "outcomes len")?;
    let mut last_outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        last_outcomes.push(dec_outcome(d)?);
    }
    let n = d.len(width::WORD, "mode switches len")?;
    let mut mode_switches = Vec::with_capacity(n);
    for _ in 0..n {
        mode_switches.push(d.u64("mode switch")?);
    }
    let n = d.len(width::TAG, "stage last len")?;
    let mut stage_last = Vec::with_capacity(n);
    for _ in 0..n {
        stage_last.push(match d.u8("stage tag")? {
            255 => None,
            tag => Some(stage_from(tag)?),
        });
    }
    let n = d.len(width::TAG, "degraded len")?;
    let mut degraded = Vec::with_capacity(n);
    for _ in 0..n {
        degraded.push(d.bool("degraded")?);
    }
    let n = d.len(width::ACTION, "fallback len")?;
    let mut fallback_rejected = Vec::with_capacity(n);
    for _ in 0..n {
        fallback_rejected.push(dec_action(d)?);
    }
    let rr_cursor = d.u64("rr cursor")?;
    let generator_rng = d.rng("generator rng")?;
    let generator_next_id = d.u64("generator next id")?;
    let n = d.len(width::RNG, "sensor rng len")?;
    let mut sensor_rngs = Vec::with_capacity(n);
    for _ in 0..n {
        sensor_rngs.push(d.rng("sensor rng")?);
    }
    let injector = dec_injector(d)?;
    let n = d.len(width::EVENT, "events len")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let at = SimInstant::from_secs(d.u64("event at")?);
        events.push(TimedEvent {
            at,
            event: dec_event(d)?,
        });
    }
    let recorder_keep_every = d.u64("recorder stride")?;
    let recorder_pushes = d.u64("recorder pushes")?;
    let n = d.len(width::TRACE_ROW, "recorder rows len")?;
    let mut recorder_rows = Vec::with_capacity(n);
    for _ in 0..n {
        recorder_rows.push(dec_trace_row(d)?);
    }
    let cluster = dec_cluster(d)?;
    let n = d.len(width::POWER_TABLE_NODE, "power table len")?;
    let mut battery_rows = Vec::with_capacity(n);
    let mut server_rows = Vec::with_capacity(n);
    // A run beyond the retention is refused: a restore adopts the rows
    // as they are, and a table never holds more.
    let max = PowerTable::MAX_ROWS;
    for _ in 0..n {
        battery_rows.push(d.rows(max, "power table battery len", sample_from)?);
        server_rows.push(d.rows(max, "power table server len", server_row_from)?);
    }
    let n = d.len(width::BATTERY, "batteries len")?;
    let mut batteries = Vec::with_capacity(n);
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let (battery, rows) = dec_battery(d, chemistry)?;
        batteries.push(battery);
        samples.push(rows);
    }
    // Every bank's run fits its own capacity, so the largest keeps all.
    let capacity = batteries.iter().map(|b| b.telemetry.max_samples).max();
    let policy = match d.u8("policy tag")? {
        0 => None,
        1 => {
            let len = d.len(width::TAG, "policy name len")?;
            let name = String::from_utf8(d.take(len, "policy name")?.to_vec()).map_err(|_| {
                SnapshotError::Corrupt {
                    context: "policy name",
                }
            })?;
            let n = d.len(width::WORD, "policy data len")?;
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(d.u64("policy word")?);
            }
            Some(PolicyState { name, data })
        }
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "policy tag",
            })
        }
    };
    if d.pos != bytes.len() {
        return Err(SnapshotError::Corrupt {
            context: "trailing bytes",
        });
    }
    Ok(SimState {
        step_index,
        now,
        weather_today,
        started_day,
        in_window,
        soc_floors,
        unserved_streak,
        offline_since,
        downtime,
        unserved_energy,
        curtailed_energy,
        grid_charge_energy,
        arrivals_today,
        pending,
        clouds_rng,
        clouds_ar,
        last_currents,
        last_voltages,
        last_solar,
        last_outcomes,
        mode_switches,
        stage_last,
        degraded,
        fallback_rejected,
        rr_cursor,
        generator_rng,
        generator_next_id,
        sensor_rngs,
        injector,
        events,
        recorder_keep_every,
        recorder_pushes,
        recorder_rows,
        cluster,
        battery_rows: History::from_rows(battery_rows, max),
        server_rows: History::from_rows(server_rows, max),
        batteries,
        telemetry: History::from_rows(samples, capacity.unwrap_or(0)),
        policy,
    })
}

impl SimSnapshot {
    /// Serializes the snapshot to the versioned byte format.
    ///
    /// A counting pass sizes the body first, so header, body and trailer
    /// are written once into a single exact-size buffer, zeroed by the
    /// allocator. The history runs are left as gaps and filled a block of
    /// keys at a time.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut count = Enc::<ByteCount>::default();
        encode_state(&mut count, &self.state);
        let body_len = count.out.0;
        let mut e = Enc {
            out: Buffer {
                bytes: vec![0; HEADER_LEN + body_len + TRAILER_LEN],
                len: 0,
            },
        };
        e.out.put(&SNAPSHOT_MAGIC);
        e.u32(self.version);
        e.u8(chemistry_tag(self.chemistry));
        e.u64(self.config_hash);
        e.usize(body_len);
        encode_state(&mut e, &self.state);
        let Buffer { mut bytes, len } = e.out;
        assert_eq!(len, HEADER_LEN + body_len, "sizing pass disagrees");
        let check = crc64(&bytes[HEADER_LEN..len]);
        bytes[len..].copy_from_slice(&check.to_le_bytes());
        bytes
    }

    /// Parses a snapshot from bytes, validating magic, version, body
    /// length and checksum. The checksum is verified before the body is
    /// decoded.
    ///
    /// # Errors
    ///
    /// Returns the matching [`SnapshotError`] on malformed input; never
    /// panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let d = &mut Dec::new(bytes);
        let magic = d.take(8, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u32("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let chemistry = chemistry_from(d.u8("chemistry")?)?;
        let config_hash = d.u64("config hash")?;
        let body_len = d.usize("body length")?;
        let body = d.take(body_len, "body")?;
        let check = d.u64("checksum")?;
        if crc64(body) != check {
            return Err(SnapshotError::Corrupt {
                context: "checksum",
            });
        }
        let state = decode_state(body, chemistry)?;
        Ok(Self {
            version,
            chemistry,
            config_hash,
            state,
        })
    }

    /// A position-independent hash of the dynamic state — two
    /// simulations at the same step of the same run have equal state
    /// hashes, whether paused there or restored from a checkpoint and
    /// re-stepped.
    ///
    /// FNV-1a over the body bytes [`to_bytes`](Self::to_bytes) writes,
    /// streamed from the encoder without materializing them.
    pub fn state_hash(&self) -> u64 {
        let mut e = Enc {
            out: Fnv1a(FNV_OFFSET),
        };
        encode_state(&mut e, &self.state);
        e.out.0
    }

    /// Writes the snapshot to a file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| SnapshotError::Io(format!("write {}: {e}", path.as_ref().display())))
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure and decoding
    /// errors on malformed contents.
    pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| SnapshotError::Io(format!("read {}: {e}", path.as_ref().display())))?;
        Self::from_bytes(&bytes)
    }

    /// Loads the carried policy state into `policy`, if the snapshot
    /// holds state recorded by a policy of the same name. Returns `true`
    /// when state was applied.
    pub fn apply_policy_state<P: Policy + ?Sized>(&self, policy: &mut P) -> bool {
        match &self.state.policy {
            Some(p) if p.name == policy.name() => {
                policy.load_state(&p.data);
                true
            }
            _ => false,
        }
    }

    /// Convenience view of the pending queue as a `VecDeque`, matching
    /// the engine's in-memory representation.
    pub fn pending_queue(&self) -> VecDeque<VmSnapshot> {
        self.state.pending.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(f: impl FnOnce(&mut Enc<Vec<u8>>)) -> Vec<u8> {
        let mut e = Enc::default();
        f(&mut e);
        e.out
    }

    fn encoded_len(f: impl FnOnce(&mut Enc<ByteCount>)) -> usize {
        let mut e = Enc::default();
        f(&mut e);
        e.out.0
    }

    #[test]
    fn crc64_matches_the_xz_check_value() {
        // The CRC-64/XZ catalogue check value: `printf 123456789 | xz
        // --check=crc64 | xz -lvv -` prints it in the CheckVal column.
        assert_eq!(crc64(b"123456789"), 0x995d_c9bb_df19_39fa);
        assert_eq!(crc64(b""), 0);
    }

    /// The bit-at-a-time CRC-64/XZ reference.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc ^= u64::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ CRC64_POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn crc_test_data(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn crc64_slicing_matches_bytewise() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 131 + 7) as u8).collect();
        // Every length covers each remainder around the 16-byte blocks.
        for n in 0..data.len() {
            assert_eq!(crc64(&data[..n]), crc64_bytewise(&data[..n]), "length {n}");
        }
    }

    /// The four-stream split agrees with the reference on long inputs
    /// (16 KiB ± 16 bytes), with every odd tail length after the lanes,
    /// and when a single byte changes on either side of each lane
    /// boundary.
    #[test]
    fn crc64_streams_match_bytewise() {
        const KIB16: usize = 16 * 1024;
        let data = crc_test_data(KIB16 + 200);
        let lengths =
            (KIB16 - 16..=KIB16 + 16).chain((1..64).step_by(2).map(|tail| KIB16 + 128 + tail));
        for n in lengths {
            assert_eq!(crc64(&data[..n]), crc64_bytewise(&data[..n]), "length {n}");
        }
        let n = KIB16 + 64 + 37;
        let lane = n / 64 * 16;
        for split in 1..=4 {
            for at in [split * lane - 1, split * lane] {
                let mut bytes = data[..n].to_vec();
                bytes[at] ^= 0x5a;
                let crc = crc64(&bytes);
                assert_eq!(crc, crc64_bytewise(&bytes), "byte {at}");
                assert_ne!(crc, crc64(&data[..n]), "byte {at}");
            }
        }
    }

    #[test]
    fn gf2_shift_is_feeding_zero_bytes() {
        for n in [0, 1, 7, 16, 4096] {
            let r = 0x0123_4567_89ab_cdef;
            assert_eq!(
                gf2_mul_mod(r, crc64_x_pow_8n(n)),
                crc64_raw(r, &vec![0; n]),
                "{n} zero bytes"
            );
        }
    }

    fn sample() -> SensorSample {
        SensorSample {
            at: SimInstant::from_secs(1),
            voltage: Volts::new(12.0),
            current: Amperes::new(1.0),
            temperature: Celsius::new(25.0),
            soc: Soc::saturating(0.5),
        }
    }

    fn vm() -> VmSnapshot {
        VmSnapshot {
            id: VmId(3),
            kind: WorkloadKind::ALL[0],
            state: VmState::Running,
            progress: 0.5,
            work_done: 1.0,
            migrations: 0,
        }
    }

    /// Every `width` constant is the encoder's exact minimum for its
    /// element: larger would reject valid files, smaller would let a
    /// corrupt length reserve more than the input can fill.
    #[test]
    fn min_widths_match_the_encoder() {
        assert_eq!(encoded_len(|e| enc_sample(e, &sample())), width::SAMPLE);
        assert_eq!(encoded_len(|e| enc_vm(e, &vm())), width::VM);
        assert_eq!(
            encoded_len(|e| enc_accumulator(e, &UsageAccumulator::default())),
            width::ACCUMULATOR
        );
        let actions = [
            Action::SetDvfs {
                node: 0,
                level: DvfsLevel::ALL[0],
            },
            Action::Migrate {
                vm: VmId(1),
                target: 2,
            },
            Action::SetSocFloor {
                node: 0,
                floor: Soc::saturating(0.4),
            },
        ];
        let shortest = actions
            .iter()
            .map(|a| encoded_len(|e| enc_action(e, a)))
            .min();
        assert_eq!(shortest, Some(width::ACTION));
        let outcome = ActionOutcome {
            action: actions[0],
            result: ActionResult::Applied,
        };
        assert_eq!(encoded_len(|e| enc_outcome(e, &outcome)), width::OUTCOME);
        let events = [
            Event::ServerShutdown { node: 1 },
            Event::DvfsChanged {
                node: 1,
                level: DvfsLevel::ALL[0],
            },
            Event::Action { outcome },
            Event::FaultInjected {
                fault: FaultKind::PvOutage,
            },
            Event::FaultCleared {
                fault: FaultKind::MigrationsBlocked,
            },
            Event::DegradedMode {
                node: 0,
                active: true,
            },
        ];
        let shortest = events
            .iter()
            .map(|ev| width::WORD + encoded_len(|e| enc_event(e, ev)))
            .min();
        assert_eq!(shortest, Some(width::EVENT));
        let row = TraceRow {
            at: SimInstant::from_secs(0),
            solar: Watts::new(0.0),
            soc: Vec::new(),
            server_power: Vec::new(),
            battery_current: Vec::new(),
            work_cumulative: 0.0,
        };
        assert_eq!(encoded_len(|e| enc_trace_row(e, &row)), width::TRACE_ROW);
        let host = HostState {
            dvfs: DvfsLevel::ALL[0],
            online: true,
            boot_remaining: SimDuration::from_secs(0),
            work_done: 0.0,
            completed_jobs: 0,
            vms: Vec::new(),
        };
        assert_eq!(encoded_len(|e| enc_host(e, &host)), width::HOST);
        let cluster = |in_flight| ClusterState {
            hosts: Vec::new(),
            in_flight,
            migrations_started: 0,
        };
        let one = vec![InFlightState {
            vm: vm(),
            to: ServerId(1),
            completes_at: SimInstant::from_secs(60),
        }];
        assert_eq!(
            encoded_len(|e| enc_cluster(e, &cluster(one)))
                - encoded_len(|e| enc_cluster(e, &cluster(Vec::new()))),
            width::IN_FLIGHT
        );
        let battery = BatteryUnitState {
            soc: Soc::saturating(1.0),
            hours_since_full: 0.0,
            cutoff_events: 0,
            temperature: Celsius::new(25.0),
            aging: AgingBreakdown::default(),
            telemetry: TelemetryState {
                max_samples: 0,
                latest: None,
                lifetime: UsageAccumulator::default(),
                window: UsageAccumulator::default(),
            },
        };
        let samples = History::from_rows(vec![Vec::new()], 0);
        let len = encoded_len(|e| {
            enc_battery(e, &battery, &samples, 0);
        });
        assert_eq!(len, width::BATTERY);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn bad_magic_is_typed() {
        assert_eq!(
            SimSnapshot::from_bytes(b"NOTASNAP-----------------"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(
            SimSnapshot::from_bytes(b""),
            Err(SnapshotError::Truncated { context: "magic" })
        );
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                expected: SNAPSHOT_VERSION
            })
        );
    }

    #[test]
    fn decoder_rejects_absurd_length_prefixes() {
        let bytes = encoded(|e| e.u64(u64::MAX));
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            d.len(1, "test"),
            Err(SnapshotError::Corrupt { .. })
        ));
        // 80 bytes follow the prefix: room for ten words, not eleven,
        // even though eleven is far below the byte count.
        for (n, fits) in [(10, true), (11, false), (80, false)] {
            let bytes = encoded(|e| {
                e.usize(n);
                for _ in 0..10 {
                    e.u64(0);
                }
            });
            let got = Dec::new(&bytes).len(width::WORD, "test");
            assert_eq!(got.is_ok(), fits, "{n} words");
        }
    }

    #[test]
    fn enum_tags_round_trip() {
        for w in Weather::ALL {
            assert_eq!(weather_from(weather_tag(w)).unwrap(), w);
        }
        for c in Chemistry::ALL {
            assert_eq!(chemistry_from(chemistry_tag(c)).unwrap(), c);
        }
        for k in WorkloadKind::ALL {
            assert_eq!(kind_from(kind_tag(k)).unwrap(), k);
        }
        for l in DvfsLevel::ALL {
            assert_eq!(dvfs_from(dvfs_tag(l)).unwrap(), l);
        }
        assert!(weather_from(200).is_err());
        assert!(vm_state_from(9).is_err());
        assert!(stage_from(9).is_err());
        assert!(reject_from(9).is_err());
    }

    #[test]
    fn fault_kinds_round_trip() {
        let kinds = [
            FaultKind::SensorDropout { bank: 1 },
            FaultKind::SensorStuckAt { bank: 2 },
            FaultKind::SensorNoise {
                bank: 0,
                sigma: 0.4,
            },
            FaultKind::SensorDrift {
                bank: 3,
                volts_per_hour: -0.01,
            },
            FaultKind::PvOutage,
            FaultKind::InverterDerate { fraction: 0.5 },
            FaultKind::ChargerFailure { bank: 1 },
            FaultKind::ChargerModeStuck { bank: 0 },
            FaultKind::BatteryOpenCircuit { bank: 2 },
            FaultKind::ThermalSensorLoss { bank: 1 },
            FaultKind::HostFailure { node: 4 },
            FaultKind::MigrationsBlocked,
        ];
        for kind in kinds {
            let bytes = encoded(|e| enc_fault(e, &kind));
            let mut d = Dec::new(&bytes);
            assert_eq!(dec_fault(&mut d).unwrap(), kind);
        }
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let bytes = encoded(|e| e.f64(v));
            let mut d = Dec::new(&bytes);
            assert_eq!(d.f64("v").unwrap().to_bits(), v.to_bits());
        }
    }
}
