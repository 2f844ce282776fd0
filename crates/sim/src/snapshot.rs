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
//! Each state type states its bytes once, as a `Layout` body that the
//! encoder and the decoder both walk, so no field is written on one side
//! and forgotten on the other. The encoder feeds every consumer through a
//! byte [`Sink`]: a counting pass sizes the output, a second pass writes
//! header, body and trailer into one exact-size buffer, and
//! [`SimSnapshot::state_hash`] streams FNV-1a over the same bytes
//! without materializing them.
//!
//! The three histories (power-table battery and server rows per node,
//! telemetry samples per bank) travel in [`SimState`] as [`History`]s
//! that share the engine's journal segments, so capturing a state copies
//! no retained row. Their sections are the codec's own: the encoder fills
//! a block of keys' runs of fixed-width rows at a time into `to_bytes`'
//! zeroed buffer, and the decoder takes each run with one bounds check
//! into one base block per history, which a restore adopts as it is.
//!
//! [`Simulation`]: crate::Simulation

use std::collections::VecDeque;
use std::ops::Range;

use baat_battery::{
    AgingBreakdown, BatteryUnitState, Chemistry, SensorSample, TelemetryState, UsageAccumulator,
    MAX_AGING_MECHANISMS,
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
use crate::events::{Event, TimedEvent};
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
// Byte sinks.

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

// ---------------------------------------------------------------------
// The codec: one walk of the format, in either direction.

/// What a layout body hands its codec for one value: `Some` value to
/// write when encoding, `None` when decoding, which reads it instead.
type Src<'a, T> = Option<&'a T>;

type DecResult<T> = Result<T, SnapshotError>;

fn corrupt(context: &'static str) -> SnapshotError {
    SnapshotError::Corrupt { context }
}

/// The sections that hold the histories, as a decoder returns them:
/// power-table battery and server rows, battery records, telemetry.
type Histories = (
    History<SensorSample>,
    History<ServerPowerRecord>,
    Vec<BatteryUnitState>,
    History<SensorSample>,
);

/// Why an encoder was handed no value: only a decoder is.
const WRITES: &str = "an encoder is handed every value it writes";

/// One walk of the byte format, in either direction. Every state type
/// states its bytes once, as a [`Layout`] body over a `Codec`: the
/// encoder, [`Enc`] over any [`Sink`], writes the values the body hands
/// it, and the decoder, [`Dec`], ignores them and reads. The sizing
/// pass, the writer, the hasher and the reader thus walk one body.
///
/// Each method returns the value it walked, except that an encoder
/// returns empty sequences rather than build a copy of what it wrote.
/// An encoder fails only on a state no decoder could read back: a
/// battery breakdown that does not fit the snapshot's chemistry.
trait Codec: Sized {
    /// The chemistry whose aging labels a breakdown carries.
    fn chemistry(&self) -> Chemistry;

    /// `N` bytes.
    fn le<const N: usize>(&mut self, v: Option<[u8; N]>, cx: &'static str) -> DecResult<[u8; N]>;

    /// The length prefix of a sequence of elements of at least `width`
    /// bytes. A decoder bounds it by how many the rest of the input can
    /// hold, so a `Vec::with_capacity(n)` never reserves more elements
    /// than the input could fill.
    fn len(&mut self, v: Option<usize>, width: usize, cx: &'static str) -> DecResult<usize>;

    /// A length-prefixed sequence, each element walked by `each`.
    fn seq<T, V: AsRef<[T]> + ?Sized>(
        &mut self,
        v: Src<V>,
        width: usize,
        cx: &'static str,
        each: impl FnMut(&mut Self, Src<T>) -> DecResult<T>,
    ) -> DecResult<Vec<T>>;

    /// An enum's one-byte tag, the index of its variant in `all`.
    /// Returns `v` to an encoder and the tag's entry to a decoder, which
    /// for an enum with fields is a blank: either way, the body walks the
    /// fields of what it gets.
    fn variant<'a, T>(&mut self, v: Src<'a, T>, all: &'a [T], cx: &'static str)
        -> DecResult<&'a T>;

    /// The history sections of `s`: the power table's battery and
    /// server rows per node, then each bank's [`battery`] record around
    /// its telemetry run.
    fn histories(&mut self, s: Src<SimState>) -> DecResult<Option<Histories>>;

    fn value<T: Value>(&mut self, v: Option<T>, cx: &'static str) -> DecResult<T> {
        T::value(self, v, cx)
    }

    /// A length-prefixed sequence of values.
    fn values<T: Value, V: AsRef<[T]> + ?Sized>(
        &mut self,
        v: Src<V>,
        len_cx: &'static str,
        cx: &'static str,
    ) -> DecResult<Vec<T>> {
        self.seq(v, T::WIDTH, len_cx, |c, x| c.value(x.copied(), cx))
    }

    /// Whether an option holds a value, as a `bool`, then the value,
    /// walked by `some`.
    fn option<T>(
        &mut self,
        v: Option<Option<&T>>,
        cx: &'static str,
        some: impl FnOnce(&mut Self, Src<T>) -> DecResult<T>,
    ) -> DecResult<Option<T>> {
        match self.value(v.map(|v| v.is_some()), cx)? {
            true => Ok(Some(some(self, v.flatten())?)),
            false => Ok(None),
        }
    }

    /// A length-prefixed sequence of a layout type.
    fn list<T: Layout, V: AsRef<[T]> + ?Sized>(
        &mut self,
        v: Src<V>,
        cx: &'static str,
    ) -> DecResult<Vec<T>> {
        self.seq(v, T::WIDTH, cx, T::layout)
    }

    /// A value of a layout type.
    fn walk<T: Layout>(&mut self, v: Src<T>) -> DecResult<T> {
        T::layout(self, v)
    }
}

/// A fixed-width value, carried as it stands: a `u8`, `u32` or `bool`,
/// a [`Word`], an option of one (a `bool` for whether it holds a value,
/// then the value) or an array of words.
trait Value: Copy {
    /// The value's width in bytes; an option's is that of `None`.
    const WIDTH: usize;
    fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self>;
}

macro_rules! int_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            const WIDTH: usize = size_of::<$t>();
            fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self> {
                Ok(<$t>::from_le_bytes(c.le(v.map(<$t>::to_le_bytes), cx)?))
            }
        }
    )*};
}

int_values!(u8, u32);

impl Value for bool {
    const WIDTH: usize = width::TAG;
    fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self> {
        match c.value(v.map(u8::from), cx)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt(cx)),
        }
    }
}

impl<T: Value> Value for Option<T> {
    const WIDTH: usize = width::TAG;
    fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self> {
        c.option(v.as_ref().map(Option::as_ref), cx, |c, x| {
            c.value(x.copied(), cx)
        })
    }
}

impl<W: Word + Default, const N: usize> Value for [W; N] {
    const WIDTH: usize = N * width::WORD;
    fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self> {
        let mut out = [W::default(); N];
        for (i, w) in out.iter_mut().enumerate() {
            *w = c.value(v.map(|v| v[i]), cx)?;
        }
        Ok(out)
    }
}

/// A value the format carries as one little-endian `u64`: an integer, or
/// the IEEE-754 bits of a float, so that a round trip is bit-exact, NaN
/// payloads included. `from_word` is `None` for a word out of range.
trait Word: Copy {
    fn to_word(self) -> u64;
    fn from_word(w: u64) -> Option<Self>;
}

impl<W: Word> Value for W {
    const WIDTH: usize = width::WORD;
    fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self> {
        let bytes = c.le(v.map(|v| v.to_word().to_le_bytes()), cx)?;
        W::from_word(u64::from_le_bytes(bytes)).ok_or(corrupt(cx))
    }
}

macro_rules! word {
    ($($t:ty: $to:expr, $from:expr;)*) => {$(
        impl Word for $t {
            fn to_word(self) -> u64 {
                $to(self)
            }
            fn from_word(w: u64) -> Option<Self> {
                $from(w)
            }
        }
    )*};
}

word! {
    u64: |v| v, Some;
    usize: |v| v as u64, |w| usize::try_from(w).ok();
    f64: f64::to_bits, |w| Some(f64::from_bits(w));
    SimInstant: SimInstant::as_secs, |w| Some(SimInstant::from_secs(w));
    SimDuration: SimDuration::as_secs, |w| Some(SimDuration::from_secs(w));
    // A decoded state of charge saturates into [0, 1].
    Soc: |v: Soc| v.value().to_bits(), |w| Some(Soc::saturating(f64::from_bits(w)));
    AmpHours: |v: AmpHours| v.as_f64().to_bits(), |w| Some(AmpHours::new(f64::from_bits(w)));
    Amperes: |v: Amperes| v.as_f64().to_bits(), |w| Some(Amperes::new(f64::from_bits(w)));
    Celsius: |v: Celsius| v.as_f64().to_bits(), |w| Some(Celsius::new(f64::from_bits(w)));
    WattHours: |v: WattHours| v.as_f64().to_bits(), |w| Some(WattHours::new(f64::from_bits(w)));
    Watts: |v: Watts| v.as_f64().to_bits(), |w| Some(Watts::new(f64::from_bits(w)));
}

struct Enc<S> {
    out: S,
    chemistry: Chemistry,
}

impl<S: Sink> Enc<S> {
    fn usize(&mut self, v: usize) {
        self.out.put(&(v as u64).to_le_bytes());
    }

    /// One fixed-width row of little-endian words, in a single `put`.
    fn row<const N: usize>(&mut self, words: [u64; N]) {
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
            history.for_each_row(key..key + 1, |_, row| self.row(words(row)));
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

impl<S: Sink> Codec for Enc<S> {
    fn chemistry(&self) -> Chemistry {
        self.chemistry
    }

    fn le<const N: usize>(&mut self, v: Option<[u8; N]>, _: &'static str) -> DecResult<[u8; N]> {
        let v = v.expect(WRITES);
        self.out.put(&v);
        Ok(v)
    }

    fn len(&mut self, v: Option<usize>, _: usize, _: &'static str) -> DecResult<usize> {
        let v = v.expect(WRITES);
        self.usize(v);
        Ok(v)
    }

    fn seq<T, V: AsRef<[T]> + ?Sized>(
        &mut self,
        v: Src<V>,
        _: usize,
        _: &'static str,
        mut each: impl FnMut(&mut Self, Src<T>) -> DecResult<T>,
    ) -> DecResult<Vec<T>> {
        let v = v.expect(WRITES).as_ref();
        self.usize(v.len());
        for x in v {
            each(self, Some(x))?;
        }
        Ok(Vec::new())
    }

    fn variant<'a, T>(&mut self, v: Src<'a, T>, all: &'a [T], _: &'static str) -> DecResult<&'a T> {
        let v = v.expect(WRITES);
        self.out.put(&[tag(v, all)]);
        Ok(v)
    }

    fn histories(&mut self, s: Src<SimState>) -> DecResult<Option<Histories>> {
        let s = s.expect(WRITES);
        let nodes = s.battery_rows.keys();
        assert_eq!(nodes, s.server_rows.keys(), "power-table channels per node");
        self.usize(nodes);
        for block in blocks(nodes) {
            let mut battery = [None; BLOCK];
            let mut server = [None; BLOCK];
            for (i, node) in block.clone().enumerate() {
                battery[i] = self.run(&s.battery_rows, node, sample_words);
                server[i] = self.run(&s.server_rows, node, server_row_words);
            }
            self.fill(&s.battery_rows, block.clone(), &battery, sample_words);
            self.fill(&s.server_rows, block, &server, server_row_words);
        }
        assert_eq!(s.telemetry.keys(), s.batteries.len(), "telemetry per bank");
        self.usize(s.batteries.len());
        for block in blocks(s.batteries.len()) {
            let mut samples = [None; BLOCK];
            for (i, bank) in block.clone().enumerate() {
                battery(self, Some(&s.batteries[bank]), |e, _| {
                    samples[i] = e.run(&s.telemetry, bank, sample_words);
                    Ok(None)
                })?;
            }
            self.fill(&s.telemetry, block, &samples, sample_words);
        }
        Ok(None)
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
    chemistry: Chemistry,
}

impl<'a> Dec<'a> {
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
        let n = self.len(None, width, context)?;
        if n > max {
            return Err(corrupt(context));
        }
        let run = self.take(n * width, context)?;
        Ok(run.chunks_exact(width).map(|r| row(words(r))).collect())
    }
}

impl Codec for Dec<'_> {
    fn chemistry(&self) -> Chemistry {
        self.chemistry
    }

    fn le<const N: usize>(&mut self, _: Option<[u8; N]>, cx: &'static str) -> DecResult<[u8; N]> {
        Ok(self.take(N, cx)?.try_into().expect("N bytes"))
    }

    fn len(&mut self, _: Option<usize>, width: usize, cx: &'static str) -> DecResult<usize> {
        let n: usize = self.value(None, cx)?;
        if n > (self.buf.len() - self.pos) / width {
            return Err(corrupt(cx));
        }
        Ok(n)
    }

    fn seq<T, V: AsRef<[T]> + ?Sized>(
        &mut self,
        _: Src<V>,
        width: usize,
        cx: &'static str,
        mut each: impl FnMut(&mut Self, Src<T>) -> DecResult<T>,
    ) -> DecResult<Vec<T>> {
        let n = self.len(None, width, cx)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(each(self, None)?);
        }
        Ok(out)
    }

    fn variant<'a, T>(
        &mut self,
        _: Src<'a, T>,
        all: &'a [T],
        cx: &'static str,
    ) -> DecResult<&'a T> {
        let tag = self.value::<u8>(None, cx)?;
        all.get(usize::from(tag)).ok_or(corrupt(cx))
    }

    fn histories(&mut self, _: Src<SimState>) -> DecResult<Option<Histories>> {
        let n = self.len(None, width::POWER_TABLE_NODE, "power table len")?;
        let mut battery_rows = Vec::with_capacity(n);
        let mut server_rows = Vec::with_capacity(n);
        // A run beyond the retention is refused: a restore adopts the rows
        // as they are, and a table never holds more.
        let max = PowerTable::MAX_ROWS;
        for _ in 0..n {
            battery_rows.push(self.rows(max, "power table battery len", sample_from)?);
            server_rows.push(self.rows(max, "power table server len", server_row_from)?);
        }
        let n = self.len(None, width::BATTERY, "batteries len")?;
        let mut batteries = Vec::with_capacity(n);
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            batteries.push(battery(self, None, |d, max_samples| {
                // A history never holds more than its capacity; restoring
                // one that did would never shrink back under it.
                let rows = d.rows(max_samples, "telemetry samples len", sample_from)?;
                let latest = rows.last().copied();
                samples.push(rows);
                Ok(latest)
            })?);
        }
        // Every bank's run fits its own capacity, so the largest keeps all.
        let capacity = batteries.iter().map(|b| b.telemetry.max_samples).max();
        Ok(Some((
            History::from_rows(battery_rows, max),
            History::from_rows(server_rows, max),
            batteries,
            History::from_rows(samples, capacity.unwrap_or(0)),
        )))
    }
}

/// Smallest encoded widths, in bytes, of the values and history
/// sections that [`Value::WIDTH`], [`Layout::WIDTH`] and the history
/// sections bound length prefixes by. Each is an exact minimum, pinned
/// against the encoder by `min_widths_match_the_encoder`.
mod width {
    /// A `u64` or `f64`.
    pub const WORD: usize = 8;
    /// A one-byte value: `bool`, enum tag, option tag or string byte.
    pub const TAG: usize = 1;
    /// One node's power table: two length prefixes.
    pub const POWER_TABLE_NODE: usize = 2 * WORD;
    /// A battery with no aging mechanisms and no samples: four scalars,
    /// breakdown length, capacity, sample count, two accumulators.
    pub const BATTERY: usize = 7 * WORD + 2 * 21 * WORD;
}

// ---------------------------------------------------------------------
// Tag tables: an enum value's tag is the index of its variant in its
// table, read both ways by `Codec::variant`; the fieldless enums' `ALL`
// arrays serve as theirs. Tags are part of the format: append-only,
// never reorder without bumping SNAPSHOT_VERSION.

/// The tag of `v`: the index of its variant in `all`.
fn tag<T>(v: &T, all: &[T]) -> u8 {
    let variant = std::mem::discriminant(v);
    let tag = all
        .iter()
        .position(|x| std::mem::discriminant(x) == variant);
    tag.expect("every variant has a tag") as u8
}

const VM_STATES: [VmState; 4] = [
    VmState::Running,
    VmState::Paused,
    VmState::Migrating,
    VmState::Completed,
];

const STAGES: [ChargeStage; 3] = [
    ChargeStage::Bulk,
    ChargeStage::Absorption,
    ChargeStage::Float,
];

const REJECTS: [RejectReason; 6] = [
    RejectReason::UnknownNode,
    RejectReason::UnknownVm,
    RejectReason::AlreadyMigrating,
    RejectReason::TargetIsSource,
    RejectReason::TargetFull,
    RejectReason::FaultInjected,
];

/// One blank of each [`Action`] variant, in tag order; a decoder walks
/// the fields of the tag's blank. So do the tables below.
const ACTIONS: [Action; 3] = [
    Action::SetDvfs {
        node: 0,
        level: DvfsLevel::ALL[0],
    },
    Action::Migrate {
        vm: VmId(0),
        target: 0,
    },
    Action::SetSocFloor {
        node: 0,
        floor: Soc::EMPTY,
    },
];

const RESULTS: [ActionResult; 2] = [ActionResult::Applied, ActionResult::Rejected(REJECTS[0])];

const FAULTS: [FaultKind; 12] = [
    FaultKind::SensorDropout { bank: 0 },
    FaultKind::SensorStuckAt { bank: 0 },
    FaultKind::SensorNoise {
        bank: 0,
        sigma: 0.0,
    },
    FaultKind::SensorDrift {
        bank: 0,
        volts_per_hour: 0.0,
    },
    FaultKind::PvOutage,
    FaultKind::InverterDerate { fraction: 0.0 },
    FaultKind::ChargerFailure { bank: 0 },
    FaultKind::ChargerModeStuck { bank: 0 },
    FaultKind::BatteryOpenCircuit { bank: 0 },
    FaultKind::ThermalSensorLoss { bank: 0 },
    FaultKind::HostFailure { node: 0 },
    FaultKind::MigrationsBlocked,
];

const EVENTS: [Event; 11] = [
    Event::ServerShutdown { node: 0 },
    Event::ServerRestart { node: 0 },
    Event::DvfsChanged {
        node: 0,
        level: DvfsLevel::ALL[0],
    },
    Event::MigrationStarted {
        vm: VmId(0),
        from: 0,
        to: 0,
    },
    Event::Action {
        outcome: ActionOutcome {
            action: ACTIONS[0],
            result: RESULTS[0],
        },
    },
    Event::BatteryCutoff { node: 0 },
    Event::SocFloorChanged {
        node: 0,
        floor: Soc::EMPTY,
    },
    Event::PlacementFailed { node: 0 },
    Event::FaultInjected { fault: FAULTS[4] },
    Event::FaultCleared { fault: FAULTS[4] },
    Event::DegradedMode {
        node: 0,
        active: false,
    },
];

// ---------------------------------------------------------------------
// Layouts: each state type's bytes, in format order. A struct
// expression evaluates its fields in the order they are written, so
// each body lists its fields in byte order.

/// A state type's bytes, stated once for every codec: `layout` writes
/// `v` through an encoder, or reads a value through a decoder.
trait Layout: Sized {
    /// The fewest bytes a value takes: the divisor [`Codec::len`] bounds
    /// a list's length by. An exact minimum, pinned against the body by
    /// `min_widths_match_the_encoder`.
    const WIDTH: usize;
    fn layout<C: Codec>(c: &mut C, v: Src<Self>) -> DecResult<Self>;
}

impl Layout for Action {
    /// An action; `SetDvfs` is the shortest (tag, node, level).
    const WIDTH: usize = 2 * width::TAG + width::WORD;
    fn layout<C: Codec>(c: &mut C, a: Src<Self>) -> DecResult<Self> {
        Ok(match *c.variant(a, &ACTIONS, "action tag")? {
            Action::SetDvfs { node, level } => Action::SetDvfs {
                node: c.value(Some(node), "action node")?,
                level: *c.variant(Some(&level), &DvfsLevel::ALL, "action level")?,
            },
            Action::Migrate { vm, target } => Action::Migrate {
                vm: VmId(c.value(Some(vm.0), "action vm")?),
                target: c.value(Some(target), "action target")?,
            },
            Action::SetSocFloor { node, floor } => Action::SetSocFloor {
                node: c.value(Some(node), "action node")?,
                floor: c.value(Some(floor), "action floor")?,
            },
        })
    }
}

impl Layout for ActionOutcome {
    /// An action plus a result tag.
    const WIDTH: usize = Action::WIDTH + width::TAG;
    fn layout<C: Codec>(c: &mut C, o: Src<Self>) -> DecResult<Self> {
        Ok(ActionOutcome {
            action: c.walk(o.map(|o| &o.action))?,
            result: match *c.variant(o.map(|o| &o.result), &RESULTS, "outcome tag")? {
                ActionResult::Applied => ActionResult::Applied,
                ActionResult::Rejected(r) => {
                    ActionResult::Rejected(*c.variant(Some(&r), &REJECTS, "outcome reason")?)
                }
            },
        })
    }
}

impl Layout for FaultKind {
    /// A fault without a payload: its tag.
    const WIDTH: usize = width::TAG;
    fn layout<C: Codec>(c: &mut C, f: Src<Self>) -> DecResult<Self> {
        use FaultKind as F;
        let bank = |c: &mut C, bank| c.value(Some(bank), "fault bank");
        Ok(match *c.variant(f, &FAULTS, "fault tag")? {
            F::SensorDropout { bank: b } => F::SensorDropout { bank: bank(c, b)? },
            F::SensorStuckAt { bank: b } => F::SensorStuckAt { bank: bank(c, b)? },
            F::SensorNoise { bank: b, sigma } => F::SensorNoise {
                bank: bank(c, b)?,
                sigma: c.value(Some(sigma), "fault sigma")?,
            },
            F::SensorDrift {
                bank: b,
                volts_per_hour,
            } => F::SensorDrift {
                bank: bank(c, b)?,
                volts_per_hour: c.value(Some(volts_per_hour), "fault drift rate")?,
            },
            F::PvOutage => F::PvOutage,
            F::InverterDerate { fraction } => F::InverterDerate {
                fraction: c.value(Some(fraction), "fault fraction")?,
            },
            F::ChargerFailure { bank: b } => F::ChargerFailure { bank: bank(c, b)? },
            F::ChargerModeStuck { bank: b } => F::ChargerModeStuck { bank: bank(c, b)? },
            F::BatteryOpenCircuit { bank: b } => F::BatteryOpenCircuit { bank: bank(c, b)? },
            F::ThermalSensorLoss { bank: b } => F::ThermalSensorLoss { bank: bank(c, b)? },
            F::HostFailure { node } => F::HostFailure {
                node: c.value(Some(node), "fault node")?,
            },
            F::MigrationsBlocked => F::MigrationsBlocked,
        })
    }
}

impl Layout for TimedEvent {
    /// A timestamp, an event tag and a fault without a payload.
    const WIDTH: usize = width::WORD + 2 * width::TAG;
    fn layout<C: Codec>(c: &mut C, e: Src<Self>) -> DecResult<Self> {
        use Event as E;
        let at = c.value(e.map(|e| e.at), "event at")?;
        let node = |c: &mut C, node| c.value(Some(node), "event node");
        let event = match *c.variant(e.map(|e| &e.event), &EVENTS, "event tag")? {
            E::ServerShutdown { node: n } => E::ServerShutdown { node: node(c, n)? },
            E::ServerRestart { node: n } => E::ServerRestart { node: node(c, n)? },
            E::DvfsChanged { node: n, level } => E::DvfsChanged {
                node: node(c, n)?,
                level: *c.variant(Some(&level), &DvfsLevel::ALL, "event level")?,
            },
            E::MigrationStarted { vm, from, to } => E::MigrationStarted {
                vm: VmId(c.value(Some(vm.0), "event vm")?),
                from: c.value(Some(from), "event from")?,
                to: c.value(Some(to), "event to")?,
            },
            E::Action { outcome } => E::Action {
                outcome: c.walk(Some(&outcome))?,
            },
            E::BatteryCutoff { node: n } => E::BatteryCutoff { node: node(c, n)? },
            E::SocFloorChanged { node: n, floor } => E::SocFloorChanged {
                node: node(c, n)?,
                floor: c.value(Some(floor), "event floor")?,
            },
            E::PlacementFailed { node: n } => E::PlacementFailed { node: node(c, n)? },
            E::FaultInjected { fault } => E::FaultInjected {
                fault: c.walk(Some(&fault))?,
            },
            E::FaultCleared { fault } => E::FaultCleared {
                fault: c.walk(Some(&fault))?,
            },
            E::DegradedMode { node: n, active } => E::DegradedMode {
                node: node(c, n)?,
                active: c.value(Some(active), "event active")?,
            },
        };
        Ok(TimedEvent { at, event })
    }
}

impl Layout for VmSnapshot {
    /// Id, kind, state, progress, work, migrations.
    const WIDTH: usize = 3 * width::WORD + 2 * width::TAG + u32::WIDTH;
    fn layout<C: Codec>(c: &mut C, v: Src<Self>) -> DecResult<Self> {
        Ok(VmSnapshot {
            id: VmId(c.value(v.map(|v| v.id.0), "vm id")?),
            kind: *c.variant(v.map(|v| &v.kind), &WorkloadKind::ALL, "vm kind")?,
            state: *c.variant(v.map(|v| &v.state), &VM_STATES, "vm state")?,
            progress: c.value(v.map(|v| v.progress), "vm progress")?,
            work_done: c.value(v.map(|v| v.work_done), "vm work")?,
            migrations: c.value(v.map(|v| v.migrations), "vm migrations")?,
        })
    }
}

impl Layout for Arrival {
    /// A time of day plus a kind tag.
    const WIDTH: usize = u32::WIDTH + width::TAG;
    fn layout<C: Codec>(c: &mut C, a: Src<Self>) -> DecResult<Self> {
        let at = c.value(a.map(|a| a.at.as_secs()), "arrival at")?;
        let at = (at < 86_400).then(|| TimeOfDay::from_secs(at));
        Ok(Arrival {
            at: at.ok_or(corrupt("arrival at"))?,
            kind: *c.variant(a.map(|a| &a.kind), &WorkloadKind::ALL, "arrival kind")?,
        })
    }
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

impl Value for SensorSample {
    const WIDTH: usize = 5 * width::WORD;
    fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self> {
        Ok(sample_from(c.value(v.as_ref().map(sample_words), cx)?))
    }
}

impl Layout for UsageAccumulator {
    /// 21 words.
    const WIDTH: usize = 21 * width::WORD;
    fn layout<C: Codec>(c: &mut C, u: Src<Self>) -> DecResult<Self> {
        Ok(UsageAccumulator {
            ah_discharged: c.value(u.map(|u| u.ah_discharged), "usage ah_discharged")?,
            ah_charged: c.value(u.map(|u| u.ah_charged), "usage ah_charged")?,
            ah_discharged_by_range: c.value(u.map(|u| u.ah_discharged_by_range), "usage range")?,
            observed: c.value(u.map(|u| u.observed), "usage observed")?,
            deep_discharge_time: c.value(u.map(|u| u.deep_discharge_time), "usage deep time")?,
            soc_time_histogram: c.value(u.map(|u| u.soc_time_histogram), "usage histogram")?,
            peak_discharge: c.value(u.map(|u| u.peak_discharge), "usage peak")?,
            discharge_amp_seconds: c
                .value(u.map(|u| u.discharge_amp_seconds), "usage amp seconds")?,
            discharge_time: c.value(u.map(|u| u.discharge_time), "usage discharge time")?,
            energy_out: c.value(u.map(|u| u.energy_out), "usage energy out")?,
            energy_in: c.value(u.map(|u| u.energy_in), "usage energy in")?,
            full_charge_events: c.value(u.map(|u| u.full_charge_events), "usage full charges")?,
        })
    }
}

/// Aging labels are `&'static str`s owned by the chemistry, so the
/// format stores values only, in chemistry breakdown order, and decoding
/// re-attaches the labels from the header's chemistry tag.
impl Layout for AgingBreakdown {
    /// No mechanisms: the length.
    const WIDTH: usize = width::WORD;
    fn layout<C: Codec>(c: &mut C, b: Src<Self>) -> DecResult<Self> {
        let n = c.len(b.map(AgingBreakdown::len), width::WORD, "breakdown len")?;
        let labels = c.chemistry().aging_labels();
        if n != 0 && n != labels.len() {
            return Err(corrupt("breakdown mechanism count"));
        }
        let mut pairs = [("", 0.0); MAX_AGING_MECHANISMS];
        for (i, (pair, &label)) in pairs.iter_mut().zip(&labels[..n]).enumerate() {
            *pair = (label, c.value(b.map(|b| b.values()[i]), "breakdown value")?);
        }
        Ok(AgingBreakdown::from_pairs(&pairs[..n]))
    }
}

/// A bank's battery record. Its telemetry run, a history section that
/// `run` walks and whose newest sample it returns, sits between the
/// capacity and the accumulators.
fn battery<C: Codec>(
    c: &mut C,
    b: Src<BatteryUnitState>,
    run: impl FnOnce(&mut C, usize) -> DecResult<Option<SensorSample>>,
) -> DecResult<BatteryUnitState> {
    let t = b.map(|b| &b.telemetry);
    Ok(BatteryUnitState {
        soc: c.value(b.map(|b| b.soc), "battery soc")?,
        hours_since_full: c.value(b.map(|b| b.hours_since_full), "battery hours since full")?,
        cutoff_events: c.value(b.map(|b| b.cutoff_events), "battery cutoffs")?,
        temperature: c.value(b.map(|b| b.temperature), "battery temperature")?,
        aging: c.walk(b.map(|b| &b.aging))?,
        telemetry: {
            let max_samples = c.value(t.map(|t| t.max_samples), "telemetry capacity")?;
            TelemetryState {
                max_samples,
                latest: run(c, max_samples)?,
                lifetime: c.walk(t.map(|t| &t.lifetime))?,
                window: c.walk(t.map(|t| &t.window))?,
            }
        },
    })
}

impl Layout for HostState {
    /// No VMs: dvfs, online, boot, work, jobs, VM count.
    const WIDTH: usize = 2 * width::TAG + 4 * width::WORD;
    fn layout<C: Codec>(c: &mut C, h: Src<Self>) -> DecResult<Self> {
        Ok(HostState {
            dvfs: *c.variant(h.map(|h| &h.dvfs), &DvfsLevel::ALL, "host dvfs")?,
            online: c.value(h.map(|h| h.online), "host online")?,
            boot_remaining: c.value(h.map(|h| h.boot_remaining), "host boot")?,
            work_done: c.value(h.map(|h| h.work_done), "host work")?,
            completed_jobs: c.value(h.map(|h| h.completed_jobs), "host jobs")?,
            vms: c.list(h.map(|h| &h.vms), "host vm count")?,
        })
    }
}

impl Layout for InFlightState {
    /// A VM, a target and a completion time.
    const WIDTH: usize = VmSnapshot::WIDTH + 2 * width::WORD;
    fn layout<C: Codec>(c: &mut C, m: Src<Self>) -> DecResult<Self> {
        Ok(InFlightState {
            vm: c.walk(m.map(|m| &m.vm))?,
            to: ServerId(c.value(m.map(|m| m.to.0), "migration target")?),
            completes_at: c.value(m.map(|m| m.completes_at), "migration completes")?,
        })
    }
}

impl Layout for ClusterState {
    /// No hosts, no migrations: two lengths and a count.
    const WIDTH: usize = 3 * width::WORD;
    fn layout<C: Codec>(c: &mut C, s: Src<Self>) -> DecResult<Self> {
        Ok(ClusterState {
            hosts: c.list(s.map(|s| &s.hosts), "cluster host count")?,
            in_flight: c.list(s.map(|s| &s.in_flight), "cluster in-flight count")?,
            migrations_started: c.value(s.map(|s| s.migrations_started), "cluster migrations")?,
        })
    }
}

impl Layout for TraceRow {
    /// Empty series: at, solar, three lengths, work.
    const WIDTH: usize = 6 * width::WORD;
    fn layout<C: Codec>(c: &mut C, r: Src<Self>) -> DecResult<Self> {
        Ok(TraceRow {
            at: c.value(r.map(|r| r.at), "row at")?,
            solar: c.value(r.map(|r| r.solar), "row solar")?,
            soc: c.values(r.map(|r| &r.soc), "row soc len", "row soc")?,
            server_power: c.values(r.map(|r| &r.server_power), "row power len", "row power")?,
            battery_current: c.values(
                r.map(|r| &r.battery_current),
                "row current len",
                "row current",
            )?,
            work_cumulative: c.value(r.map(|r| r.work_cumulative), "row work")?,
        })
    }
}

impl Layout for InjectorState {
    /// Empty lists: three lengths and an RNG position.
    const WIDTH: usize = 7 * width::WORD;
    fn layout<C: Codec>(c: &mut C, i: Src<Self>) -> DecResult<Self> {
        Ok(InjectorState {
            active: c.values(
                i.map(|i| &i.active),
                "injector active len",
                "injector active",
            )?,
            held: c.values(i.map(|i| &i.held), "injector held len", "injector held tag")?,
            held_temp: c.values(
                i.map(|i| &i.held_temp),
                "injector held temp len",
                "injector temp tag",
            )?,
            rng_state: c.value(i.map(|i| i.rng_state), "injector rng")?,
        })
    }
}

impl Layout for PolicyState {
    /// An empty name and no words: two lengths.
    const WIDTH: usize = 2 * width::WORD;
    fn layout<C: Codec>(c: &mut C, p: Src<Self>) -> DecResult<Self> {
        let name = c.values(p.map(|p| &p.name), "policy name len", "policy name")?;
        Ok(PolicyState {
            name: String::from_utf8(name).map_err(|_| corrupt("policy name"))?,
            data: c.values(p.map(|p| &p.data), "policy data len", "policy word")?,
        })
    }
}

/// A bank's last charger stage: its tag, or 255 before the charger
/// reported one.
impl Value for Option<ChargeStage> {
    const WIDTH: usize = width::TAG;
    fn value<C: Codec>(c: &mut C, v: Option<Self>, cx: &'static str) -> DecResult<Self> {
        const NONE: u8 = 255;
        match c.value(v.map(|v| v.map_or(NONE, |s| tag(&s, &STAGES))), cx)? {
            NONE => Ok(None),
            tag => STAGES
                .get(usize::from(tag))
                .map(|&s| Some(s))
                .ok_or(corrupt("charge stage tag")),
        }
    }
}

/// Keys a history's rows are encoded for at a time.
const BLOCK: usize = History::<SensorSample>::BLOCK;

/// `0..keys` in consecutive blocks of at most [`BLOCK`] keys.
fn blocks(keys: usize) -> impl Iterator<Item = Range<usize>> {
    (0..keys)
        .step_by(BLOCK)
        .map(move |start| start..keys.min(start + BLOCK))
}

/// The body: every field of the state, in format order. Only a decoder
/// returns the state: its histories cannot be built without allocating,
/// and an encoder allocates nothing.
fn state<C: Codec>(c: &mut C, s: Src<SimState>) -> DecResult<Option<SimState>> {
    let step_index = c.value(s.map(|s| s.step_index), "step index")?;
    let now = c.value(s.map(|s| s.now), "now")?;
    let weather_today = *c.variant(s.map(|s| &s.weather_today), &Weather::ALL, "weather")?;
    let started_day = c.value(s.map(|s| s.started_day), "started day")?;
    let in_window = c.value(s.map(|s| s.in_window), "in window")?;
    let soc_floors = c.values(s.map(|s| &s.soc_floors), "soc floors len", "soc floor")?;
    let unserved_streak = c.values(
        s.map(|s| &s.unserved_streak),
        "unserved streak len",
        "unserved streak",
    )?;
    let offline_since = c.values(s.map(|s| &s.offline_since), "offline len", "offline since")?;
    let downtime = c.values(s.map(|s| &s.downtime), "downtime len", "downtime")?;
    let unserved_energy = c.value(s.map(|s| s.unserved_energy), "unserved energy")?;
    let curtailed_energy = c.value(s.map(|s| s.curtailed_energy), "curtailed energy")?;
    let grid_charge_energy = c.value(s.map(|s| s.grid_charge_energy), "grid energy")?;
    let arrivals_today = c.list(s.map(|s| &s.arrivals_today), "arrivals len")?;
    let pending = c.list(s.map(|s| &s.pending), "pending len")?;
    let clouds_rng = c.value(s.map(|s| s.clouds_rng), "clouds rng")?;
    let clouds_ar = c.value(s.map(|s| s.clouds_ar), "clouds ar")?;
    let last_currents = c.values(s.map(|s| &s.last_currents), "currents len", "current")?;
    let last_voltages = c.values(s.map(|s| &s.last_voltages), "voltages len", "voltage")?;
    let last_solar = c.value(s.map(|s| s.last_solar), "last solar")?;
    let last_outcomes = c.list(s.map(|s| &s.last_outcomes), "outcomes len")?;
    let mode_switches = c.values(
        s.map(|s| &s.mode_switches),
        "mode switches len",
        "mode switch",
    )?;
    let stage_last = c.values(s.map(|s| &s.stage_last), "stage last len", "stage tag")?;
    let degraded = c.values(s.map(|s| &s.degraded), "degraded len", "degraded")?;
    let fallback_rejected = c.list(s.map(|s| &s.fallback_rejected), "fallback len")?;
    let rr_cursor = c.value(s.map(|s| s.rr_cursor), "rr cursor")?;
    let generator_rng = c.value(s.map(|s| s.generator_rng), "generator rng")?;
    let generator_next_id = c.value(s.map(|s| s.generator_next_id), "generator next id")?;
    let sensor_rngs = c.values(s.map(|s| &s.sensor_rngs), "sensor rng len", "sensor rng")?;
    let injector = c.walk(s.map(|s| &s.injector))?;
    let events = c.list(s.map(|s| &s.events), "events len")?;
    let recorder_keep_every = c.value(s.map(|s| s.recorder_keep_every), "recorder stride")?;
    let recorder_pushes = c.value(s.map(|s| s.recorder_pushes), "recorder pushes")?;
    let recorder_rows = c.list(s.map(|s| &s.recorder_rows), "recorder rows len")?;
    let cluster = c.walk(s.map(|s| &s.cluster))?;
    let histories = c.histories(s)?;
    let policy = s.map(|s| s.policy.as_ref());
    let policy = c.option(policy, "policy tag", PolicyState::layout)?;
    Ok(histories.map(
        |(battery_rows, server_rows, batteries, telemetry)| SimState {
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
            battery_rows,
            server_rows,
            batteries,
            telemetry,
            policy,
        },
    ))
}

/// Writes `s`'s body into `out`, under `chemistry`.
fn encode_state<S: Sink>(out: S, chemistry: Chemistry, s: &SimState) -> S {
    let mut e = Enc { out, chemistry };
    state(&mut e, Some(s)).expect("every battery's aging breakdown fits the snapshot's chemistry");
    e.out
}

fn decode_state(bytes: &[u8], chemistry: Chemistry) -> Result<SimState, SnapshotError> {
    let d = &mut Dec {
        buf: bytes,
        pos: 0,
        chemistry,
    };
    let state = state(d, None)?.expect("a decoder returns the state");
    if d.pos != bytes.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(state)
}

impl SimSnapshot {
    /// Serializes the snapshot to the versioned byte format.
    ///
    /// A counting pass sizes the body first, so header, body and trailer
    /// are written once into a single exact-size buffer, zeroed by the
    /// allocator. The history runs are left as gaps and filled a block of
    /// keys at a time.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body_len = encode_state(ByteCount(0), self.chemistry, &self.state).0;
        let mut out = Buffer {
            bytes: vec![0; HEADER_LEN + body_len + TRAILER_LEN],
            len: 0,
        };
        out.put(&SNAPSHOT_MAGIC);
        out.put(&self.version.to_le_bytes());
        out.put(&[tag(&self.chemistry, &Chemistry::ALL)]);
        out.put(&self.config_hash.to_le_bytes());
        out.put(&(body_len as u64).to_le_bytes());
        let Buffer { mut bytes, len } = encode_state(out, self.chemistry, &self.state);
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
        let d = &mut Dec {
            buf: bytes,
            pos: 0,
            chemistry: Chemistry::ALL[0],
        };
        let magic = d.take(8, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.value(None, "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let chemistry = *d.variant(None, &Chemistry::ALL, "chemistry")?;
        let config_hash = d.value(None, "config hash")?;
        let body_len = d.value(None, "body length")?;
        let body = d.take(body_len, "body")?;
        let check = d.value(None, "checksum")?;
        if crc64(body) != check {
            return Err(corrupt("checksum"));
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
        encode_state(Fnv1a(FNV_OFFSET), self.chemistry, &self.state).0
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

    use baat_testkit::prelude::*;

    /// A growable sink for small encodings; it streams.
    impl Sink for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) {
            self.extend_from_slice(bytes);
        }
    }

    fn enc<S: Sink>(out: S) -> Enc<S> {
        Enc {
            out,
            chemistry: Chemistry::LeadAcid,
        }
    }

    /// The bytes `f` writes.
    fn encoded<T>(f: impl FnOnce(&mut Enc<Vec<u8>>) -> DecResult<T>) -> Vec<u8> {
        let mut e = enc(Vec::new());
        f(&mut e).expect("encodes");
        e.out
    }

    fn dec(buf: &[u8]) -> Dec<'_> {
        Dec {
            buf,
            pos: 0,
            chemistry: Chemistry::LeadAcid,
        }
    }

    /// The length of `v`'s layout.
    fn encoded_len<T: Layout>(v: &T) -> usize {
        walk(ByteCount(0), Chemistry::LeadAcid, v).0
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

    /// Every width is the encoder's exact minimum for its value: larger
    /// would reject valid files, smaller would let a corrupt length
    /// reserve more than the input can fill.
    #[test]
    fn min_widths_match_the_encoder() {
        fn value_len<T: Value>(v: T) -> usize {
            encoded_len(&Val(v))
        }
        assert_eq!(value_len(0u8), u8::WIDTH);
        assert_eq!(value_len(0u32), u32::WIDTH);
        assert_eq!(value_len(true), bool::WIDTH);
        assert_eq!(value_len(0.5f64), f64::WIDTH);
        assert_eq!(value_len(None::<SimInstant>), <Option<SimInstant>>::WIDTH);
        assert_eq!(value_len(None::<ChargeStage>), <Option<ChargeStage>>::WIDTH);
        assert_eq!(value_len([0u64; 4]), <[u64; 4]>::WIDTH);
        assert_eq!(value_len(sample()), SensorSample::WIDTH);
        assert_eq!(encoded_len(&vm()), VmSnapshot::WIDTH);
        assert_eq!(
            encoded_len(&UsageAccumulator::default()),
            UsageAccumulator::WIDTH
        );
        assert_eq!(
            encoded_len(&AgingBreakdown::default()),
            AgingBreakdown::WIDTH
        );
        let arrival = Arrival {
            at: TimeOfDay::from_secs(0),
            kind: WorkloadKind::ALL[0],
        };
        assert_eq!(encoded_len(&arrival), Arrival::WIDTH);
        let shortest = ACTIONS.iter().map(encoded_len).min();
        assert_eq!(shortest, Some(Action::WIDTH));
        let outcome = ActionOutcome {
            action: ACTIONS[0],
            result: ActionResult::Applied,
        };
        assert_eq!(encoded_len(&outcome), ActionOutcome::WIDTH);
        let shortest = FAULTS.iter().map(encoded_len).min();
        assert_eq!(shortest, Some(FaultKind::WIDTH));
        let at = SimInstant::from_secs(0);
        let shortest = EVENTS
            .iter()
            .map(|&event| encoded_len(&TimedEvent { at, event }))
            .min();
        assert_eq!(shortest, Some(TimedEvent::WIDTH));
        let row = TraceRow {
            at,
            solar: Watts::new(0.0),
            soc: Vec::new(),
            server_power: Vec::new(),
            battery_current: Vec::new(),
            work_cumulative: 0.0,
        };
        assert_eq!(encoded_len(&row), TraceRow::WIDTH);
        let host = HostState {
            dvfs: DvfsLevel::ALL[0],
            online: true,
            boot_remaining: SimDuration::from_secs(0),
            work_done: 0.0,
            completed_jobs: 0,
            vms: Vec::new(),
        };
        assert_eq!(encoded_len(&host), HostState::WIDTH);
        let migration = InFlightState {
            vm: vm(),
            to: ServerId(1),
            completes_at: SimInstant::from_secs(60),
        };
        assert_eq!(encoded_len(&migration), InFlightState::WIDTH);
        let cluster = ClusterState {
            hosts: Vec::new(),
            in_flight: Vec::new(),
            migrations_started: 0,
        };
        assert_eq!(encoded_len(&cluster), ClusterState::WIDTH);
        let injector = InjectorState {
            active: Vec::new(),
            held: Vec::new(),
            held_temp: Vec::new(),
            rng_state: [0; 4],
        };
        assert_eq!(encoded_len(&injector), InjectorState::WIDTH);
        let policy = PolicyState {
            name: String::new(),
            data: Vec::new(),
        };
        assert_eq!(encoded_len(&policy), PolicyState::WIDTH);
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
        assert_eq!(encoded_len(&Record(battery)), width::BATTERY);
        let empty = History::<SensorSample>::from_rows(vec![Vec::new()], 0);
        let mut e = enc(ByteCount(0));
        e.run(&empty, 0, sample_words);
        e.run(&empty, 0, sample_words);
        assert_eq!(e.out.0, width::POWER_TABLE_NODE);
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
        let bytes = encoded(|e| e.value(Some(u64::MAX), "test"));
        let mut d = dec(&bytes);
        assert!(matches!(
            d.len(None, 1, "test"),
            Err(SnapshotError::Corrupt { .. })
        ));
        // 80 bytes follow the prefix: room for ten words, not eleven,
        // even though eleven is far below the byte count.
        for (n, fits) in [(10, true), (11, false), (80, false)] {
            let mut bytes = encoded(|e| e.values(Some(&[0u64; 10]), "", ""));
            bytes[..8].copy_from_slice(&(n as u64).to_le_bytes());
            let got = dec(&bytes).len(None, width::WORD, "test");
            assert_eq!(got.is_ok(), fits, "{n} words");
        }
    }

    #[test]
    fn enum_tags_round_trip() {
        fn round_trip<T: PartialEq + std::fmt::Debug>(all: &[T]) {
            for v in all {
                let bytes = encoded(|e| e.variant(Some(v), all, "tag"));
                assert_eq!(bytes, [tag(v, all)]);
                assert_eq!(dec(&bytes).variant(None, all, "tag"), Ok(v));
            }
            let past = [all.len() as u8];
            assert_eq!(dec(&past).variant(None, all, "tag"), Err(corrupt("tag")));
        }
        round_trip(&Weather::ALL);
        round_trip(&Chemistry::ALL);
        round_trip(&WorkloadKind::ALL);
        round_trip(&DvfsLevel::ALL);
        round_trip(&VM_STATES);
        round_trip(&STAGES);
        round_trip(&REJECTS);
        round_trip(&ACTIONS);
        round_trip(&RESULTS);
        round_trip(&FAULTS);
        round_trip(&EVENTS);
        // A stage is its tag, or 255 before the first; other tags are
        // corrupt.
        for (tag, stage) in [(0, Ok(Some(STAGES[0]))), (255, Ok(None))] {
            assert_eq!(dec(&[tag]).value(None, "stage"), stage);
        }
        let bad = dec(&[3]).value::<Option<ChargeStage>>(None, "stage");
        assert_eq!(bad, Err(corrupt("charge stage tag")));
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
            let bytes = encoded(|e| FaultKind::layout(e, Some(&kind)));
            let mut d = dec(&bytes);
            assert_eq!(FaultKind::layout(&mut d, None).unwrap(), kind);
        }
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let bytes = encoded(|e| e.value(Some(v), "v"));
            let mut d = dec(&bytes);
            assert_eq!(d.value::<f64>(None, "v").unwrap().to_bits(), v.to_bits());
        }
    }

    /// A [`Value`] as a layout of its own.
    #[derive(Debug)]
    struct Val<T>(T);

    impl<T: Value> Layout for Val<T> {
        const WIDTH: usize = T::WIDTH;
        fn layout<C: Codec>(c: &mut C, v: Src<Self>) -> DecResult<Self> {
            Ok(Val(c.value(v.map(|v| v.0), "value")?))
        }
    }

    /// A battery record with an empty telemetry run, so that the record's
    /// own layout can be walked alone.
    #[derive(Debug)]
    struct Record(BatteryUnitState);

    impl Layout for Record {
        const WIDTH: usize = width::BATTERY;
        fn layout<C: Codec>(c: &mut C, r: Src<Self>) -> DecResult<Self> {
            let record = battery(c, r.map(|r| &r.0), |c, _| {
                c.len(Some(0), width::WORD, "telemetry samples len")?;
                Ok(None)
            })?;
            Ok(Record(record))
        }
    }

    /// `v` walked by `T`'s layout body into `out`.
    fn walk<S: Sink, T: Layout>(out: S, chemistry: Chemistry, v: &T) -> S {
        let mut e = Enc { out, chemistry };
        T::layout(&mut e, Some(v)).expect("encodes");
        e.out
    }

    /// The four consumers of `v`'s one layout body agree: the counted
    /// length is the written length, the streamed hash is the hash of
    /// the written bytes, and the bytes decode to a value that encodes
    /// to the same bytes, every byte read.
    fn consumers_agree<T: Layout>(v: &T, chemistry: Chemistry) -> TestCaseResult {
        let len = walk(ByteCount(0), chemistry, v).0;
        let out = Buffer {
            bytes: vec![0; len],
            len: 0,
        };
        let Buffer {
            bytes,
            len: written,
        } = walk(out, chemistry, v);
        prop_assert_eq!(written, len);
        prop_assert_eq!(walk(Fnv1a(FNV_OFFSET), chemistry, v).0, fnv1a(&bytes));
        let mut d = Dec {
            buf: &bytes,
            pos: 0,
            chemistry,
        };
        let decoded = T::layout(&mut d, None);
        prop_assert!(
            decoded.is_ok(),
            "decodes: {decoded:?}",
            decoded = decoded.err()
        );
        prop_assert_eq!(d.pos, len);
        let again = walk(Vec::new(), chemistry, &decoded.expect("decoded"));
        prop_assert_eq!(again, bytes);
        Ok(())
    }

    /// Random values of every layout type, every enum variant reachable,
    /// floats over every bit pattern.
    struct Gen(baat_rng::StdRng);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0.random_range(0..n)
        }
        fn word(&mut self) -> u64 {
            self.0.next_u64()
        }
        fn float(&mut self) -> f64 {
            f64::from_bits(self.word())
        }
        fn pick<T: Copy>(&mut self, all: &[T]) -> T {
            all[self.below(all.len())]
        }
        fn many<T>(&mut self, max: usize, mut each: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let n = self.below(max + 1);
            (0..n).map(|_| each(self)).collect()
        }
        fn action(&mut self) -> Action {
            match self.pick(&ACTIONS) {
                Action::SetDvfs { .. } => Action::SetDvfs {
                    node: self.below(1 << 20),
                    level: self.pick(&DvfsLevel::ALL),
                },
                Action::Migrate { .. } => Action::Migrate {
                    vm: VmId(self.word()),
                    target: self.below(1 << 20),
                },
                Action::SetSocFloor { .. } => Action::SetSocFloor {
                    node: self.below(1 << 20),
                    floor: Soc::saturating(self.float()),
                },
            }
        }
        fn outcome(&mut self) -> ActionOutcome {
            ActionOutcome {
                action: self.action(),
                result: match self.pick(&RESULTS) {
                    ActionResult::Applied => ActionResult::Applied,
                    ActionResult::Rejected(_) => ActionResult::Rejected(self.pick(&REJECTS)),
                },
            }
        }
        fn fault(&mut self) -> FaultKind {
            let bank = self.below(64);
            match self.pick(&FAULTS) {
                FaultKind::SensorDropout { .. } => FaultKind::SensorDropout { bank },
                FaultKind::SensorStuckAt { .. } => FaultKind::SensorStuckAt { bank },
                FaultKind::SensorNoise { .. } => FaultKind::SensorNoise {
                    bank,
                    sigma: self.float(),
                },
                FaultKind::SensorDrift { .. } => FaultKind::SensorDrift {
                    bank,
                    volts_per_hour: self.float(),
                },
                FaultKind::InverterDerate { .. } => FaultKind::InverterDerate {
                    fraction: self.float(),
                },
                FaultKind::ChargerFailure { .. } => FaultKind::ChargerFailure { bank },
                FaultKind::ChargerModeStuck { .. } => FaultKind::ChargerModeStuck { bank },
                FaultKind::BatteryOpenCircuit { .. } => FaultKind::BatteryOpenCircuit { bank },
                FaultKind::ThermalSensorLoss { .. } => FaultKind::ThermalSensorLoss { bank },
                FaultKind::HostFailure { .. } => FaultKind::HostFailure { node: bank },
                f @ (FaultKind::PvOutage | FaultKind::MigrationsBlocked) => f,
            }
        }
        fn event(&mut self) -> TimedEvent {
            let node = self.below(1 << 20);
            let event = match self.pick(&EVENTS) {
                Event::ServerShutdown { .. } => Event::ServerShutdown { node },
                Event::ServerRestart { .. } => Event::ServerRestart { node },
                Event::DvfsChanged { .. } => Event::DvfsChanged {
                    node,
                    level: self.pick(&DvfsLevel::ALL),
                },
                Event::MigrationStarted { .. } => Event::MigrationStarted {
                    vm: VmId(self.word()),
                    from: node,
                    to: self.below(1 << 20),
                },
                Event::Action { .. } => Event::Action {
                    outcome: self.outcome(),
                },
                Event::BatteryCutoff { .. } => Event::BatteryCutoff { node },
                Event::SocFloorChanged { .. } => Event::SocFloorChanged {
                    node,
                    floor: Soc::saturating(self.float()),
                },
                Event::PlacementFailed { .. } => Event::PlacementFailed { node },
                Event::FaultInjected { .. } => Event::FaultInjected {
                    fault: self.fault(),
                },
                Event::FaultCleared { .. } => Event::FaultCleared {
                    fault: self.fault(),
                },
                Event::DegradedMode { .. } => Event::DegradedMode {
                    node,
                    active: self.below(2) == 1,
                },
            };
            TimedEvent {
                at: SimInstant::from_secs(self.word()),
                event,
            }
        }
        fn vm(&mut self) -> VmSnapshot {
            VmSnapshot {
                id: VmId(self.word()),
                kind: self.pick(&WorkloadKind::ALL),
                state: self.pick(&VM_STATES),
                progress: self.float(),
                work_done: self.float(),
                migrations: self.word() as u32,
            }
        }
        fn sample(&mut self) -> SensorSample {
            sample_from(std::array::from_fn(|_| self.word()))
        }
        fn accumulator(&mut self) -> UsageAccumulator {
            UsageAccumulator {
                ah_discharged: AmpHours::new(self.float()),
                ah_charged: AmpHours::new(self.float()),
                ah_discharged_by_range: std::array::from_fn(|_| AmpHours::new(self.float())),
                observed: SimDuration::from_secs(self.word()),
                deep_discharge_time: SimDuration::from_secs(self.word()),
                soc_time_histogram: std::array::from_fn(|_| SimDuration::from_secs(self.word())),
                peak_discharge: Amperes::new(self.float()),
                discharge_amp_seconds: self.float(),
                discharge_time: SimDuration::from_secs(self.word()),
                energy_out: WattHours::new(self.float()),
                energy_in: WattHours::new(self.float()),
                full_charge_events: self.word(),
            }
        }
        fn breakdown(&mut self, chemistry: Chemistry) -> AgingBreakdown {
            if self.below(4) == 0 {
                return AgingBreakdown::default();
            }
            let pairs: Vec<_> = chemistry
                .aging_labels()
                .iter()
                .map(|&label| (label, self.float()))
                .collect();
            AgingBreakdown::from_pairs(&pairs)
        }
        fn battery(&mut self, chemistry: Chemistry) -> Record {
            Record(BatteryUnitState {
                soc: Soc::saturating(self.float()),
                hours_since_full: self.float(),
                cutoff_events: self.word(),
                temperature: Celsius::new(self.float()),
                aging: self.breakdown(chemistry),
                telemetry: TelemetryState {
                    max_samples: self.below(1 << 20),
                    latest: None,
                    lifetime: self.accumulator(),
                    window: self.accumulator(),
                },
            })
        }
        fn host(&mut self) -> HostState {
            HostState {
                dvfs: self.pick(&DvfsLevel::ALL),
                online: self.below(2) == 1,
                boot_remaining: SimDuration::from_secs(self.word()),
                work_done: self.float(),
                completed_jobs: self.word(),
                vms: self.many(3, Self::vm),
            }
        }
        fn migration(&mut self) -> InFlightState {
            InFlightState {
                vm: self.vm(),
                to: ServerId(self.below(1 << 20)),
                completes_at: SimInstant::from_secs(self.word()),
            }
        }
        fn cluster(&mut self) -> ClusterState {
            ClusterState {
                hosts: self.many(3, Self::host),
                in_flight: self.many(3, Self::migration),
                migrations_started: self.word(),
            }
        }
        fn trace_row(&mut self) -> TraceRow {
            TraceRow {
                at: SimInstant::from_secs(self.word()),
                solar: Watts::new(self.float()),
                soc: self.many(4, Self::float),
                server_power: self.many(4, |g| Watts::new(g.float())),
                battery_current: self.many(4, Self::float),
                work_cumulative: self.float(),
            }
        }
        fn injector(&mut self) -> InjectorState {
            InjectorState {
                active: self.many(4, |g| g.below(2) == 1),
                held: self.many(4, |g| (g.below(2) == 1).then(|| g.sample())),
                held_temp: self.many(4, |g| (g.below(2) == 1).then(|| Celsius::new(g.float()))),
                rng_state: std::array::from_fn(|_| self.word()),
            }
        }
        fn policy(&mut self) -> PolicyState {
            PolicyState {
                name: ["BAAT", "BAAT-h", "e-Buff", ""][self.below(4)].to_owned(),
                data: self.many(6, Self::word),
            }
        }
        fn arrival(&mut self) -> Arrival {
            Arrival {
                at: TimeOfDay::from_secs(self.below(86_400) as u32),
                kind: self.pick(&WorkloadKind::ALL),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every layout type's one body feeds the byte counter, the
        /// writer, the hasher and the reader alike.
        #[test]
        fn one_body_four_consumers_agree(seed in 0u64..u64::MAX) {
            let mut g = Gen(baat_rng::StdRng::seed_from_u64(seed));
            for chemistry in Chemistry::ALL {
                consumers_agree(&g.action(), chemistry)?;
                consumers_agree(&g.outcome(), chemistry)?;
                consumers_agree(&g.fault(), chemistry)?;
                consumers_agree(&g.event(), chemistry)?;
                consumers_agree(&g.vm(), chemistry)?;
                consumers_agree(&g.arrival(), chemistry)?;
                consumers_agree(&Val(g.sample()), chemistry)?;
                let stage = g.below(STAGES.len() + 1);
                consumers_agree(&Val(STAGES.get(stage).copied()), chemistry)?;
                consumers_agree(&Val((g.below(2) == 1).then(|| g.sample())), chemistry)?;
                consumers_agree(&g.accumulator(), chemistry)?;
                let breakdown = g.breakdown(chemistry);
                consumers_agree(&breakdown, chemistry)?;
                consumers_agree(&g.battery(chemistry), chemistry)?;
                consumers_agree(&g.cluster(), chemistry)?;
                consumers_agree(&g.trace_row(), chemistry)?;
                consumers_agree(&g.injector(), chemistry)?;
                consumers_agree(&g.policy(), chemistry)?;
            }
        }
    }
}
