//! Wire format for metric announcements (gmond's XDR analogue) and the
//! classification service's control frames.
//!
//! Real gmond serializes each metric announcement with XDR before
//! multicasting it. This module provides the equivalent compact binary
//! codec for [`Snapshot`]s: a fixed header (magic, version, node id,
//! timestamp) followed by the 33 metric values as big-endian IEEE-754
//! doubles, every field at a fixed offset. Decoding validates the magic,
//! version, frame width and value finiteness, so a corrupted or truncated
//! datagram is rejected instead of poisoning the data pool.
//!
//! Layered on top, [`ControlFrame`] is the session protocol the
//! `appclass-serve` TCP service speaks: a versioned envelope (magic,
//! version, kind byte) around a typed payload, closed by a CRC-64/XZ
//! checksum over everything before it. The checksum makes the control
//! layer strictly stronger than the snapshot datagram layer: *any* flipped
//! byte in a control frame — indeed any corruption confined to 8
//! consecutive bytes — is detected and surfaces as a typed
//! [`Error::MalformedWire`], never a panic and never silent corruption.
//! The checksum is folded 128 bytes per step with carry-less multiplies
//! on x86-64 CPUs that have PCLMULQDQ, and computed from a slicing-by-8
//! table for short inputs and on other CPUs; both give the same bytes.
//! Snapshot announcements travel *inside* [`ControlFrame::Snapshot`] as
//! raw datagram bytes, so a lossy channel can still mangle the inner
//! announcement (that is the fault domain [`crate::repair::FrameGuard`]
//! owns) while the session envelope stays verifiable.

use crate::error::{Error, Result};
use crate::metric::{MetricFrame, METRIC_COUNT};
use crate::repair::TelemetryHealth;
use crate::snapshot::{NodeId, Snapshot};
use appclass_obs::trace::TRACE_EXT_LEN;
use appclass_obs::TraceContext;

/// Magic bytes opening every announcement ("GMON").
pub const MAGIC: u32 = 0x474D_4F4E;

/// Wire protocol version.
pub const VERSION: u16 = 1;

/// Bytes in front of the metric values: magic, version, count, node, time.
const DATAGRAM_HEADER: usize = 4 + 2 + 2 + 4 + 8;

/// Encoded size of one announcement: header + payload.
pub const WIRE_SIZE: usize = DATAGRAM_HEADER + METRIC_COUNT * 8;

/// Encodes a snapshot into its wire representation.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    datagram(snapshot).to_vec()
}

/// Builds a snapshot's wire representation in a stack array: the bytes
/// of [`encode`] without a heap buffer, for callers that copy them
/// straight into a frame or a fault channel.
pub fn datagram(snapshot: &Snapshot) -> [u8; WIRE_SIZE] {
    let mut d = [0u8; WIRE_SIZE];
    d[0..4].copy_from_slice(&MAGIC.to_be_bytes());
    d[4..6].copy_from_slice(&VERSION.to_be_bytes());
    d[6..8].copy_from_slice(&(METRIC_COUNT as u16).to_be_bytes());
    d[8..12].copy_from_slice(&snapshot.node.0.to_be_bytes());
    d[12..20].copy_from_slice(&snapshot.time.to_be_bytes());
    let (slots, _) = d[DATAGRAM_HEADER..].as_chunks_mut::<8>();
    for (slot, v) in slots.iter_mut().zip(snapshot.frame.as_slice()) {
        *slot = v.to_be_bytes();
    }
    d
}

/// Decodes a wire announcement back into a snapshot.
///
/// Rejects short buffers, bad magic/version, unexpected metric counts and
/// non-finite values — all as [`Error::MalformedWire`].
pub fn decode(data: &[u8]) -> Result<Snapshot> {
    let Some(d) = data.first_chunk::<WIRE_SIZE>() else {
        return Err(Error::MalformedWire { reason: "truncated announcement", offset: data.len() });
    };
    if u32::from_be_bytes(field(d, 0)) != MAGIC {
        return Err(Error::MalformedWire { reason: "bad magic", offset: 0 });
    }
    if u16::from_be_bytes(field(d, 4)) != VERSION {
        return Err(Error::MalformedWire { reason: "unsupported version", offset: 4 });
    }
    if usize::from(u16::from_be_bytes(field(d, 6))) != METRIC_COUNT {
        return Err(Error::MalformedWire { reason: "unexpected metric count", offset: 6 });
    }
    let node = NodeId(u32::from_be_bytes(field(d, 8)));
    let time = u64::from_be_bytes(field(d, 12));
    let mut values = [0.0f64; METRIC_COUNT];
    let (raw, _) = d[DATAGRAM_HEADER..].as_chunks::<8>();
    for (i, (v, raw)) in values.iter_mut().zip(raw).enumerate() {
        *v = f64::from_be_bytes(*raw);
        if !v.is_finite() {
            return Err(Error::MalformedWire {
                reason: "non-finite metric value",
                offset: DATAGRAM_HEADER + i * 8,
            });
        }
    }
    Ok(Snapshot::new(node, time, MetricFrame::from_array(values)))
}

/// The `N` datagram bytes at a fixed offset.
fn field<const N: usize>(d: &[u8; WIRE_SIZE], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&d[at..at + N]);
    out
}

// --- Control frames (the appclass-serve session protocol) -----------------

/// Magic bytes opening every control frame ("APCS").
pub const CONTROL_MAGIC: u32 = 0x4150_4353;

/// Control protocol version negotiated by the `Hello` handshake. Version 2
/// closes frames with a CRC-64/XZ trailer; version 1 used FNV-1a, and a
/// version-1 peer is refused as an unsupported version.
pub const CONTROL_VERSION: u16 = 2;

/// Envelope overhead: magic + version + kind in front, checksum behind.
const CONTROL_HEADER: usize = 4 + 2 + 1;
const CONTROL_TRAILER: usize = 8;

/// Kind bytes of the two frames the zero-copy decoder borrows.
const KIND_SNAPSHOT: u8 = 2;
const KIND_SNAPSHOT_BATCH: u8 = 8;

/// Upper bound on a [`ControlFrame::Stats`] exposition text, in bytes.
/// 64 KiB holds thousands of metric lines — far beyond what the registry
/// emits — while still letting transports bound their reads.
pub const MAX_STATS_TEXT: usize = 64 * 1024;

/// Upper bound on the serialized pipeline JSON a [`ControlFrame::SwapModel`]
/// may carry. A paper-config pipeline (33-metric preprocessor, 8-component
/// PCA basis, ~150 projected training points) serializes to well under
/// 64 KiB; 256 KiB leaves headroom for larger training pools without
/// letting a hostile peer demand unbounded allocations.
pub const MAX_MODEL_JSON: usize = 256 * 1024;

/// Upper bound on an encoded control frame (the largest payload is a
/// [`ControlFrame::SwapModel`] pipeline dump). Transport layers use this
/// to bound reads.
pub const MAX_CONTROL_SIZE: usize = CONTROL_HEADER + 4 + MAX_MODEL_JSON + CONTROL_TRAILER;

// The stats exposition must also fit the read bound.
const _: () = assert!(CONTROL_HEADER + 4 + MAX_STATS_TEXT + CONTROL_TRAILER <= MAX_CONTROL_SIZE);

/// Upper bound on the snapshots one [`ControlFrame::SnapshotBatch`] may
/// carry. 128 datagrams of [`WIRE_SIZE`] bytes (plus per-item length
/// prefixes) stay comfortably inside [`MAX_CONTROL_SIZE`], which the
/// transport already uses to bound reads.
pub const MAX_SNAPSHOT_BATCH: usize = 128;

// A full batch (plus a trace extension) must fit the existing read bound.
const _: () = assert!(
    CONTROL_HEADER + 2 + MAX_SNAPSHOT_BATCH * (2 + WIRE_SIZE) + TRACE_EXT_LEN + CONTROL_TRAILER
        <= MAX_CONTROL_SIZE
);

/// FNV-1a 64-bit hash — the basis of deterministic model fingerprints
/// and the checksum of the appdb log and model store records. Flipping
/// any single input byte always changes the digest (every round is a
/// bijection of the state).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reflected form of the ECMA-182 polynomial that CRC-64/XZ uses.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables: `T[0]` is the classic byte-at-a-time table and
/// `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// lookups fold one 8-byte word.
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

static CRC64_TABLE: [[u64; 256]; 8] = crc64_tables();

/// `x^n mod P`, bit-reflected like the CRC register (bit 63 is `x^0`):
/// starting from `1`, each step multiplies by `x` and reduces.
#[cfg(any(target_arch = "x86_64", test))]
const fn crc64_xpow(n: u32) -> u64 {
    let mut r = 1u64 << 63;
    let mut i = 0;
    while i < n {
        r = if r & 1 == 1 { (r >> 1) ^ CRC64_POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// Fold multipliers for moving a 128-bit lane `128·m` bits forward
/// (entry `m - 1`): the lane's low half, which holds its high-degree
/// coefficients, takes `x^(128m+63)`, its high half `x^(128m-1)`. The
/// `-1` absorbs the extra factor of `x` a reflected carry-less product
/// carries.
#[cfg(target_arch = "x86_64")]
const CRC64_FOLD_KEYS: [[u64; 2]; 8] = {
    let mut keys = [[0u64; 2]; 8];
    let mut m = 1;
    while m <= 8 {
        keys[m - 1] = [crc64_xpow(128 * m as u32 + 63), crc64_xpow(128 * m as u32 - 1)];
        m += 1;
    }
    keys
};

/// Inputs at least this long take the carry-less fold: one 128-byte
/// block fills its eight lanes.
#[cfg(target_arch = "x86_64")]
const CRC64_FOLD_MIN: usize = 128;

/// CRC-64/XZ (reflected ECMA-182 polynomial, init and xorout all ones) —
/// the control-frame checksum. As a degree-64 CRC it detects every error
/// burst of up to 64 bits. On x86-64 CPUs with PCLMULQDQ an input of
/// `CRC64_FOLD_MIN` bytes or more is folded 128 bytes per step with
/// carry-less multiplies (`crc64_fold`); shorter inputs, the fold's last
/// bytes and other CPUs go through the slicing-by-8 table. Both paths
/// give the same value.
fn crc64(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CRC64_FOLD_MIN && std::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `crc64_fold` only needs PCLMULQDQ (SSE2 is baseline on
        // x86-64), and `is_x86_feature_detected!` just confirmed this CPU
        // has it.
        return unsafe { crc64_fold(bytes) };
    }
    !crc64_slicing(!0, bytes)
}

/// Advances the raw CRC-64/XZ register `crc` over `bytes` (no init, no
/// xorout) with the slicing-by-8 table: eight lookups per 8-byte word.
fn crc64_slicing(mut crc: u64, bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLE;
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        let v = crc ^ u64::from_le_bytes(*word);
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][(v >> 8 & 0xFF) as usize]
            ^ t[5][(v >> 16 & 0xFF) as usize]
            ^ t[4][(v >> 24 & 0xFF) as usize]
            ^ t[3][(v >> 32 & 0xFF) as usize]
            ^ t[2][(v >> 40 & 0xFF) as usize]
            ^ t[1][(v >> 48 & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in tail {
        crc = t[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-64/XZ by reflected carry-less folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009). Eight independent 128-bit lanes absorb 128 bytes per
/// step; they are then folded into one, which absorbs the remaining
/// whole 16-byte blocks. That accumulator is congruent to the message
/// so far modulo `P`, so running the table over its 16 bytes and the
/// tail, from a zero register, finishes the CRC exactly.
///
/// Panics if `bytes` is shorter than `CRC64_FOLD_MIN`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn crc64_fold(bytes: &[u8]) -> u64 {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_unpackhi_epi64,
        _mm_xor_si128,
    };

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `lane · x^(128·m)`, congruent modulo `P`, as 128 bits.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, m: usize) -> __m128i {
        let [lo, hi] = CRC64_FOLD_KEYS[m - 1];
        let key = _mm_set_epi64x(hi as i64, lo as i64);
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(lane, key),
            _mm_clmulepi64_si128::<0x11>(lane, key),
        )
    }

    let (blocks, tail) = bytes.as_chunks::<16>();
    let (first, rest) = blocks.split_first_chunk::<8>().expect("at least 128 bytes");
    let mut lanes = first.map(|block| load(&block));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(0, -1));
    let (groups, rest) = rest.as_chunks::<8>();
    for group in groups {
        for (lane, block) in lanes.iter_mut().zip(group) {
            *lane = _mm_xor_si128(fold(*lane, 8), load(block));
        }
    }
    let mut acc = lanes[7];
    for (j, &lane) in lanes[..7].iter().enumerate() {
        acc = _mm_xor_si128(acc, fold(lane, 7 - j));
    }
    for block in rest {
        acc = _mm_xor_si128(fold(acc, 1), load(block));
    }
    let lo = _mm_cvtsi128_si64(acc) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)) as u64;
    let folded = (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes();
    !crc64_slicing(crc64_slicing(0, &folded), tail)
}

/// Why a peer is closing (or refusing) a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByeReason {
    /// Orderly end of session.
    Normal,
    /// The server is shutting down and draining sessions.
    Shutdown,
    /// Admission control refused the session (max sessions / backlog).
    SessionLimit,
    /// The session exhausted its per-session frame budget.
    FrameBudget,
    /// The peer violated the protocol (unexpected frame, bad handshake).
    Protocol,
    /// The client asked for a model the server is not serving.
    ModelMismatch,
}

impl ByeReason {
    /// Wire code of this reason.
    pub fn code(self) -> u8 {
        match self {
            ByeReason::Normal => 0,
            ByeReason::Shutdown => 1,
            ByeReason::SessionLimit => 2,
            ByeReason::FrameBudget => 3,
            ByeReason::Protocol => 4,
            ByeReason::ModelMismatch => 5,
        }
    }

    /// Reason for a wire code, if valid.
    pub fn from_code(code: u8) -> Option<ByeReason> {
        match code {
            0 => Some(ByeReason::Normal),
            1 => Some(ByeReason::Shutdown),
            2 => Some(ByeReason::SessionLimit),
            3 => Some(ByeReason::FrameBudget),
            4 => Some(ByeReason::Protocol),
            5 => Some(ByeReason::ModelMismatch),
            _ => None,
        }
    }
}

impl std::fmt::Display for ByeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ByeReason::Normal => "normal close",
            ByeReason::Shutdown => "server shutting down",
            ByeReason::SessionLimit => "session limit reached",
            ByeReason::FrameBudget => "frame budget exhausted",
            ByeReason::Protocol => "protocol violation",
            ByeReason::ModelMismatch => "model mismatch",
        };
        f.write_str(s)
    }
}

/// How the server disposed of one snapshot in a batch — the per-item
/// payload of a [`ControlFrame::VerdictBatch`] acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDisposition {
    /// The datagram decoded and the guard admitted it unchanged.
    Accepted,
    /// The guard admitted it after patching damaged values.
    Repaired,
    /// The guard discarded it (duplicate, stale, unrepairable).
    Dropped,
    /// The datagram did not decode at all.
    Malformed,
    /// The item arrived after its per-frame deadline budget and was shed
    /// before classification — a verdict-less acknowledgement, not an
    /// error.
    Expired,
}

impl FrameDisposition {
    /// Wire code of this disposition.
    pub fn code(self) -> u8 {
        match self {
            FrameDisposition::Accepted => 0,
            FrameDisposition::Repaired => 1,
            FrameDisposition::Dropped => 2,
            FrameDisposition::Malformed => 3,
            FrameDisposition::Expired => 4,
        }
    }

    /// Disposition for a wire code, if valid.
    pub fn from_code(code: u8) -> Option<FrameDisposition> {
        match code {
            0 => Some(FrameDisposition::Accepted),
            1 => Some(FrameDisposition::Repaired),
            2 => Some(FrameDisposition::Dropped),
            3 => Some(FrameDisposition::Malformed),
            4 => Some(FrameDisposition::Expired),
            _ => None,
        }
    }
}

/// One message of the classification-service session protocol.
///
/// The lifecycle is `Hello` (both directions, versioned handshake) →
/// any number of `Snapshot` / `SnapshotBatch` / `Classify` / `Health`
/// exchanges → `Bye`. `Verdict`, `VerdictBatch` and `Health` responses
/// flow server→client; `Snapshot`, `SnapshotBatch`, `Classify` and
/// `Health` requests flow client→server.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrame {
    /// Session handshake. The client offers the model fingerprint it
    /// expects (0 = any); the server replies with the assigned session id
    /// and the fingerprint it actually serves.
    Hello {
        /// Session id (0 from the client; assigned by the server).
        session: u32,
        /// Deterministic fingerprint of the trained pipeline.
        model_id: u64,
    },
    /// One snapshot announcement, carried as raw datagram bytes so that
    /// in-flight corruption of the *inner* datagram (the lossy-subnet
    /// fault domain) survives transport and is judged by the server's
    /// [`FrameGuard`](crate::repair::FrameGuard).
    Snapshot {
        /// The (possibly mangled) `wire::encode` bytes.
        wire: Vec<u8>,
        /// Optional distributed trace context, carried as a
        /// trailer-checksummed extension. Absent from old peers.
        ctx: Option<TraceContext>,
    },
    /// Client request for the session's current verdict.
    Classify {
        /// Optional distributed trace context (see
        /// [`ControlFrame::Snapshot::ctx`]).
        ctx: Option<TraceContext>,
    },
    /// Server response to [`ControlFrame::Classify`].
    Verdict {
        /// Majority class code (an `AppClass` index, `< 5`).
        class: u8,
        /// Confidence in the majority, degradation-discounted.
        confidence: f64,
        /// Class-fraction vector in `AppClass` index order.
        composition: [f64; 5],
        /// Fingerprint of the model version that produced this verdict,
        /// so clients can tell which side of a hot swap a verdict
        /// belongs to.
        model: u64,
        /// The trace context of the `Classify` request this verdict
        /// answers, echoed back so the client can confirm trace
        /// continuity end to end.
        ctx: Option<TraceContext>,
    },
    /// Telemetry health, as a client request (payload ignored) or the
    /// server's response (the session's accumulated counters).
    Health(TelemetryHealth),
    /// Observability exposition, as a client request (empty text) or the
    /// server's response: the metric registry rendered as Prometheus-style
    /// `name{label} value` lines. At most [`MAX_STATS_TEXT`] bytes.
    Stats {
        /// The exposition text (empty in the request direction).
        text: String,
    },
    /// Orderly close, with the reason the session ended.
    Bye {
        /// Why the session is over.
        reason: ByeReason,
    },
    /// Up to [`MAX_SNAPSHOT_BATCH`] snapshot announcements coalesced into
    /// one frame — the batched hot path. Each item is raw datagram bytes,
    /// exactly as in [`ControlFrame::Snapshot`], so per-datagram fault
    /// injection still works inside a batch.
    SnapshotBatch {
        /// The (possibly mangled) `wire::encode` byte strings, in
        /// arrival order.
        wires: Vec<Vec<u8>>,
        /// Optional distributed trace context covering the whole batch
        /// (see [`ControlFrame::Snapshot::ctx`]).
        ctx: Option<TraceContext>,
    },
    /// Server acknowledgement of a [`ControlFrame::SnapshotBatch`]: how
    /// each snapshot was disposed of, in the batch's order. The session
    /// verdict itself is still requested via [`ControlFrame::Classify`],
    /// so batching cannot change what a verdict says.
    VerdictBatch {
        /// Per-snapshot dispositions, parallel to the batch items.
        statuses: Vec<FrameDisposition>,
    },
    /// Admin request to hot-swap the served model: the payload is the
    /// serialized `ClassifierPipeline` JSON of the replacement. The server
    /// installs it atomically; in-flight sessions drain onto the new
    /// fingerprint without dropping their connections. At most
    /// [`MAX_MODEL_JSON`] bytes.
    SwapModel {
        /// Serialized pipeline JSON of the replacement model.
        json: String,
    },
    /// Server acknowledgement of a [`ControlFrame::SwapModel`]: the
    /// fingerprints on both sides of the swap. The old fingerprint stays
    /// valid for `Hello` gating until the *next* swap (the drain window).
    SwapAck {
        /// Fingerprint that was being served before the swap.
        old_model: u64,
        /// Fingerprint now being served.
        new_model: u64,
    },
    /// Soft refusal under load: the server is alive but shedding. Unlike
    /// the hard `Bye(SessionLimit)` rejection, a `Busy` carries a
    /// retry-after hint and invites the client to come back — at
    /// admission time it refuses the whole connection, mid-session it
    /// acknowledges a deadline-shed snapshot without a verdict.
    Busy {
        /// How long the server suggests the client wait before retrying.
        retry_after_ms: u32,
    },
}

impl ControlFrame {
    /// Wire code of this frame kind.
    fn kind(&self) -> u8 {
        match self {
            ControlFrame::Hello { .. } => 1,
            ControlFrame::Snapshot { .. } => KIND_SNAPSHOT,
            ControlFrame::Classify { .. } => 3,
            ControlFrame::Verdict { .. } => 4,
            ControlFrame::Health(_) => 5,
            ControlFrame::Bye { .. } => 6,
            ControlFrame::Stats { .. } => 7,
            ControlFrame::SnapshotBatch { .. } => KIND_SNAPSHOT_BATCH,
            ControlFrame::VerdictBatch { .. } => 9,
            ControlFrame::SwapModel { .. } => 10,
            ControlFrame::SwapAck { .. } => 11,
            ControlFrame::Busy { .. } => 12,
        }
    }

    /// Human-readable frame-kind name (for protocol errors).
    pub fn name(&self) -> &'static str {
        match self {
            ControlFrame::Hello { .. } => "Hello",
            ControlFrame::Snapshot { .. } => "Snapshot",
            ControlFrame::Classify { .. } => "Classify",
            ControlFrame::Verdict { .. } => "Verdict",
            ControlFrame::Health(_) => "Health",
            ControlFrame::Bye { .. } => "Bye",
            ControlFrame::Stats { .. } => "Stats",
            ControlFrame::SnapshotBatch { .. } => "SnapshotBatch",
            ControlFrame::VerdictBatch { .. } => "VerdictBatch",
            ControlFrame::SwapModel { .. } => "SwapModel",
            ControlFrame::SwapAck { .. } => "SwapAck",
            ControlFrame::Busy { .. } => "Busy",
        }
    }
}

/// Encodes a control frame: envelope, payload, CRC-64 checksum.
///
/// # Panics
///
/// Panics if a [`ControlFrame::Snapshot`] payload exceeds [`WIRE_SIZE`]
/// (a faulty channel can only shrink a datagram, never grow it).
pub fn encode_control(frame: &ControlFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_control_into(frame, &mut out);
    out
}

/// Appends the encoding of `frame` to `out`, reserving exactly the
/// frame's size first. Transports use it to lay a frame down behind
/// their own length prefix, in the buffer they send from.
///
/// # Panics
///
/// As [`encode_control`].
pub fn encode_control_into(frame: &ControlFrame, out: &mut Vec<u8>) {
    let len = CONTROL_HEADER + payload_len(frame) + CONTROL_TRAILER;
    out.reserve_exact(len);
    let start = out.len();
    if let ControlFrame::SnapshotBatch { wires, ctx } = frame {
        let mut batch = SnapshotBatchWriter::new(std::mem::take(out));
        for wire in wires {
            batch.push_wire(wire);
        }
        *out = batch.finish(*ctx);
        debug_assert_eq!(out.len() - start, len);
        return;
    }
    open_frame(out, frame.kind());
    match frame {
        ControlFrame::Hello { session, model_id } => {
            out.extend_from_slice(&session.to_be_bytes());
            out.extend_from_slice(&model_id.to_be_bytes());
        }
        ControlFrame::Snapshot { wire, ctx } => {
            assert!(wire.len() <= WIRE_SIZE, "snapshot datagram larger than WIRE_SIZE");
            out.extend_from_slice(&(wire.len() as u16).to_be_bytes());
            out.extend_from_slice(wire);
            put_trace_ext(out, ctx);
        }
        ControlFrame::Classify { ctx } => put_trace_ext(out, ctx),
        ControlFrame::Verdict { class, confidence, composition, model, ctx } => {
            out.push(*class);
            out.extend_from_slice(&confidence.to_be_bytes());
            for &f in composition {
                out.extend_from_slice(&f.to_be_bytes());
            }
            out.extend_from_slice(&model.to_be_bytes());
            put_trace_ext(out, ctx);
        }
        ControlFrame::Health(h) => {
            for v in [
                h.seen,
                h.accepted,
                h.repaired,
                h.dropped,
                h.duplicates,
                h.reordered,
                h.gaps,
                h.missed_frames,
                h.values_patched,
                h.malformed,
            ] {
                out.extend_from_slice(&v.to_be_bytes());
            }
            out.extend_from_slice(&h.max_repair_streak.to_be_bytes());
            out.extend_from_slice(&(h.dead_metrics.len() as u16).to_be_bytes());
            for &m in &h.dead_metrics {
                out.extend_from_slice(&(m as u16).to_be_bytes());
            }
        }
        ControlFrame::Bye { reason } => out.push(reason.code()),
        ControlFrame::Stats { text } => {
            assert!(text.len() <= MAX_STATS_TEXT, "stats exposition larger than MAX_STATS_TEXT");
            out.extend_from_slice(&(text.len() as u32).to_be_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        // Written by the batch writer above.
        ControlFrame::SnapshotBatch { .. } => {}
        ControlFrame::VerdictBatch { statuses } => {
            assert!(statuses.len() <= MAX_SNAPSHOT_BATCH, "batch larger than MAX_SNAPSHOT_BATCH");
            out.extend_from_slice(&(statuses.len() as u16).to_be_bytes());
            for s in statuses {
                out.push(s.code());
            }
        }
        ControlFrame::SwapModel { json } => {
            assert!(json.len() <= MAX_MODEL_JSON, "model json larger than MAX_MODEL_JSON");
            out.extend_from_slice(&(json.len() as u32).to_be_bytes());
            out.extend_from_slice(json.as_bytes());
        }
        ControlFrame::SwapAck { old_model, new_model } => {
            out.extend_from_slice(&old_model.to_be_bytes());
            out.extend_from_slice(&new_model.to_be_bytes());
        }
        ControlFrame::Busy { retry_after_ms } => {
            out.extend_from_slice(&retry_after_ms.to_be_bytes())
        }
    }
    seal_frame(out, start);
    debug_assert_eq!(out.len() - start, len);
}

/// Encoded payload size of `frame`: everything between the envelope
/// header and the checksum trailer.
fn payload_len(frame: &ControlFrame) -> usize {
    let ext = |ctx: &Option<TraceContext>| if ctx.is_some() { TRACE_EXT_LEN } else { 0 };
    match frame {
        ControlFrame::Hello { .. } => 4 + 8,
        ControlFrame::Snapshot { wire, ctx } => 2 + wire.len() + ext(ctx),
        ControlFrame::Classify { ctx } => ext(ctx),
        ControlFrame::Verdict { ctx, .. } => 1 + 8 + 5 * 8 + 8 + ext(ctx),
        ControlFrame::Health(h) => 10 * 8 + 4 + 2 + 2 * h.dead_metrics.len(),
        ControlFrame::Bye { .. } => 1,
        ControlFrame::Stats { text } => 4 + text.len(),
        ControlFrame::SnapshotBatch { wires, ctx } => {
            2 + wires.iter().map(|w| 2 + w.len()).sum::<usize>() + ext(ctx)
        }
        ControlFrame::VerdictBatch { statuses } => 2 + statuses.len(),
        ControlFrame::SwapModel { json } => 4 + json.len(),
        ControlFrame::SwapAck { .. } => 8 + 8,
        ControlFrame::Busy { .. } => 4,
    }
}

/// Opens a control frame at the end of `out`: magic, version, kind.
/// Returns the offset [`seal_frame`] checksums from.
fn open_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&CONTROL_MAGIC.to_be_bytes());
    out.extend_from_slice(&CONTROL_VERSION.to_be_bytes());
    out.push(kind);
    start
}

/// Closes the frame opened at `start` with the CRC-64 of its bytes,
/// stored least-significant byte first — the reflected CRC's own bit
/// order. That makes the whole frame one CRC codeword, so the burst
/// guarantee also covers corruption that straddles the trailer.
fn seal_frame(out: &mut Vec<u8>, start: usize) {
    let crc = crc64(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends the optional [`TraceContext`] extension after the payload
/// proper. An absent context appends nothing, so untraced frames are
/// byte-identical to the pre-extension encoding.
fn put_trace_ext(out: &mut Vec<u8>, ctx: &Option<TraceContext>) {
    if let Some(ctx) = ctx {
        ctx.encode(out);
    }
}

/// Builds a [`ControlFrame::SnapshotBatch`] in place, item by item, at
/// the end of a caller-owned buffer: each snapshot is encoded straight
/// into the frame, with no per-datagram buffer, and the frame is sealed
/// once at the end. The output is byte-identical to [`encode_control`]
/// of the same items, whose `SnapshotBatch` arm runs on this writer.
///
/// ```
/// use appclass_metrics::wire::{self, ControlFrame, SnapshotBatchWriter};
/// use appclass_metrics::{MetricFrame, NodeId, Snapshot};
///
/// let snap = Snapshot::new(NodeId(3), 5, MetricFrame::zeroed());
/// let mut batch = SnapshotBatchWriter::new(Vec::new());
/// batch.push(&snap);
/// let bytes = batch.finish(None);
/// let wires = vec![wire::encode(&snap).to_vec()];
/// assert_eq!(bytes, wire::encode_control(&ControlFrame::SnapshotBatch { wires, ctx: None })[..]);
/// ```
#[derive(Debug)]
pub struct SnapshotBatchWriter {
    buf: Vec<u8>,
    start: usize,
    items: usize,
}

impl SnapshotBatchWriter {
    /// Opens a batch frame after whatever `buf` already holds (a
    /// transport length prefix, say), keeping its allocation.
    pub fn new(mut buf: Vec<u8>) -> SnapshotBatchWriter {
        let start = open_frame(&mut buf, KIND_SNAPSHOT_BATCH);
        buf.extend_from_slice(&0u16.to_be_bytes()); // item count, patched by `finish`
        SnapshotBatchWriter { buf, start, items: 0 }
    }

    /// Appends one snapshot, encoded into the frame.
    ///
    /// # Panics
    ///
    /// Panics if the batch already holds [`MAX_SNAPSHOT_BATCH`] items.
    pub fn push(&mut self, snapshot: &Snapshot) {
        self.push_wire(&datagram(snapshot));
    }

    /// Appends raw datagram bytes — possibly mangled [`encode`] output.
    ///
    /// # Panics
    ///
    /// Panics if the batch is full or `wire` is longer than [`WIRE_SIZE`].
    pub fn push_wire(&mut self, wire: &[u8]) {
        assert!(self.items < MAX_SNAPSHOT_BATCH, "batch larger than MAX_SNAPSHOT_BATCH");
        assert!(wire.len() <= WIRE_SIZE, "snapshot datagram larger than WIRE_SIZE");
        self.buf.extend_from_slice(&(wire.len() as u16).to_be_bytes());
        self.buf.extend_from_slice(wire);
        self.items += 1;
    }

    /// Items pushed so far.
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether no item has been pushed.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Writes the item count, the optional trace extension and the
    /// checksum, and hands the buffer back.
    pub fn finish(mut self, ctx: Option<TraceContext>) -> Vec<u8> {
        let at = self.start + CONTROL_HEADER;
        self.buf[at..at + 2].copy_from_slice(&(self.items as u16).to_be_bytes());
        put_trace_ext(&mut self.buf, &ctx);
        seal_frame(&mut self.buf, self.start);
        self.buf
    }
}

/// Decodes a control frame, validating envelope, checksum, payload shape
/// and payload semantics. Every failure is a typed
/// [`Error::MalformedWire`]; the decoder never panics on hostile input.
///
/// This is [`decode_control_borrowed`] with any borrowed datagrams
/// copied out.
pub fn decode_control(data: &[u8]) -> Result<ControlFrame> {
    Ok(match decode_control_borrowed(data)? {
        ControlFrameRef::Other(frame) => frame,
        borrowed => borrowed.to_owned_frame(),
    })
}

fn expect_len(got: usize, want: usize) -> Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(Error::MalformedWire { reason: "control payload length mismatch", offset: got })
    }
}

/// Parses the optional trace extension from the bytes remaining after a
/// frame's fixed payload. Empty tail (an old peer) decodes to `None`;
/// anything else must be one well-formed extension.
fn decode_trace_ext(tail: &[u8]) -> Result<Option<TraceContext>> {
    TraceContext::decode_tail(tail)
        .map_err(|reason| Error::MalformedWire { reason, offset: CONTROL_HEADER })
}

/// A control frame decoded without copying payload bytes out of the
/// input buffer.
///
/// The two frame kinds that dominate a serving session's hot path —
/// [`ControlFrame::Snapshot`] and [`ControlFrame::SnapshotBatch`] — carry
/// raw snapshot datagrams that the session immediately re-parses with
/// [`decode`]. Copying every datagram into a fresh `Vec<u8>` first would
/// be pure overhead at hundreds of thousands of frames per second, so
/// this view keeps them as slices into the caller's read buffer instead.
/// Every other kind is decoded into its owned [`ControlFrame`] form
/// (control-plane frames are rare and tiny, so borrowing buys nothing
/// there).
///
/// [`decode_control`] is this decoder followed by
/// [`to_owned_frame`](ControlFrameRef::to_owned_frame), so the two accept
/// and reject exactly the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrameRef<'a> {
    /// Kind 2: one snapshot datagram, borrowed from the input buffer.
    Snapshot {
        /// Raw datagram bytes, valid for the life of the input buffer.
        wire: &'a [u8],
        /// Optional distributed-trace context.
        ctx: Option<TraceContext>,
    },
    /// Kind 8: a batch of snapshot datagrams, each borrowed from the
    /// input buffer.
    SnapshotBatch {
        /// Raw datagram byte slices, in arrival order.
        wires: Vec<&'a [u8]>,
        /// Optional distributed-trace context.
        ctx: Option<TraceContext>,
    },
    /// Any other frame kind, decoded exactly as [`decode_control`] would.
    Other(ControlFrame),
}

impl ControlFrameRef<'_> {
    /// Converts the borrowed view into the owning [`ControlFrame`],
    /// copying any borrowed datagram bytes.
    pub fn to_owned_frame(&self) -> ControlFrame {
        match self {
            ControlFrameRef::Snapshot { wire, ctx } => {
                ControlFrame::Snapshot { wire: wire.to_vec(), ctx: *ctx }
            }
            ControlFrameRef::SnapshotBatch { wires, ctx } => ControlFrame::SnapshotBatch {
                wires: wires.iter().map(|w| w.to_vec()).collect(),
                ctx: *ctx,
            },
            ControlFrameRef::Other(frame) => frame.clone(),
        }
    }
}

/// Zero-copy decoder of control frames: checks the envelope (magic,
/// version, checksum) once, returns snapshot payloads as slices
/// borrowing from `data`, and parses every other kind into its owned
/// form.
pub fn decode_control_borrowed(data: &[u8]) -> Result<ControlFrameRef<'_>> {
    if data.len() < CONTROL_HEADER + CONTROL_TRAILER {
        return Err(Error::MalformedWire { reason: "truncated control frame", offset: data.len() });
    }
    let (body, trailer) = data.split_at(data.len() - CONTROL_TRAILER);
    let mut rest = body;
    let magic = u32::from_be_bytes(take(&mut rest));
    if magic != CONTROL_MAGIC {
        return Err(Error::MalformedWire { reason: "bad control magic", offset: 0 });
    }
    let version = u16::from_be_bytes(take(&mut rest));
    if version != CONTROL_VERSION {
        return Err(Error::MalformedWire { reason: "unsupported control version", offset: 4 });
    }
    let mut stored = [0u8; CONTROL_TRAILER];
    stored.copy_from_slice(trailer);
    if u64::from_le_bytes(stored) != crc64(body) {
        return Err(Error::MalformedWire {
            reason: "control checksum mismatch",
            offset: body.len(),
        });
    }
    let kind = u8::from_be_bytes(take(&mut rest));
    match kind {
        KIND_SNAPSHOT => {
            let wire = take_datagram(&mut rest, "truncated snapshot payload")?;
            Ok(ControlFrameRef::Snapshot { wire, ctx: decode_trace_ext(rest)? })
        }
        KIND_SNAPSHOT_BATCH => {
            if rest.len() < 2 {
                return Err(Error::MalformedWire {
                    reason: "truncated batch payload",
                    offset: CONTROL_HEADER,
                });
            }
            let count = u16::from_be_bytes(take(&mut rest)) as usize;
            if count > MAX_SNAPSHOT_BATCH {
                return Err(Error::MalformedWire {
                    reason: "oversized snapshot batch",
                    offset: CONTROL_HEADER,
                });
            }
            let mut wires = Vec::with_capacity(count);
            for _ in 0..count {
                wires.push(take_datagram(&mut rest, "truncated batch item")?);
            }
            Ok(ControlFrameRef::SnapshotBatch { wires, ctx: decode_trace_ext(rest)? })
        }
        _ => decode_other(kind, rest).map(ControlFrameRef::Other),
    }
}

/// Splits the `N` bytes of one fixed-size field off the front of `rest`.
///
/// # Panics
///
/// Panics if `rest` is shorter than `N`. Every caller checks the length
/// first, which keeps the decoders panic-free on any input.
fn take<const N: usize>(rest: &mut &[u8]) -> [u8; N] {
    let (field, tail) = rest.split_first_chunk().expect("length checked by the caller");
    *rest = tail;
    *field
}

/// Splits one length-prefixed datagram off the front of `rest`.
/// `truncated` names the payload in the error when `rest` runs short.
fn take_datagram<'a>(rest: &mut &'a [u8], truncated: &'static str) -> Result<&'a [u8]> {
    if rest.len() < 2 {
        return Err(Error::MalformedWire { reason: truncated, offset: CONTROL_HEADER });
    }
    let len = u16::from_be_bytes(take(rest)) as usize;
    if len > WIRE_SIZE {
        return Err(Error::MalformedWire {
            reason: "oversized snapshot payload",
            offset: CONTROL_HEADER,
        });
    }
    if rest.len() < len {
        return Err(Error::MalformedWire { reason: truncated, offset: CONTROL_HEADER });
    }
    let (wire, tail) = rest.split_at(len);
    *rest = tail;
    Ok(wire)
}

/// Parses the payload of every kind the borrowed decoder does not keep
/// borrowed. The envelope has already been checked.
fn decode_other(kind: u8, mut rest: &[u8]) -> Result<ControlFrame> {
    let frame = match kind {
        1 => {
            expect_len(rest.len(), 12)?;
            ControlFrame::Hello {
                session: u32::from_be_bytes(take(&mut rest)),
                model_id: u64::from_be_bytes(take(&mut rest)),
            }
        }
        3 => ControlFrame::Classify { ctx: decode_trace_ext(rest)? },
        4 => {
            if rest.len() < 1 + 8 + 5 * 8 + 8 {
                return Err(Error::MalformedWire {
                    reason: "truncated verdict payload",
                    offset: CONTROL_HEADER,
                });
            }
            let class = u8::from_be_bytes(take(&mut rest));
            if class >= 5 {
                return Err(Error::MalformedWire {
                    reason: "bad verdict class code",
                    offset: CONTROL_HEADER,
                });
            }
            let confidence = f64::from_be_bytes(take(&mut rest));
            let mut composition = [0.0; 5];
            for slot in &mut composition {
                *slot = f64::from_be_bytes(take(&mut rest));
            }
            if !confidence.is_finite() || composition.iter().any(|f| !f.is_finite()) {
                return Err(Error::MalformedWire {
                    reason: "non-finite verdict value",
                    offset: CONTROL_HEADER + 1,
                });
            }
            let model = u64::from_be_bytes(take(&mut rest));
            ControlFrame::Verdict {
                class,
                confidence,
                composition,
                model,
                ctx: decode_trace_ext(rest)?,
            }
        }
        5 => {
            if rest.len() < 10 * 8 + 4 + 2 {
                return Err(Error::MalformedWire {
                    reason: "truncated health payload",
                    offset: CONTROL_HEADER,
                });
            }
            let mut h = TelemetryHealth {
                seen: u64::from_be_bytes(take(&mut rest)),
                accepted: u64::from_be_bytes(take(&mut rest)),
                repaired: u64::from_be_bytes(take(&mut rest)),
                dropped: u64::from_be_bytes(take(&mut rest)),
                duplicates: u64::from_be_bytes(take(&mut rest)),
                reordered: u64::from_be_bytes(take(&mut rest)),
                gaps: u64::from_be_bytes(take(&mut rest)),
                missed_frames: u64::from_be_bytes(take(&mut rest)),
                values_patched: u64::from_be_bytes(take(&mut rest)),
                malformed: u64::from_be_bytes(take(&mut rest)),
                dead_metrics: Vec::new(),
                max_repair_streak: u32::from_be_bytes(take(&mut rest)),
            };
            let ndead = u16::from_be_bytes(take(&mut rest)) as usize;
            if ndead > METRIC_COUNT {
                return Err(Error::MalformedWire {
                    reason: "too many dead metrics",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), 2 * ndead)?;
            let mut prev: Option<u16> = None;
            for _ in 0..ndead {
                let m = u16::from_be_bytes(take(&mut rest));
                if m as usize >= METRIC_COUNT || prev.is_some_and(|p| p >= m) {
                    return Err(Error::MalformedWire {
                        reason: "bad dead-metric list",
                        offset: CONTROL_HEADER,
                    });
                }
                prev = Some(m);
                h.dead_metrics.push(m as usize);
            }
            ControlFrame::Health(h)
        }
        6 => {
            expect_len(rest.len(), 1)?;
            let reason = ByeReason::from_code(u8::from_be_bytes(take(&mut rest)))
                .ok_or(Error::MalformedWire { reason: "bad bye reason", offset: CONTROL_HEADER })?;
            ControlFrame::Bye { reason }
        }
        7 => {
            if rest.len() < 4 {
                return Err(Error::MalformedWire {
                    reason: "truncated stats payload",
                    offset: CONTROL_HEADER,
                });
            }
            let len = u32::from_be_bytes(take(&mut rest)) as usize;
            if len > MAX_STATS_TEXT {
                return Err(Error::MalformedWire {
                    reason: "oversized stats payload",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), len)?;
            let text = std::str::from_utf8(rest)
                .map_err(|_| Error::MalformedWire {
                    reason: "stats payload not utf-8",
                    offset: CONTROL_HEADER + 4,
                })?
                .to_string();
            ControlFrame::Stats { text }
        }
        9 => {
            if rest.len() < 2 {
                return Err(Error::MalformedWire {
                    reason: "truncated batch payload",
                    offset: CONTROL_HEADER,
                });
            }
            let count = u16::from_be_bytes(take(&mut rest)) as usize;
            if count > MAX_SNAPSHOT_BATCH {
                return Err(Error::MalformedWire {
                    reason: "oversized verdict batch",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), count)?;
            let mut statuses = Vec::with_capacity(count);
            for _ in 0..count {
                let code = u8::from_be_bytes(take(&mut rest));
                let status = FrameDisposition::from_code(code).ok_or(Error::MalformedWire {
                    reason: "bad disposition code",
                    offset: CONTROL_HEADER,
                })?;
                statuses.push(status);
            }
            ControlFrame::VerdictBatch { statuses }
        }
        10 => {
            if rest.len() < 4 {
                return Err(Error::MalformedWire {
                    reason: "truncated swap payload",
                    offset: CONTROL_HEADER,
                });
            }
            let len = u32::from_be_bytes(take(&mut rest)) as usize;
            if len > MAX_MODEL_JSON {
                return Err(Error::MalformedWire {
                    reason: "oversized swap payload",
                    offset: CONTROL_HEADER,
                });
            }
            expect_len(rest.len(), len)?;
            let json = std::str::from_utf8(rest)
                .map_err(|_| Error::MalformedWire {
                    reason: "swap payload not utf-8",
                    offset: CONTROL_HEADER + 4,
                })?
                .to_string();
            ControlFrame::SwapModel { json }
        }
        11 => {
            expect_len(rest.len(), 16)?;
            ControlFrame::SwapAck {
                old_model: u64::from_be_bytes(take(&mut rest)),
                new_model: u64::from_be_bytes(take(&mut rest)),
            }
        }
        12 => {
            expect_len(rest.len(), 4)?;
            ControlFrame::Busy { retry_after_ms: u32::from_be_bytes(take(&mut rest)) }
        }
        _ => {
            return Err(Error::MalformedWire { reason: "unknown control kind", offset: 6 });
        }
    };
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricId;
    use proptest::prelude::*;

    fn snapshot() -> Snapshot {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, 42.25);
        f.set(MetricId::SwapOut, 1234.5);
        Snapshot::new(NodeId(7), 12345, f)
    }

    /// Closes a hand-built frame body with the control checksum.
    fn seal(buf: &mut Vec<u8>) {
        seal_frame(buf, 0);
    }

    #[test]
    fn crc64_check_value() {
        // The catalogued CRC-64/XZ check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    /// Bit-at-a-time CRC-64/XZ: the definition both fast paths must match.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc ^= u64::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    /// The slicing-by-8 table path alone, with init and xorout.
    fn crc64_table(bytes: &[u8]) -> u64 {
        !crc64_slicing(!0, bytes)
    }

    /// Deterministic bytes with no short period.
    fn scrambled(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect()
    }

    #[test]
    fn crc64_slicing_matches_bitwise_reference() {
        let data = scrambled(300);
        for len in 0..data.len() {
            assert_eq!(crc64_table(&data[..len]), crc64_bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc64_fold_constants_match_check_values() {
        assert_eq!(crc64_xpow(127), 0xdabe_95af_c787_5f40);
        assert_eq!(crc64_xpow(191), 0xe05d_d497_ca39_3ae4);
        assert_eq!(crc64_xpow(1023), 0xd7d8_6b2a_f73d_e740);
        assert_eq!(crc64_xpow(1087), 0x8757_d71d_4fcc_1000);
    }

    #[test]
    fn crc64_dispatch_matches_table_and_reference_at_every_length_and_offset() {
        // Every start offset within a 16-byte block, every length across
        // the 128-byte fold threshold, several 128-byte fold steps and
        // every tail length.
        let data = scrambled(1100 + 15);
        for start in 0..16 {
            for len in 0..=1100 {
                let bytes = &data[start..start + len];
                let want = crc64_bitwise(bytes);
                assert_eq!(crc64_table(bytes), want, "table, start {start}, len {len}");
                assert_eq!(crc64(bytes), want, "dispatched, start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc64_dispatch_matches_table_on_full_batches() {
        let ctx = TraceContext { trace_id: 9, parent_span: 4, flags: 1 };
        for ctx in [None, Some(ctx)] {
            let mut batch = SnapshotBatchWriter::new(Vec::new());
            for i in 0..MAX_SNAPSHOT_BATCH {
                let mut f = MetricFrame::zeroed();
                f.set(MetricId::CpuUser, i as f64 * 0.75);
                f.set(MetricId::SwapOut, 1e6 / (i + 1) as f64);
                batch.push(&Snapshot::new(NodeId(i as u32), 5 * i as u64, f));
            }
            let frame = batch.finish(ctx);
            let body = &frame[..frame.len() - CONTROL_TRAILER];
            assert_eq!(crc64(body), crc64_table(body), "ctx {ctx:?}");
            assert_eq!(crc64(body), crc64_bitwise(body), "ctx {ctx:?}");
            assert_eq!(frame[body.len()..], crc64(body).to_le_bytes());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn crc64_dispatch_matches_table_on_any_input(
            data in prop::collection::vec(any::<u8>(), 0..=40_000),
            start in any::<usize>(),
        ) {
            let bytes = &data[start % (data.len() + 1)..];
            prop_assert_eq!(crc64(bytes), crc64_table(bytes));
        }
    }

    #[test]
    fn version_1_fnv_frame_is_refused_as_unsupported_version() {
        // A Hello exactly as a version-1 peer sealed it: FNV-1a trailer,
        // big-endian. It must be refused for its version, not its checksum.
        let mut buf = Vec::with_capacity(32);
        buf.extend_from_slice(&CONTROL_MAGIC.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.push(1); // Hello
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&0xDEAD_BEEF_u64.to_be_bytes());
        let checksum = fnv1a64(&buf);
        buf.extend_from_slice(&checksum.to_be_bytes());
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "unsupported control version", offset: 4 })
        ));
    }

    #[test]
    fn bursts_straddling_the_trailer_are_detected() {
        // An 8-byte burst over the last `j` payload bytes and the first
        // `8 - j` trailer bytes, where the corrupter picks those trailer
        // bytes to match the corrupted payload. Only the trailer's byte
        // order decides whether the untouched last `j` trailer bytes
        // still give it away: least significant byte first, they always
        // do; stored big-endian, some one-byte corruptions slip through.
        let frame = encode_control(&ControlFrame::Hello { session: 7, model_id: 0xDEAD_BEEF });
        let body_len = frame.len() - CONTROL_TRAILER;
        for j in 1..=2 {
            for pattern in 1u32..1 << (8 * j) {
                let mut forged = frame[..body_len].to_vec();
                for (k, b) in forged[body_len - j..].iter_mut().enumerate() {
                    *b ^= (pattern >> (8 * k)) as u8;
                }
                seal(&mut forged);
                forged[frame.len() - j..].copy_from_slice(&frame[frame.len() - j..]);
                assert!(decode_control(&forged).is_err(), "j {j}, pattern {pattern:#x}");
            }
        }
    }

    #[test]
    fn decode_error_offsets_are_fixed() {
        let good = encode(&snapshot()).to_vec();
        let offset_of = |bytes: &[u8]| match decode(bytes) {
            Err(Error::MalformedWire { offset, .. }) => offset,
            other => panic!("expected a malformed datagram, got {other:?}"),
        };
        assert_eq!(offset_of(&good[..100]), 100);
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert_eq!(offset_of(&bad), 0);
        let mut bad = good.clone();
        bad[5] ^= 1;
        assert_eq!(offset_of(&bad), 4);
        let mut bad = good.clone();
        bad[7] ^= 1;
        assert_eq!(offset_of(&bad), 6);
        for i in [0, 17, METRIC_COUNT - 1] {
            let mut bad = good.clone();
            bad[20 + i * 8..28 + i * 8].copy_from_slice(&f64::INFINITY.to_be_bytes());
            assert_eq!(offset_of(&bad), 20 + i * 8, "metric {i}");
        }
        // Trailing bytes past one announcement are ignored, as before.
        let mut long = good.clone();
        long.extend_from_slice(&[0xAB; 9]);
        assert_eq!(decode(&long).unwrap(), snapshot());
    }

    #[test]
    fn roundtrip() {
        let s = snapshot();
        let wire = encode(&s);
        assert_eq!(wire.len(), WIRE_SIZE);
        let back = decode(&wire).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_rejected() {
        let wire = encode(&snapshot());
        for cut in [0, 1, 10, WIRE_SIZE - 1] {
            let err = decode(&wire[..cut]).unwrap_err();
            assert!(matches!(err, Error::MalformedWire { .. }), "cut={cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = encode(&snapshot()).to_vec();
        wire[0] ^= 0xFF;
        assert!(matches!(decode(&wire), Err(Error::MalformedWire { reason: "bad magic", .. })));
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = encode(&snapshot()).to_vec();
        wire[5] = 99;
        assert!(matches!(
            decode(&wire),
            Err(Error::MalformedWire { reason: "unsupported version", .. })
        ));
    }

    #[test]
    fn corrupted_payload_nan_rejected() {
        let mut wire = encode(&snapshot()).to_vec();
        // Overwrite the first metric value with a NaN bit pattern.
        let nan = f64::NAN.to_be_bytes();
        wire[20..28].copy_from_slice(&nan);
        assert!(matches!(
            decode(&wire),
            Err(Error::MalformedWire { reason: "non-finite metric value", .. })
        ));
    }

    #[test]
    fn values_survive_exactly() {
        // Bit-exact round trip for awkward doubles.
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::BytesIn, f64::MIN_POSITIVE);
        f.set(MetricId::BytesOut, 1.0e308);
        f.set(MetricId::LoadOne, -0.0);
        let s = Snapshot::new(NodeId(u32::MAX), u64::MAX, f);
        let back = decode(&encode(&s)).unwrap();
        assert_eq!(back.node, NodeId(u32::MAX));
        assert_eq!(back.time, u64::MAX);
        assert_eq!(back.frame.get(MetricId::BytesOut), 1.0e308);
        assert!(back.frame.get(MetricId::LoadOne).to_bits() == (-0.0f64).to_bits());
    }

    // --- Control frames ---------------------------------------------------

    fn control_samples() -> Vec<ControlFrame> {
        let health = TelemetryHealth {
            seen: 120,
            accepted: 100,
            repaired: 10,
            dropped: 10,
            dead_metrics: vec![3, 17],
            max_repair_streak: 4,
            ..TelemetryHealth::default()
        };
        let traced = TraceContext { trace_id: 0xAB54_A98C_EB1F_0AD2, parent_span: 7, flags: 1 };
        vec![
            ControlFrame::Hello { session: 7, model_id: 0xDEAD_BEEF },
            ControlFrame::Snapshot { wire: encode(&snapshot()).to_vec(), ctx: None },
            ControlFrame::Snapshot { wire: Vec::new(), ctx: None },
            ControlFrame::Snapshot { wire: encode(&snapshot()).to_vec(), ctx: Some(traced) },
            ControlFrame::Classify { ctx: None },
            ControlFrame::Classify { ctx: Some(traced) },
            ControlFrame::Classify {
                ctx: Some(TraceContext { trace_id: u64::MAX, parent_span: 0, flags: 0 }),
            },
            ControlFrame::Verdict {
                class: 2,
                confidence: 0.875,
                composition: [0.0, 0.125, 0.875, 0.0, 0.0],
                model: 0x1234_5678_9ABC_DEF0,
                ctx: None,
            },
            ControlFrame::Verdict {
                class: 2,
                confidence: 0.875,
                composition: [0.0, 0.125, 0.875, 0.0, 0.0],
                model: 0x1234_5678_9ABC_DEF0,
                ctx: Some(traced),
            },
            ControlFrame::Health(health),
            ControlFrame::Stats { text: String::new() },
            ControlFrame::Stats {
                text: "classify_total 3\nlatency{quantile=\"0.5\"} 1023 µs\n".to_string(),
            },
            ControlFrame::Bye { reason: ByeReason::FrameBudget },
            ControlFrame::SnapshotBatch { wires: Vec::new(), ctx: None },
            ControlFrame::SnapshotBatch {
                wires: vec![
                    encode(&snapshot()).to_vec(),
                    Vec::new(),
                    encode(&snapshot())[..40].to_vec(),
                ],
                ctx: None,
            },
            ControlFrame::SnapshotBatch {
                wires: vec![encode(&snapshot()).to_vec()],
                ctx: Some(traced),
            },
            ControlFrame::VerdictBatch { statuses: Vec::new() },
            ControlFrame::VerdictBatch {
                statuses: vec![
                    FrameDisposition::Accepted,
                    FrameDisposition::Repaired,
                    FrameDisposition::Dropped,
                    FrameDisposition::Malformed,
                    FrameDisposition::Expired,
                ],
            },
            ControlFrame::SwapModel { json: String::new() },
            ControlFrame::SwapModel { json: "{\"preprocessor\":{},\"knn\":{}}".to_string() },
            ControlFrame::SwapAck { old_model: 0xDEAD_BEEF, new_model: 0xFEED_FACE },
            ControlFrame::Busy { retry_after_ms: 0 },
            ControlFrame::Busy { retry_after_ms: 250 },
            ControlFrame::Busy { retry_after_ms: u32::MAX },
        ]
    }

    #[test]
    fn control_roundtrip_every_kind() {
        for frame in control_samples() {
            let bytes = encode_control(&frame);
            assert!(bytes.len() <= MAX_CONTROL_SIZE, "{} too big", frame.name());
            let back = decode_control(&bytes).unwrap_or_else(|e| panic!("{}: {e}", frame.name()));
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn borrowed_decode_matches_owning_decode_every_kind() {
        for frame in control_samples() {
            let bytes = encode_control(&frame);
            let borrowed =
                decode_control_borrowed(&bytes).unwrap_or_else(|e| panic!("{}: {e}", frame.name()));
            assert_eq!(borrowed.to_owned_frame(), frame);
        }
    }

    #[test]
    fn borrowed_decode_rejects_exactly_what_owning_decode_rejects() {
        for frame in control_samples() {
            let bytes = encode_control(&frame).to_vec();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                assert_eq!(
                    decode_control(&bad).is_err(),
                    decode_control_borrowed(&bad).is_err(),
                    "{} flip at {i}: decoders must agree",
                    frame.name()
                );
            }
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_control(&bytes[..cut]).is_err(),
                    decode_control_borrowed(&bytes[..cut]).is_err(),
                    "{} cut at {cut}: decoders must agree",
                    frame.name()
                );
            }
        }
    }

    #[test]
    fn borrowed_snapshot_payload_points_into_input() {
        let wire = encode(&snapshot());
        let frame = ControlFrame::Snapshot { wire: wire.to_vec(), ctx: None };
        let bytes = encode_control(&frame);
        match decode_control_borrowed(&bytes).unwrap() {
            ControlFrameRef::Snapshot { wire: borrowed, ctx: None } => {
                assert_eq!(borrowed, &wire[..]);
                // The slice must alias the input buffer, not a copy.
                let input = bytes.as_ptr() as usize;
                let got = borrowed.as_ptr() as usize;
                assert!(got >= input && got < input + bytes.len());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn control_any_single_flip_is_detected() {
        for frame in control_samples() {
            let bytes = encode_control(&frame).to_vec();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                let err = decode_control(&bad)
                    .expect_err(&format!("{} flip at {i} must not decode", frame.name()));
                assert!(matches!(err, Error::MalformedWire { .. }), "{err}");
            }
        }
    }

    #[test]
    fn control_truncation_is_detected() {
        let bytes = encode_control(&ControlFrame::Hello { session: 1, model_id: 2 });
        for cut in 0..bytes.len() {
            assert!(decode_control(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn control_rejects_semantic_garbage() {
        // A well-checksummed frame with a bad class code must still fail.
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 4); // Verdict
        buf.push(9); // class out of range
        buf.extend_from_slice(&1.0f64.to_be_bytes());
        for _ in 0..5 {
            buf.extend_from_slice(&0.2f64.to_be_bytes());
        }
        buf.extend_from_slice(&1u64.to_be_bytes()); // model tag
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "bad verdict class code", .. })
        ));
    }

    #[test]
    fn stats_frame_rejects_bad_utf8() {
        // A well-checksummed Stats frame whose payload is not UTF-8.
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 7); // Stats
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "stats payload not utf-8", .. })
        ));
    }

    #[test]
    fn stats_frame_rejects_oversized_declared_length() {
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 7);
        buf.extend_from_slice(&((MAX_STATS_TEXT + 1) as u32).to_be_bytes());
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "oversized stats payload", .. })
        ));
    }

    #[test]
    fn stats_frame_at_max_size_roundtrips() {
        let frame = ControlFrame::Stats { text: "x".repeat(MAX_STATS_TEXT) };
        let bytes = encode_control(&frame);
        assert!(bytes.len() <= MAX_CONTROL_SIZE);
        assert_eq!(decode_control(&bytes).unwrap(), frame);
    }

    #[test]
    #[should_panic(expected = "MAX_STATS_TEXT")]
    fn stats_frame_over_max_panics_on_encode() {
        encode_control(&ControlFrame::Stats { text: "x".repeat(MAX_STATS_TEXT + 1) });
    }

    #[test]
    fn full_snapshot_batch_roundtrips_within_bounds() {
        let wires = vec![encode(&snapshot()).to_vec(); MAX_SNAPSHOT_BATCH];
        let frame = ControlFrame::SnapshotBatch {
            wires,
            ctx: Some(TraceContext { trace_id: 1, parent_span: 2, flags: 1 }),
        };
        let bytes = encode_control(&frame);
        assert!(bytes.len() <= MAX_CONTROL_SIZE, "full batch exceeds transport bound");
        assert_eq!(decode_control(&bytes).unwrap(), frame);
    }

    #[test]
    #[should_panic(expected = "MAX_SNAPSHOT_BATCH")]
    fn oversized_snapshot_batch_panics_on_encode() {
        encode_control(&ControlFrame::SnapshotBatch {
            wires: vec![Vec::new(); MAX_SNAPSHOT_BATCH + 1],
            ctx: None,
        });
    }

    #[test]
    fn traced_and_untraced_classify_differ_only_by_extension() {
        // An untraced frame is byte-identical to the pre-extension
        // encoding, so old peers keep decoding it; a traced one just
        // appends the extension before the trailer.
        let plain = encode_control(&ControlFrame::Classify { ctx: None });
        let traced = encode_control(&ControlFrame::Classify {
            ctx: Some(TraceContext { trace_id: 9, parent_span: 3, flags: 1 }),
        });
        assert_eq!(traced.len(), plain.len() + TRACE_EXT_LEN);
        assert_eq!(
            &traced[..plain.len() - CONTROL_TRAILER],
            &plain[..plain.len() - CONTROL_TRAILER]
        );
    }

    #[test]
    fn trace_extension_with_zero_trace_id_is_rejected() {
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 3); // Classify
        let mut ext = Vec::new();
        TraceContext { trace_id: 7, parent_span: 0, flags: 0 }.encode(&mut ext);
        ext[1..9].copy_from_slice(&0u64.to_le_bytes()); // forge trace_id = 0
        buf.extend_from_slice(&ext);
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "trace extension zero trace id", .. })
        ));
    }

    #[test]
    fn snapshot_batch_rejects_lying_counts() {
        // Well-checksummed frames whose declared counts/lengths disagree
        // with the actual payload must fail shape validation.
        let sealed = |mut buf: Vec<u8>| {
            seal(&mut buf);
            buf
        };
        // Declares 2 items, carries 1.
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 8);
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        assert!(matches!(
            decode_control(&sealed(buf)),
            Err(Error::MalformedWire { reason: "truncated batch item", .. })
        ));
        // Declares an item longer than the frame holds.
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 8);
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&50u16.to_be_bytes());
        buf.extend_from_slice(&[0xAB; 10]);
        assert!(matches!(
            decode_control(&sealed(buf)),
            Err(Error::MalformedWire { reason: "truncated batch item", .. })
        ));
        // Declares more batch items than the protocol allows.
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 8);
        buf.extend_from_slice(&((MAX_SNAPSHOT_BATCH + 1) as u16).to_be_bytes());
        assert!(matches!(
            decode_control(&sealed(buf)),
            Err(Error::MalformedWire { reason: "oversized snapshot batch", .. })
        ));
        // Trailing garbage after the declared items: too short to be a
        // trace extension, so the extension parser rejects it.
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 8);
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.push(0xCC);
        assert!(matches!(
            decode_control(&sealed(buf)),
            Err(Error::MalformedWire { reason: "trace extension length mismatch", .. })
        ));
    }

    #[test]
    fn swap_frame_rejects_oversized_declared_length() {
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 10); // SwapModel
        buf.extend_from_slice(&((MAX_MODEL_JSON + 1) as u32).to_be_bytes());
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "oversized swap payload", .. })
        ));
    }

    #[test]
    fn swap_frame_rejects_bad_utf8() {
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 10); // SwapModel
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "swap payload not utf-8", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "MAX_MODEL_JSON")]
    fn swap_frame_over_max_panics_on_encode() {
        encode_control(&ControlFrame::SwapModel { json: "x".repeat(MAX_MODEL_JSON + 1) });
    }

    #[test]
    fn verdict_batch_rejects_bad_disposition() {
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 9);
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.push(1);
        buf.push(7); // no such disposition
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "bad disposition code", .. })
        ));
    }

    #[test]
    fn disposition_codes_roundtrip() {
        for d in [
            FrameDisposition::Accepted,
            FrameDisposition::Repaired,
            FrameDisposition::Dropped,
            FrameDisposition::Malformed,
            FrameDisposition::Expired,
        ] {
            assert_eq!(FrameDisposition::from_code(d.code()), Some(d));
        }
        assert_eq!(FrameDisposition::from_code(5), None);
    }

    #[test]
    fn busy_frame_truncation_at_every_byte_is_detected() {
        let bytes = encode_control(&ControlFrame::Busy { retry_after_ms: 1500 });
        for cut in 0..bytes.len() {
            assert!(decode_control(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn busy_frame_rejects_padded_payload() {
        // A well-checksummed Busy whose payload is longer than the u32
        // hint must fail shape validation, not decode loosely.
        let mut buf = Vec::with_capacity(64);
        open_frame(&mut buf, 12); // Busy
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.push(0); // trailing garbage
        seal(&mut buf);
        assert!(matches!(
            decode_control(&buf),
            Err(Error::MalformedWire { reason: "control payload length mismatch", .. })
        ));
    }

    #[test]
    fn control_bye_reason_codes_roundtrip() {
        for reason in [
            ByeReason::Normal,
            ByeReason::Shutdown,
            ByeReason::SessionLimit,
            ByeReason::FrameBudget,
            ByeReason::Protocol,
            ByeReason::ModelMismatch,
        ] {
            assert_eq!(ByeReason::from_code(reason.code()), Some(reason));
            assert!(!reason.to_string().is_empty());
        }
        assert_eq!(ByeReason::from_code(99), None);
    }

    #[test]
    fn fnv_changes_on_any_flip() {
        let data = b"appclass control frame";
        let base = fnv1a64(data);
        for i in 0..data.len() {
            let mut d = data.to_vec();
            d[i] ^= 1;
            assert_ne!(fnv1a64(&d), base, "flip at {i}");
        }
    }
}
