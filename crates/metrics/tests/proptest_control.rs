//! Property tests of the control-frame codec that the serving protocol
//! rides on: arbitrary frames round-trip exactly, and — because every
//! frame carries a CRC-64 trailer — any byte flip, and any corruption
//! confined to 8 consecutive bytes, yields a typed `MalformedWire`
//! error, on small frames and on full 128-item batches alike. Never a
//! panic, never a silently wrong frame.

use appclass_metrics::wire::{
    decode_control, encode_control, MAX_CONTROL_SIZE, MAX_SNAPSHOT_BATCH, WIRE_SIZE,
};
use appclass_metrics::{ByeReason, ControlFrame, Error, TelemetryHealth, METRIC_COUNT};
use appclass_obs::trace::TRACE_EXT_LEN;
use appclass_obs::TraceContext;
use proptest::prelude::*;

/// One strategy covering all the frame kinds. The vendored proptest shim
/// has no `prop_oneof`, so a kind selector plus a pool of generic fields
/// is mapped into whichever variant the selector picks.
fn arb_frame() -> impl Strategy<Value = ControlFrame> {
    (
        (0u8..10, any::<u32>(), any::<u64>(), 0usize..=WIRE_SIZE),
        prop::collection::vec(any::<u8>(), WIRE_SIZE),
        (0u8..5, 0.0f64..1.0, prop::collection::vec(0.0f64..0.2, 5)),
        (prop::collection::vec(0u64..1_000_000, 10), 0u32..1000, 0u64..(1u64 << METRIC_COUNT)),
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<u8>()),
    )
        .prop_map(|(head, snap_bytes, verdict, health, trace)| {
            let (kind, session, model_id, snap_len) = head;
            let (class, confidence, comp) = verdict;
            let (counters, streak, dead_mask) = health;
            let (traced, trace_id, parent_span, flags) = trace;
            // Old peers send no extension at all, so ctx stays optional
            // in the strategy; zero is the wire sentinel for "absent"
            // and never a valid id.
            let ctx =
                traced.then_some(TraceContext { trace_id: trace_id.max(1), parent_span, flags });
            match kind {
                0 => ControlFrame::Hello { session, model_id },
                1 => ControlFrame::Snapshot { wire: snap_bytes[..snap_len].to_vec(), ctx },
                2 => ControlFrame::Classify { ctx },
                3 => ControlFrame::Verdict {
                    class,
                    confidence,
                    composition: [comp[0], comp[1], comp[2], comp[3], comp[4]],
                    model: model_id,
                    ctx,
                },
                6 => ControlFrame::SwapModel {
                    json: String::from_utf8_lossy(&snap_bytes[..snap_len]).into_owned(),
                },
                7 => ControlFrame::SwapAck { old_model: model_id, new_model: counters[0] },
                8 => ControlFrame::Busy { retry_after_ms: session },
                9 => ControlFrame::SnapshotBatch {
                    wires: snap_bytes.chunks(97).take(4).map(<[u8]>::to_vec).collect(),
                    ctx,
                },
                4 => ControlFrame::Health(TelemetryHealth {
                    seen: counters[0],
                    accepted: counters[1],
                    repaired: counters[2],
                    dropped: counters[3],
                    duplicates: counters[4],
                    reordered: counters[5],
                    gaps: counters[6],
                    missed_frames: counters[7],
                    values_patched: counters[8],
                    malformed: counters[9],
                    dead_metrics: (0..METRIC_COUNT).filter(|i| dead_mask >> i & 1 == 1).collect(),
                    max_repair_streak: streak,
                }),
                _ => ControlFrame::Bye {
                    reason: ByeReason::from_code((session % 6) as u8).expect("codes 0..6 valid"),
                },
            }
        })
}

/// A full 128-item snapshot batch, traced or not: a 36.6 KB frame whose
/// checksum runs the 128-byte fold loop hundreds of times, where
/// `arb_frame` stays under ~420 bytes.
fn arb_full_batch() -> impl Strategy<Value = ControlFrame> {
    (
        prop::collection::vec(any::<u8>(), MAX_SNAPSHOT_BATCH * WIRE_SIZE),
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<u8>()),
    )
        .prop_map(|(pool, (traced, trace_id, parent_span, flags))| {
            let ctx =
                traced.then_some(TraceContext { trace_id: trace_id.max(1), parent_span, flags });
            let wires = pool.chunks(WIRE_SIZE).map(<[u8]>::to_vec).collect();
            ControlFrame::SnapshotBatch { wires, ctx }
        })
}

/// The same frame as an old (pre-extension) peer would send it.
fn strip_ctx(frame: &ControlFrame) -> ControlFrame {
    let mut bare = frame.clone();
    match &mut bare {
        ControlFrame::Snapshot { ctx, .. }
        | ControlFrame::Classify { ctx }
        | ControlFrame::Verdict { ctx, .. }
        | ControlFrame::SnapshotBatch { ctx, .. } => *ctx = None,
        _ => {}
    }
    bare
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn roundtrip_is_exact(frame in arb_frame()) {
        let bytes = encode_control(&frame);
        prop_assert!(bytes.len() <= MAX_CONTROL_SIZE);
        let back = decode_control(&bytes).unwrap();
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn any_single_byte_flip_is_a_typed_error(
        frame in arb_frame(),
        pick in any::<usize>(),
        xor in 1u8..=255,
    ) {
        // The satellite claim, literally: flip ANY byte of ANY control
        // frame and the decoder must answer with MalformedWire. The
        // checksum trailer is what makes this total — unlike the raw
        // snapshot codec, there is no byte whose corruption slides
        // through as a different-but-valid frame.
        let mut bytes = encode_control(&frame).to_vec();
        let at = pick % bytes.len();
        bytes[at] ^= xor;
        match decode_control(&bytes) {
            Err(Error::MalformedWire { .. }) => {}
            Ok(decoded) => prop_assert!(false, "flip at {} decoded as {:?}", at, decoded),
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn any_burst_of_up_to_eight_bytes_is_a_typed_error(
        frame in arb_frame(),
        pick in any::<usize>(),
        first in 1u8..=255,
        rest in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        // A degree-64 CRC detects every error burst of up to 64 bits: XOR
        // any nonzero pattern into 1-8 consecutive bytes anywhere in the
        // frame (the trailer included) and the decode must fail, typed.
        let mut bytes = encode_control(&frame).to_vec();
        let width = 1 + rest.len();
        let at = pick % (bytes.len() - width + 1);
        bytes[at] ^= first;
        for (i, &x) in rest.iter().enumerate() {
            bytes[at + 1 + i] ^= x;
        }
        match decode_control(&bytes) {
            Err(Error::MalformedWire { .. }) => {}
            Ok(decoded) => prop_assert!(false, "burst at {} decoded as {:?}", at, decoded),
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn any_burst_in_a_full_batch_is_a_typed_error(
        frame in arb_full_batch(),
        pick in any::<usize>(),
        first in 1u8..=255,
        rest in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        // The same burst guarantee on the largest frames the relay sends,
        // which is where the checksum folds 128 bytes per step.
        let mut bytes = encode_control(&frame).to_vec();
        let width = 1 + rest.len();
        let at = pick % (bytes.len() - width + 1);
        bytes[at] ^= first;
        for (i, &x) in rest.iter().enumerate() {
            bytes[at + 1 + i] ^= x;
        }
        match decode_control(&bytes) {
            Err(Error::MalformedWire { .. }) => {}
            Ok(decoded) => prop_assert!(false, "burst at {} decoded as {:?}", at, decoded),
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn truncation_is_a_typed_error(frame in arb_frame(), pick in any::<usize>()) {
        let bytes = encode_control(&frame);
        let cut = pick % bytes.len();
        match decode_control(&bytes[..cut]) {
            Err(Error::MalformedWire { .. }) => {}
            other => prop_assert!(false, "truncated frame must be malformed, got {:?}", other),
        }
    }

    #[test]
    fn corruption_bursts_never_panic(
        frame in arb_frame(),
        hits in prop::collection::vec((any::<usize>(), any::<u8>()), 6),
        extend in 0usize..32,
    ) {
        // Bursts, garbage tails, anything — the decoder either proves
        // integrity or returns the typed error. (A burst can cancel
        // itself out: xor-ing the same byte twice restores it, so a
        // successful decode must equal the original frame.)
        let mut bytes = encode_control(&frame).to_vec();
        for &(pick, xor) in &hits {
            let at = pick % bytes.len();
            bytes[at] ^= xor;
        }
        bytes.extend(std::iter::repeat_n(0x5A, extend));
        match decode_control(&bytes) {
            Ok(back) => {
                prop_assert_eq!(back, frame, "corrupt bytes may only decode to the original")
            }
            Err(Error::MalformedWire { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn trace_extension_is_backward_compatible(frame in arb_frame()) {
        // Old-peer compatibility, both directions: an untraced frame is
        // byte-identical to the pre-extension encoding (so old peers
        // keep decoding it), and a traced frame is exactly that
        // encoding plus one fixed-size extension before the trailer
        // (so stripping the context loses nothing else). An untraced
        // encoding always decodes with `ctx = None`.
        let bare = strip_ctx(&frame);
        let bare_bytes = encode_control(&bare);
        let bytes = encode_control(&frame);
        if bare == frame {
            prop_assert_eq!(&bytes[..], &bare_bytes[..]);
        } else {
            prop_assert_eq!(bytes.len(), bare_bytes.len() + TRACE_EXT_LEN);
        }
        let back = decode_control(&bare_bytes).unwrap();
        prop_assert_eq!(back, bare);
    }

    #[test]
    fn random_garbage_never_panics(
        pool in prop::collection::vec(any::<u8>(), MAX_CONTROL_SIZE),
        len in 0usize..=MAX_CONTROL_SIZE,
    ) {
        match decode_control(&pool[..len]) {
            Ok(_) | Err(Error::MalformedWire { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }
}
