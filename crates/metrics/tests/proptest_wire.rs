//! Property tests of the wire codec: arbitrary finite snapshots round-trip
//! bit-exactly, and arbitrary byte mutations never panic the decoder.

use appclass_metrics::wire::{decode, encode, WIRE_SIZE};
use appclass_metrics::{Error, MetricFrame, NodeId, Snapshot, METRIC_COUNT};
use proptest::prelude::*;

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (any::<u32>(), any::<u64>(), prop::collection::vec(-1.0e12f64..1.0e12, METRIC_COUNT)).prop_map(
        |(node, time, values)| {
            Snapshot::new(NodeId(node), time, MetricFrame::from_values(&values).unwrap())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_is_bit_exact(snap in arb_snapshot()) {
        let wire = encode(&snap);
        prop_assert_eq!(wire.len(), WIRE_SIZE);
        let back = decode(&wire).unwrap();
        prop_assert_eq!(back.node, snap.node);
        prop_assert_eq!(back.time, snap.time);
        for (a, b) in back.frame.as_slice().iter().zip(snap.frame.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(
        snap in arb_snapshot(),
        idx in 0usize..WIRE_SIZE,
        xor in 1u8..=255,
    ) {
        let mut wire = encode(&snap).to_vec();
        wire[idx] ^= xor;
        // Must either decode to *something* or return a typed error —
        // never panic. (Corruptions inside a double usually still decode;
        // header corruptions must be caught.)
        let _ = decode(&wire);
        if idx < 8 {
            // Magic/version corruption is always detected.
            prop_assert!(decode(&wire).is_err());
        }
    }

    #[test]
    fn truncation_never_panics(snap in arb_snapshot(), cut in 0usize..WIRE_SIZE) {
        let wire = encode(&snap);
        prop_assert!(decode(&wire[..cut]).is_err());
    }

    #[test]
    fn trailing_garbage_is_ignored(snap in arb_snapshot(), extra in 0usize..64) {
        // Datagrams can arrive padded; the decoder reads its fixed frame.
        let mut wire = encode(&snap).to_vec();
        wire.extend(std::iter::repeat_n(0xAB, extra));
        let back = decode(&wire).unwrap();
        prop_assert_eq!(back.node, snap.node);
    }

    #[test]
    fn multi_byte_corruption_never_panics_and_errors_are_typed(
        snap in arb_snapshot(),
        hits in prop::collection::vec((0usize..WIRE_SIZE, any::<u8>()), 8),
        cut in 0usize..WIRE_SIZE + 1,
    ) {
        // A burst of arbitrary byte mutations, then optional truncation —
        // the worst a lossy network can do to one datagram. The decoder
        // must either produce a snapshot or a typed MalformedWire error;
        // anything else (a panic, a different error class) is a bug.
        let mut wire = encode(&snap).to_vec();
        for &(idx, xor) in &hits {
            wire[idx] ^= xor;
        }
        wire.truncate(cut);
        match decode(&wire) {
            Ok(back) => {
                // Whatever decoded is safe downstream: exactly 33 finite
                // values and an intact header frame.
                prop_assert_eq!(back.frame.as_slice().len(), METRIC_COUNT);
                prop_assert!(back.frame.as_slice().iter().all(|v| v.is_finite()));
            }
            Err(Error::MalformedWire { offset, .. }) => {
                prop_assert!(offset <= WIRE_SIZE, "error offset {} points into the frame", offset);
            }
            Err(other) => prop_assert!(false, "wrong error class: {}", other),
        }
    }

    #[test]
    fn injected_non_finite_values_are_rejected(
        snap in arb_snapshot(),
        slot in 0usize..METRIC_COUNT,
        kind in 0u8..3,
        second in 0usize..METRIC_COUNT,
    ) {
        // Overwrite one encoded value with NaN / +inf / −inf: the decoder
        // refuses to hand non-finite data to the pipeline, and names the
        // first poisoned value even when a later one is poisoned too.
        let bad = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let mut wire = encode(&snap).to_vec();
        let at = 20 + 8 * slot;
        wire[at..at + 8].copy_from_slice(&bad.to_be_bytes());
        if second > slot {
            let later = 20 + 8 * second;
            wire[later..later + 8].copy_from_slice(&f64::NAN.to_be_bytes());
        }
        let err = decode(&wire).unwrap_err();
        prop_assert!(matches!(
            err,
            Error::MalformedWire { reason: "non-finite metric value", offset } if offset == at
        ));
    }
}
