//! Length-prefixed framing of [`ControlFrame`]s over a byte stream.
//!
//! TCP gives the service a byte pipe, not datagrams, so every control
//! frame travels as a big-endian `u32` length prefix followed by exactly
//! that many [`wire::encode_control`] bytes. Senders lay the prefix and
//! the frame down together in the buffer they write from
//! ([`append_frame`], or [`begin_batch`]/[`finish_batch`] for a
//! snapshot batch built item by item). The prefix is bounded by
//! [`MAX_FRAME_BYTES`]; a larger announcement is rejected *before* any
//! allocation, so a corrupt or hostile peer cannot make the server
//! buffer unbounded garbage.

use crate::error::{Result, ServeError};
use appclass_metrics::wire::{self, SnapshotBatchWriter, MAX_CONTROL_SIZE};
use appclass_metrics::ControlFrame;
use appclass_obs::TraceContext;
use std::io::{ErrorKind, Read, Write};

/// Hard cap on one framed message: the largest legal control frame.
pub const MAX_FRAME_BYTES: usize = MAX_CONTROL_SIZE;

/// Appends one control frame to `buf` as it travels on the stream:
/// length prefix, then the encoded frame, both written in place.
pub fn append_frame(buf: &mut Vec<u8>, frame: &ControlFrame) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    wire::encode_control_into(frame, buf);
    patch_prefix(buf, at);
}

/// Writes one control frame (length prefix + encoded bytes) with a
/// single `write_all`, and flushes.
pub fn write_frame<W: Write>(w: &mut W, frame: &ControlFrame) -> Result<()> {
    let mut buf = Vec::new();
    append_frame(&mut buf, frame);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Starts a length-prefixed `SnapshotBatch` frame in `buf`, discarding
/// its contents but keeping its allocation. Push the items, then seal
/// with [`finish_batch`].
pub fn begin_batch(mut buf: Vec<u8>) -> SnapshotBatchWriter {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    SnapshotBatchWriter::new(buf)
}

/// Seals a batch opened by [`begin_batch`] and fills in its length
/// prefix; the returned buffer is the frame exactly as it goes on the
/// stream.
pub fn finish_batch(batch: SnapshotBatchWriter, ctx: Option<TraceContext>) -> Vec<u8> {
    let mut buf = batch.finish(ctx);
    patch_prefix(&mut buf, 0);
    buf
}

/// Fills the 4-byte length prefix at `at` with the size of what follows.
fn patch_prefix(buf: &mut [u8], at: usize) {
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Reads one control frame, blocking until it arrives: the length
/// prefix, a check against [`MAX_FRAME_BYTES`] before anything is
/// allocated, then the body. A stream that ends before the frame does is
/// [`ServeError::ConnectionClosed`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<ControlFrame> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix).map_err(closed_at_eof)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::FrameTooLarge { size: len, max: MAX_FRAME_BYTES });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(closed_at_eof)?;
    Ok(wire::decode_control(&body)?)
}

fn closed_at_eof(e: std::io::Error) -> ServeError {
    match e.kind() {
        ErrorKind::UnexpectedEof => ServeError::ConnectionClosed,
        _ => ServeError::Io(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appclass_metrics::ByeReason;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let frames = [
            ControlFrame::Hello { session: 3, model_id: 99 },
            ControlFrame::Classify { ctx: None },
            ControlFrame::Bye { reason: ByeReason::Normal },
        ];
        let mut pipe = Vec::new();
        for f in &frames {
            write_frame(&mut pipe, f).unwrap();
        }
        let mut r = Cursor::new(pipe);
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut r), Err(ServeError::ConnectionClosed)));
    }

    /// The stream form of a frame: length prefix, then `encode_control`.
    fn prefixed(frame: &ControlFrame) -> Vec<u8> {
        let body = wire::encode_control(frame);
        let mut out = (body.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn batch_writer_is_byte_identical_to_the_owned_encoding() {
        use appclass_metrics::{MetricFrame, MetricId, NodeId, Snapshot};
        let snaps: Vec<Snapshot> = (0..wire::MAX_SNAPSHOT_BATCH as u64)
            .map(|i| {
                let mut f = MetricFrame::zeroed();
                f.set(MetricId::CpuUser, i as f64 * 0.5);
                f.set(MetricId::BytesIn, 1.0e6 - i as f64);
                Snapshot::new(NodeId(i as u32 % 7), 1000 + 5 * i, f)
            })
            .collect();
        let traced = TraceContext { trace_id: 0x1234_5678, parent_span: 9, flags: 1 };
        // A dirty, warm buffer: `begin_batch` must reuse it from scratch.
        let mut buf = vec![0xEE; 64];
        for n in [0, 1, 127, 128] {
            for ctx in [None, Some(traced)] {
                let mut batch = begin_batch(buf);
                for s in &snaps[..n] {
                    batch.push(s);
                }
                assert_eq!(batch.len(), n);
                buf = finish_batch(batch, ctx);
                let wires = snaps[..n].iter().map(|s| wire::encode(s).to_vec()).collect();
                let owned = prefixed(&ControlFrame::SnapshotBatch { wires, ctx });
                assert_eq!(buf, owned, "{n} items, ctx {ctx:?}");
            }
        }
    }

    #[test]
    fn appended_frames_are_the_prefixed_encodings_back_to_back() {
        let frames = [
            ControlFrame::Hello { session: 3, model_id: 99 },
            ControlFrame::VerdictBatch {
                statuses: vec![appclass_metrics::FrameDisposition::Dropped],
            },
            // The batch writer must start its checksum where this frame
            // starts, not at the front of the buffer.
            ControlFrame::SnapshotBatch { wires: vec![vec![0xAB; 40], Vec::new()], ctx: None },
            ControlFrame::Bye { reason: ByeReason::Normal },
        ];
        let mut buf = b"pending".to_vec();
        let mut want = buf.clone();
        for f in &frames {
            append_frame(&mut buf, f);
            want.extend_from_slice(&prefixed(f));
        }
        assert_eq!(buf, want);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut r), Err(ServeError::FrameTooLarge { .. })));
    }

    #[test]
    fn corrupt_body_is_a_typed_wire_error() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Classify { ctx: None }).unwrap();
        let last = pipe.len() - 1;
        pipe[last] ^= 0xFF; // break the checksum
        let mut r = Cursor::new(pipe);
        assert!(matches!(read_frame(&mut r), Err(ServeError::Wire(_))));
    }

    #[test]
    fn truncated_stream_is_connection_closed() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Hello { session: 1, model_id: 1 }).unwrap();
        pipe.truncate(pipe.len() - 3);
        let mut r = Cursor::new(pipe);
        assert!(matches!(read_frame(&mut r), Err(ServeError::ConnectionClosed)));
    }
}
