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

/// How many read timeouts mid-frame are tolerated before the peer is
/// declared gone. Timeouts *between* frames are normal (that is how the
/// session loop polls its shutdown flag); a peer that stalls in the
/// middle of a frame is broken. The wall-clock budget is therefore this
/// count times the socket's read timeout — the chaos suite's mid-frame
/// stalls are calibrated against exactly that product.
pub const MID_FRAME_TIMEOUT_BUDGET: u32 = 100;

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

/// Reads one control frame, blocking until it arrives.
pub fn read_frame<R: Read>(r: &mut R) -> Result<ControlFrame> {
    match read_frame_or_idle(r)? {
        Some(frame) => Ok(frame),
        // Only possible on sockets with a read timeout configured.
        None => Err(ServeError::Io(std::io::Error::from(ErrorKind::TimedOut))),
    }
}

/// Reads one control frame from a stream that may have a read timeout
/// configured. Returns `Ok(None)` when the timeout fired before *any*
/// byte of the next frame arrived — the idle case the server's session
/// loop uses to poll its shutdown flag. Once a frame has started, short
/// timeouts are retried (up to a budget) so a frame split across packets
/// is never torn.
pub fn read_frame_or_idle<R: Read>(r: &mut R) -> Result<Option<ControlFrame>> {
    Ok(read_frame_or_idle_timed(r)?.map(|(frame, _)| frame))
}

/// Like [`read_frame_or_idle`], but also reports *when the frame started
/// arriving* (the instant the first prefix byte was read). The session's
/// deadline budget is measured from that instant: a frame that trickled
/// in slowly — mid-frame stalls, a congested proxy — is already old by
/// the time it decodes, and the deadline layer can shed it before
/// spending classification work on it.
pub fn read_frame_or_idle_timed<R: Read>(
    r: &mut R,
) -> Result<Option<(ControlFrame, std::time::Instant)>> {
    let mut prefix = [0u8; 4];
    let arrival = match read_exact_or_idle(r, &mut prefix)? {
        Some(at) => at,
        None => return Ok(None),
    };
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ServeError::FrameTooLarge { size: len, max: MAX_FRAME_BYTES });
    }
    let mut body = vec![0u8; len];
    fill(r, &mut body, 0)?;
    Ok(Some((wire::decode_control(&body)?, arrival)))
}

/// Like `read_exact`, but returns `Ok(None)` if a read timeout fires
/// before the first byte; otherwise the instant the first byte arrived.
fn read_exact_or_idle<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Option<std::time::Instant>> {
    let mut got = 0usize;
    let mut arrival = None;
    let mut timeouts = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ServeError::ConnectionClosed),
            Ok(n) => {
                if arrival.is_none() {
                    arrival = Some(std::time::Instant::now());
                }
                got += n;
            }
            Err(e) if is_timeout(&e) && got == 0 => return Ok(None),
            Err(e) if is_timeout(&e) => {
                // Mid-prefix stalls draw on the same budget as mid-body
                // ones: every timeout after the first byte counts.
                timeouts += 1;
                if timeouts > MID_FRAME_TIMEOUT_BUDGET {
                    return Err(ServeError::Io(e));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(arrival)
}

/// Completes `buf` from offset `got`, retrying timeouts up to the
/// mid-frame budget.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], mut got: usize) -> Result<()> {
    let mut timeouts = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ServeError::ConnectionClosed),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                timeouts += 1;
                if timeouts > MID_FRAME_TIMEOUT_BUDGET {
                    return Err(ServeError::Io(e));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
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

    /// A reader that delivers its bytes one at a time, injecting
    /// `WouldBlock` "timeouts" — the shape of a peer trickling a frame
    /// through a stalled link, without needing a real socket or a real
    /// clock. `timeouts_per_byte` stalls uniformly before every byte
    /// after the first; `stall_at` injects one long burst of timeouts
    /// before the byte at that position.
    struct StutterReader {
        data: Vec<u8>,
        pos: usize,
        /// Timeouts still to fire before the next byte is delivered.
        pending_timeouts: u32,
        /// Timeouts to fire before *each* subsequent byte.
        timeouts_per_byte: u32,
        /// One-shot stall: `(byte index, timeout count)`.
        stall_at: Option<(usize, u32)>,
    }

    impl StutterReader {
        fn new(data: Vec<u8>, timeouts_per_byte: u32) -> Self {
            // The first byte is delivered eagerly (the idle path would
            // otherwise return `None`); stalls start mid-frame.
            StutterReader { data, pos: 0, pending_timeouts: 0, timeouts_per_byte, stall_at: None }
        }

        fn with_stall(mut self, at: usize, timeouts: u32) -> Self {
            self.stall_at = Some((at, timeouts));
            self
        }
    }

    impl Read for StutterReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if let Some((at, left)) = self.stall_at {
                if at == self.pos && left > 0 {
                    self.stall_at = Some((at, left - 1));
                    return Err(std::io::Error::from(ErrorKind::WouldBlock));
                }
            }
            if self.pending_timeouts > 0 {
                self.pending_timeouts -= 1;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            self.pending_timeouts = self.timeouts_per_byte;
            Ok(1)
        }
    }

    #[test]
    fn frame_split_across_stalled_reads_survives_under_the_budget() {
        // Every byte after the first is preceded by a timeout; the frame
        // is ~30 bytes, so the total stays far below the per-fill budget
        // and the frame must reassemble exactly.
        let mut pipe = Vec::new();
        let frame = ControlFrame::Hello { session: 9, model_id: 0xABCD };
        write_frame(&mut pipe, &frame).unwrap();
        let mut r = StutterReader::new(pipe, 1);
        let got = read_frame_or_idle(&mut r).unwrap();
        assert_eq!(got, Some(frame));
    }

    #[test]
    fn stall_exactly_at_the_budget_still_succeeds() {
        // A single mid-body stall of exactly `MID_FRAME_TIMEOUT_BUDGET`
        // timeouts is within contract: the frame must still reassemble.
        let mut pipe = Vec::new();
        let frame = ControlFrame::Hello { session: 5, model_id: 77 };
        write_frame(&mut pipe, &frame).unwrap();
        let mut r = StutterReader::new(pipe, 0).with_stall(10, MID_FRAME_TIMEOUT_BUDGET);
        let got = read_frame_or_idle(&mut r).unwrap();
        assert_eq!(got, Some(frame));
    }

    #[test]
    fn stall_one_past_the_budget_is_a_typed_error_not_a_panic() {
        // One more timeout than the budget mid-body and the reader gives
        // the peer up with a typed Io error — never a panic, never a
        // torn frame handed to the decoder.
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Hello { session: 5, model_id: 77 }).unwrap();
        let mut r = StutterReader::new(pipe, 0).with_stall(10, MID_FRAME_TIMEOUT_BUDGET + 1);
        let err = read_frame_or_idle(&mut r).expect_err("one past the budget must fail");
        match err {
            ServeError::Io(e) => assert!(is_timeout(&e), "unexpected kind: {e}"),
            other => panic!("expected a typed Io timeout, got {other}"),
        }
    }

    #[test]
    fn stall_in_the_length_prefix_is_budgeted_too() {
        // The stall lands inside the 4-byte prefix (after byte 0, so the
        // idle path is already past): same typed failure.
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &ControlFrame::Classify { ctx: None }).unwrap();
        let mut r = StutterReader::new(pipe, 0).with_stall(2, MID_FRAME_TIMEOUT_BUDGET + 1);
        let err = read_frame_or_idle(&mut r).expect_err("prefix stall past budget");
        assert!(matches!(err, ServeError::Io(_)), "typed Io expected, got {err}");
    }

    #[test]
    fn timed_reader_reports_an_arrival_instant() {
        let mut pipe = Vec::new();
        let frame = ControlFrame::Classify { ctx: None };
        write_frame(&mut pipe, &frame).unwrap();
        let before = std::time::Instant::now();
        let mut r = Cursor::new(pipe);
        let (got, arrival) = read_frame_or_idle_timed(&mut r).unwrap().unwrap();
        assert_eq!(got, frame);
        assert!(arrival >= before && arrival.elapsed() < std::time::Duration::from_secs(5));
    }
}
