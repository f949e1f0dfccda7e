//! Client side of the serving protocol.
//!
//! [`ServeClient`] speaks the handshake, streams monitoring snapshots,
//! and asks for verdicts. The snapshot path can be routed through a
//! [`FaultyChannel`] to emulate the degraded telemetry links of the
//! chaos suite: the channel mangles the *inner* snapshot (its values and
//! its datagram) while the checksummed session envelope stays intact, so
//! the server's [`FrameGuard`](appclass_metrics::FrameGuard) — not the
//! transport — absorbs the damage.

use crate::error::{Result, ServeError};
use crate::proto::{begin_batch, finish_batch, read_frame, write_frame};
use appclass_core::{AppClass, ClassComposition};
use appclass_metrics::faults::{FaultPlan, FaultyChannel};
use appclass_metrics::wire::{self, SnapshotBatchWriter};
use appclass_metrics::{ByeReason, ControlFrame, FrameDisposition, Snapshot, TelemetryHealth};
use appclass_obs::span::SpanName;
use appclass_obs::{fresh_trace_id, TraceContext, TraceScope, Tracer};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side knobs.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Model fingerprint the client requires; `0` accepts whatever the
    /// server serves.
    pub model_id: u64,
    /// Optional fault plan applied to every outgoing snapshot: its value
    /// faults (spikes, non-finite values), then its wire faults (drop,
    /// truncation, reordering, duplication) on the encoded datagram.
    pub chaos: Option<FaultPlan>,
    /// Optional span tracer. When set, the client mints a fresh trace id
    /// for the session, records `client_send` / `client_classify` spans
    /// under it, and stamps a [`TraceContext`] onto every outgoing
    /// snapshot / classify frame so the server's spans join the same
    /// trace. When `None`, frames are byte-identical to a pre-tracing
    /// client.
    pub tracer: Option<Tracer>,
}

/// A verdict as the client sees it, decoded back into core types.
#[derive(Debug, Clone)]
pub struct VerdictReport {
    /// The server's current majority class.
    pub class: AppClass,
    /// Confidence in that majority (degradation-discounted).
    pub confidence: f64,
    /// The full composition behind the majority.
    pub composition: ClassComposition,
    /// Fingerprint of the model version that produced this verdict —
    /// watching it flip is how a client observes a hot swap completing.
    pub model: u64,
    /// Trace id the server echoed back, when the request was traced and
    /// the server speaks the trace extension.
    pub trace: Option<u64>,
}

/// The client half of trace propagation: a tracer, the session's trace
/// id, and the pre-registered span names the hot paths stamp.
struct ClientTracing {
    tracer: Tracer,
    trace_id: u64,
    send_name: SpanName,
    classify_name: SpanName,
}

impl ClientTracing {
    /// Opens a span under the session's trace and returns the wire
    /// context stamped with it. Tuple order is load-bearing: the
    /// [`SpanGuard`](appclass_obs::SpanGuard) must drop *before* the
    /// [`TraceScope`] so the committed span still carries the trace id.
    fn stamp(&self, name: SpanName) -> (TraceContext, appclass_obs::SpanGuard, TraceScope) {
        let scope = TraceScope::enter(Some(self.trace_id));
        let guard = self.tracer.span(name);
        (TraceContext::new(self.trace_id).with_parent(guard.id()), guard, scope)
    }
}

/// Aggregate outcome of a batched stream: the per-item dispositions the
/// server acknowledged, folded into totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Datagrams put on the wire (after any chaos drops/duplications).
    pub sent: u64,
    /// `SnapshotBatch` frames those datagrams were coalesced into.
    pub batches: u64,
    /// Items the server's guard admitted untouched.
    pub accepted: u64,
    /// Items admitted after value repair.
    pub repaired: u64,
    /// Items the guard rejected (duplicate / unusable).
    pub dropped: u64,
    /// Items that failed to decode at the server.
    pub malformed: u64,
    /// Items the server shed unclassified because the batch overran its
    /// per-frame deadline budget.
    pub expired: u64,
}

/// One connected classification session.
pub struct ServeClient {
    /// The session's one socket; every frame is written to it, unbuffered,
    /// as one contiguous buffer.
    reader: BufReader<TcpStream>,
    session: u32,
    model_id: u64,
    chaos: Option<FaultyChannel>,
    tracing: Option<ClientTracing>,
    snapshots_sent: u64,
    busy_notices: u64,
    /// The `SnapshotBatch` frame buffer, kept warm across batches.
    batch_buf: Vec<u8>,
    /// Item counts of the batches awaiting their `VerdictBatch`, oldest
    /// first; kept across [`ServeClient::stream_batch`] calls.
    outstanding: VecDeque<u64>,
    /// The body of the last reply read, kept across reads.
    reply_buf: Vec<u8>,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient")
            .field("session", &self.session)
            .field("model_id", &self.model_id)
            .field("snapshots_sent", &self.snapshots_sent)
            .field("busy_notices", &self.busy_notices)
            .finish_non_exhaustive()
    }
}

impl ServeClient {
    /// Connects and runs the handshake; fails with
    /// [`ServeError::Rejected`] when the server refuses the session.
    pub fn connect<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        // The batch path is write-then-read per frame; Nagle holding the
        // request back until the previous segment's (delayed) ACK would
        // put a ~40 ms stall inside every round trip.
        stream.set_nodelay(true)?;
        let mut client = ServeClient {
            reader: BufReader::new(stream),
            session: 0,
            model_id: 0,
            chaos: config.chaos.map(FaultyChannel::new),
            tracing: config.tracer.map(|tracer| ClientTracing {
                trace_id: fresh_trace_id(),
                send_name: tracer.register("client_send"),
                classify_name: tracer.register("client_classify"),
                tracer,
            }),
            snapshots_sent: 0,
            busy_notices: 0,
            batch_buf: Vec::new(),
            outstanding: VecDeque::new(),
            reply_buf: Vec::new(),
        };
        write_frame(
            &mut client.writer(),
            &ControlFrame::Hello { session: 0, model_id: config.model_id },
        )?;
        match read_frame(&mut client.reader, &mut client.reply_buf)? {
            ControlFrame::Hello { session, model_id } => {
                client.session = session;
                client.model_id = model_id;
                Ok(client)
            }
            ControlFrame::Bye { reason } => Err(ServeError::Rejected { reason }),
            // A `Busy` in place of the `Hello` is the server shedding
            // load: a soft, retryable refusal carrying its own backoff
            // hint — [`crate::retry::connect_with_retry`] honors it.
            ControlFrame::Busy { retry_after_ms } => Err(ServeError::Busy { retry_after_ms }),
            other => Err(ServeError::UnexpectedFrame { expected: "Hello", got: other.name() }),
        }
    }

    /// The socket behind `reader`; `&TcpStream` implements `Write`.
    fn writer(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// The session id the server assigned.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The model fingerprint the server reported in its `Hello`.
    pub fn model_id(&self) -> u64 {
        self.model_id
    }

    /// The trace id this session stamps on outgoing frames, when the
    /// client was configured with a tracer.
    pub fn trace_id(&self) -> Option<u64> {
        self.tracing.as_ref().map(|t| t.trace_id)
    }

    /// Snapshot frames actually put on the wire so far (after any chaos
    /// drops).
    pub fn snapshots_sent(&self) -> u64 {
        self.snapshots_sent
    }

    /// Unsolicited `Busy` notices absorbed so far — one per snapshot the
    /// server shed past its deadline budget. A rising count is the
    /// client-side signal to slow its send rate.
    pub fn busy_notices(&self) -> u64 {
        self.busy_notices
    }

    /// Reads the next reply frame, absorbing (and counting) any
    /// unsolicited `Busy` notices the server interleaved — the deadline
    /// shed path acknowledges stale snapshots with them, and they are
    /// advisory, not the reply the caller is waiting for.
    fn read_reply(&mut self) -> Result<ControlFrame> {
        loop {
            match read_frame(&mut self.reader, &mut self.reply_buf)? {
                ControlFrame::Busy { .. } => self.busy_notices += 1,
                other => return Ok(other),
            }
        }
    }

    /// Sends one snapshot. With chaos configured it first crosses the
    /// fault channel, so its values may be spiked or corrupted and its
    /// datagram dropped, truncated, delayed (emerging with a later send)
    /// or duplicated.
    pub fn send_snapshot(&mut self, snapshot: &Snapshot) -> Result<()> {
        match &mut self.chaos {
            Some(chan) => {
                for delivered in chan.transmit_snapshot(snapshot) {
                    self.send_wire(delivered)?;
                }
            }
            // The owned `Snapshot` frame needs its payload in a `Vec`.
            None => self.send_wire(Vec::from(wire::datagram(snapshot)))?,
        }
        Ok(())
    }

    /// Streams a whole run of snapshots, then flushes anything the fault
    /// channel was still holding back.
    pub fn stream_snapshots(&mut self, snapshots: &[Snapshot]) -> Result<()> {
        for snap in snapshots {
            self.send_snapshot(snap)?;
        }
        if let Some(chan) = &mut self.chaos {
            for delivered in chan.drain() {
                self.send_wire(delivered)?;
            }
        }
        Ok(())
    }

    /// Streams a run of snapshots coalesced into `SnapshotBatch` frames
    /// of up to `max_batch` datagrams each (clamped to
    /// `1..=`[`wire::MAX_SNAPSHOT_BATCH`]), reading one `VerdictBatch`
    /// acknowledgement per frame. Each snapshot is encoded straight into
    /// the frame buffer. With chaos configured every snapshot crosses the
    /// fault channel first — corrupted, dropped, truncated, delayed or
    /// duplicated exactly as on the single-frame path — and whatever the
    /// channel delivers is what goes into the frame.
    ///
    /// Batching only changes the framing, never the classification:
    /// a [`ServeClient::classify`] after this returns a verdict bitwise
    /// identical to streaming the same snapshots one frame at a time.
    pub fn stream_batch(
        &mut self,
        snapshots: &[Snapshot],
        max_batch: usize,
    ) -> Result<BatchReport> {
        let cap = max_batch.clamp(1, wire::MAX_SNAPSHOT_BATCH);
        let mut report = BatchReport::default();
        // Acknowledgements a failed call left unread are not this call's.
        self.outstanding.clear();
        let mut batch = begin_batch(std::mem::take(&mut self.batch_buf));
        for snap in snapshots {
            match &mut self.chaos {
                Some(chan) => {
                    for delivered in chan.transmit_snapshot(snap) {
                        batch = self.make_room(batch, cap, &mut report)?;
                        batch.push_wire(&delivered);
                    }
                }
                None => {
                    batch = self.make_room(batch, cap, &mut report)?;
                    batch.push(snap);
                }
            }
        }
        if let Some(chan) = &mut self.chaos {
            for delivered in chan.drain() {
                batch = self.make_room(batch, cap, &mut report)?;
                batch.push_wire(&delivered);
            }
        }
        if !batch.is_empty() {
            self.batch_buf = self.send_batch(batch, &mut report)?;
        }
        while !self.outstanding.is_empty() {
            self.read_batch_ack(&mut report)?;
        }
        Ok(report)
    }

    /// How many batch frames may be in flight before the client blocks
    /// on the oldest acknowledgement. A small window keeps the server
    /// busy while the client encodes the next batch (one synchronous
    /// round trip per batch would spend most of the wall clock on
    /// scheduler ping-pong), yet bounds both sides' socket buffering so
    /// the two directions cannot deadlock against each other.
    const BATCH_WINDOW: usize = 4;

    /// Returns a batch with room for one more item: `batch` itself, or a
    /// fresh one in the same buffer once `batch` has been sent full.
    fn make_room(
        &mut self,
        batch: SnapshotBatchWriter,
        cap: usize,
        report: &mut BatchReport,
    ) -> Result<SnapshotBatchWriter> {
        if batch.len() < cap {
            return Ok(batch);
        }
        Ok(begin_batch(self.send_batch(batch, report)?))
    }

    /// Seals one batch and sends it as a single contiguous write,
    /// recording it as outstanding (collecting the oldest acknowledgement
    /// first if the pipeline window is full). Returns the frame buffer
    /// for the next batch.
    fn send_batch(
        &mut self,
        batch: SnapshotBatchWriter,
        report: &mut BatchReport,
    ) -> Result<Vec<u8>> {
        if self.outstanding.len() >= Self::BATCH_WINDOW {
            self.read_batch_ack(report)?;
        }
        let count = batch.len() as u64;
        let stamped = self.tracing.as_ref().map(|t| t.stamp(t.send_name));
        let frame = finish_batch(batch, stamped.as_ref().map(|s| s.0));
        self.writer().write_all(&frame)?;
        self.snapshots_sent += count;
        report.sent += count;
        report.batches += 1;
        self.outstanding.push_back(count);
        Ok(frame)
    }

    /// Reads the acknowledgement for the oldest outstanding batch and
    /// folds its dispositions into the report.
    fn read_batch_ack(&mut self, report: &mut BatchReport) -> Result<()> {
        let count = self.outstanding.pop_front().unwrap_or(0);
        match self.read_reply()? {
            ControlFrame::VerdictBatch { statuses } => {
                if statuses.len() as u64 != count {
                    return Err(ServeError::Handshake { reason: "batch ack count mismatch" });
                }
                for status in statuses {
                    match status {
                        FrameDisposition::Accepted => report.accepted += 1,
                        FrameDisposition::Repaired => report.repaired += 1,
                        FrameDisposition::Dropped => report.dropped += 1,
                        FrameDisposition::Malformed => report.malformed += 1,
                        FrameDisposition::Expired => report.expired += 1,
                    }
                }
                Ok(())
            }
            ControlFrame::Bye { reason } => Err(ServeError::Rejected { reason }),
            other => {
                Err(ServeError::UnexpectedFrame { expected: "VerdictBatch", got: other.name() })
            }
        }
    }

    fn send_wire(&mut self, bytes: Vec<u8>) -> Result<()> {
        let stamped = self.tracing.as_ref().map(|t| t.stamp(t.send_name));
        let ctx = stamped.as_ref().map(|s| s.0);
        write_frame(&mut self.writer(), &ControlFrame::Snapshot { wire: bytes, ctx })?;
        self.snapshots_sent += 1;
        Ok(())
    }

    /// Asks the server for its current verdict. With tracing enabled the
    /// whole round trip is one `client_classify` span and the request
    /// carries its id, so the server's `classify` span parents under it.
    pub fn classify(&mut self) -> Result<VerdictReport> {
        let stamped = self.tracing.as_ref().map(|t| t.stamp(t.classify_name));
        let ctx = stamped.as_ref().map(|s| s.0);
        write_frame(&mut self.writer(), &ControlFrame::Classify { ctx })?;
        match self.read_reply()? {
            ControlFrame::Verdict { class, confidence, composition, model, ctx } => {
                let class = AppClass::from_index(class as usize)
                    .ok_or(ServeError::Handshake { reason: "verdict class out of range" })?;
                let [idle, io, cpu, net, mem] = composition;
                let composition = ClassComposition::from_fractions(idle, io, cpu, net, mem)
                    .ok_or(ServeError::Handshake { reason: "verdict composition invalid" })?;
                let trace = ctx.map(|c| c.trace_id);
                Ok(VerdictReport { class, confidence, composition, model, trace })
            }
            ControlFrame::Bye { reason } => Err(ServeError::Rejected { reason }),
            other => Err(ServeError::UnexpectedFrame { expected: "Verdict", got: other.name() }),
        }
    }

    /// Asks the server to hot-swap its served model for the pipeline
    /// serialized in `json` (a `ClassifierPipeline::to_json` dump).
    /// Returns `(old_id, new_id)` from the server's acknowledgement;
    /// they are equal when the server already serves that model. On
    /// success the client adopts the new fingerprint as its own
    /// expectation.
    pub fn swap_model(&mut self, json: &str) -> Result<(u64, u64)> {
        write_frame(&mut self.writer(), &ControlFrame::SwapModel { json: json.to_string() })?;
        match self.read_reply()? {
            ControlFrame::SwapAck { old_model, new_model } => {
                self.model_id = new_model;
                Ok((old_model, new_model))
            }
            ControlFrame::Bye { reason } => Err(ServeError::Rejected { reason }),
            other => Err(ServeError::UnexpectedFrame { expected: "SwapAck", got: other.name() }),
        }
    }

    /// Asks the server for its metric exposition: the Prometheus-style
    /// text dump of the shared observability registry (empty when the
    /// server runs without observability).
    pub fn stats(&mut self) -> Result<String> {
        write_frame(&mut self.writer(), &ControlFrame::Stats { text: String::new() })?;
        match self.read_reply()? {
            ControlFrame::Stats { text } => Ok(text),
            ControlFrame::Bye { reason } => Err(ServeError::Rejected { reason }),
            other => Err(ServeError::UnexpectedFrame { expected: "Stats", got: other.name() }),
        }
    }

    /// Asks the server for the session's telemetry health report.
    pub fn health(&mut self) -> Result<TelemetryHealth> {
        write_frame(&mut self.writer(), &ControlFrame::Health(TelemetryHealth::default()))?;
        match self.read_reply()? {
            ControlFrame::Health(health) => Ok(health),
            ControlFrame::Bye { reason } => Err(ServeError::Rejected { reason }),
            other => Err(ServeError::UnexpectedFrame { expected: "Health", got: other.name() }),
        }
    }

    /// Ends the session cleanly; returns the server's farewell reason.
    pub fn bye(mut self) -> Result<ByeReason> {
        write_frame(&mut self.writer(), &ControlFrame::Bye { reason: ByeReason::Normal })?;
        match self.read_reply()? {
            ControlFrame::Bye { reason } => Ok(reason),
            other => Err(ServeError::UnexpectedFrame { expected: "Bye", got: other.name() }),
        }
    }
}
