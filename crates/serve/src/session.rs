//! Server-side session: one connection, one [`OnlineClassifier`] per
//! model *generation*.
//!
//! A session is the protocol state machine that sits between a TCP
//! stream and the classification core. The first frame must be a
//! `Hello` (versioned handshake + model fingerprint check against the
//! shared [`ModelSlot`]); after that the client streams `Snapshot`
//! frames and interleaves `Classify`, `Health`, `Stats`, `SwapModel`
//! and finally `Bye`. Every snapshot passes through the session's own
//! [`FrameGuard`] via `push_guarded`, so a client on a degraded
//! telemetry link degrades only its own verdicts.
//!
//! Sessions survive hot model swaps: the classifier is scoped to one
//! generation, the slot's epoch is polled between frames, and when the
//! served model changes the session folds the old generation's
//! telemetry into its outcome and rebuilds against the new pipeline on
//! the same connection. Verdicts carry the fingerprint of the model
//! that produced them, so a client watches its tags flip old → new.
//!
//! [`FrameGuard`]: appclass_metrics::FrameGuard

use crate::error::{Result, ServeError};
use crate::feed::{CompositionFeed, FeedEntry};
use crate::model::ModelSlot;
use crate::proto::{read_frame_or_idle, read_frame_or_idle_timed, write_frame};
use crate::stats::SessionOutcome;
use appclass_core::online::OnlineClassifier;
use appclass_core::ClassifierPipeline;
use appclass_metrics::{wire, ByeReason, ControlFrame, FrameDisposition, FrameVerdict};
use appclass_obs::span::SpanName;
use appclass_obs::{Counter, Histogram, Observability, TraceContext, TraceScope};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live observability handles for one session: registry counters
/// incremented as events happen (so a `Stats` exposition mid-session is
/// current, unlike [`SessionOutcome`] which is folded in at session
/// end), plus the degraded-once latch for flight recording.
struct SessionObs {
    obs: Observability,
    session_id: u32,
    frames_in: Counter,
    frames_repaired: Counter,
    frames_dropped: Counter,
    frames_malformed: Counter,
    frames_deadline_shed: Counter,
    classify_total: Counter,
    classify_latency: Histogram,
    swap_total: Counter,
    swap_latency: Histogram,
    /// Span stamped on every `Classify` round; when the request carried
    /// a [`TraceContext`] the span joins the client's trace.
    classify_span: SpanName,
    /// The flight recorder snapshots the *first* degraded frame of a
    /// session, not all of them — one incident per degradation episode
    /// keeps the bounded incident log useful.
    degraded_noted: bool,
}

impl SessionObs {
    fn new(obs: &Observability, session_id: u32) -> Self {
        SessionObs {
            frames_in: obs.registry.counter("serve_frames_in_total"),
            frames_repaired: obs.registry.counter("serve_frames_repaired_total"),
            frames_dropped: obs.registry.counter("serve_frames_dropped_total"),
            frames_malformed: obs.registry.counter("serve_frames_malformed_total"),
            frames_deadline_shed: obs.registry.counter("serve_deadline_shed_total"),
            classify_total: obs.registry.counter("serve_classify_total"),
            classify_latency: obs.registry.histogram("serve_classify_latency"),
            swap_total: obs.registry.counter("serve_model_swap_total"),
            swap_latency: obs.registry.histogram("serve_model_swap_latency"),
            classify_span: obs.tracer.register("classify"),
            obs: obs.clone(),
            session_id,
            degraded_noted: false,
        }
    }

    fn note_degraded(&mut self, what: &str) {
        if !self.degraded_noted {
            self.degraded_noted = true;
            self.obs
                .incident(&format!("session {}: first degraded frame ({what})", self.session_id));
        }
    }

    fn note_swap(&mut self, old: u64, new: u64, elapsed: std::time::Duration) {
        self.swap_total.inc();
        self.swap_latency.record(elapsed);
        // A swap opens a degradation window: every generation rebuild
        // discards windowed classifier state, so verdicts right after it
        // start from the honest "no idea" again. Flight-record it.
        self.obs.incident(&format!(
            "session {}: model swap {old:#018x} -> {new:#018x}",
            self.session_id
        ));
    }

    fn note_failure(&self, error: &ServeError) {
        self.obs.incident(&format!("session {} failed: {error}", self.session_id));
    }
}

/// Per-session policy knobs, fixed at server construction.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Maximum `Snapshot` frames one session may stream; beyond it the
    /// server ends the session with `Bye(FrameBudget)`.
    pub frame_budget: u64,
    /// Sliding-window length handed to the online classifier
    /// (`None` = full history).
    pub window: Option<usize>,
    /// Per-frame deadline budget, measured from the arrival of a
    /// snapshot frame's first envelope byte. A frame that is already
    /// older than this when fully read (trickled writes, mid-frame
    /// stalls, a queue the worker fell behind on) is *shed*: the server
    /// skips classification and acknowledges with a verdict-less
    /// `Busy` notice (single snapshots) or `Expired` dispositions
    /// (batches) instead of classifying stale telemetry. `None`
    /// disables shedding.
    pub deadline: Option<Duration>,
    /// The `retry_after_ms` hint carried by every `Busy` frame this
    /// session emits.
    pub busy_retry_after: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            frame_budget: 100_000,
            window: None,
            deadline: None,
            busy_retry_after: Duration::from_millis(100),
        }
    }
}

/// How a session ended, for the server's aggregate accounting.
#[derive(Debug)]
pub enum SessionEnd {
    /// The client said `Bye` (or the frame budget ran out) and the
    /// session drained cleanly.
    Clean(SessionOutcome),
    /// The server is shutting down; the session was drained with
    /// `Bye(Shutdown)`.
    Shutdown(SessionOutcome),
    /// The session died mid-protocol.
    Failed(SessionOutcome, ServeError),
}

/// How one model generation of a session ended: either the session is
/// over (mapping onto a [`SessionEnd`] arm), or the served model changed
/// and the caller should rebuild the classifier and keep going.
enum GenExit {
    Clean,
    Shutdown,
    Failed(ServeError),
    Rebuild,
}

/// Runs one admitted connection to completion.
///
/// `session_id` is echoed back in the server's `Hello`; `shutdown` is
/// polled whenever the stream goes idle (the stream must carry a read
/// timeout for that poll to ever fire). With `obs` present the session
/// traces its classify calls, mirrors frame/verdict counters into the
/// registry live, answers `Stats` frames with the exposition text, and
/// flight-records its first degraded frame, any model swap, and any
/// failure. With `feed` present the session publishes its classifier's
/// running verdict after every snapshot, for the cluster controller,
/// and retires its entry when it ends.
pub fn run_session(
    stream: TcpStream,
    session_id: u32,
    slot: &ModelSlot,
    config: SessionConfig,
    shutdown: &AtomicBool,
    obs: Option<&Observability>,
    feed: Option<&CompositionFeed>,
) -> SessionEnd {
    let mut sobs = obs.map(|o| SessionObs::new(o, session_id));
    let end = run_session_inner(stream, session_id, slot, config, shutdown, &mut sobs, feed);
    if let (SessionEnd::Failed(_, e), Some(s)) = (&end, &sobs) {
        s.note_failure(e);
    }
    if let Some(feed) = feed {
        feed.retire(session_id);
    }
    end
}

#[allow(clippy::too_many_arguments)]
fn run_session_inner(
    stream: TcpStream,
    session_id: u32,
    slot: &ModelSlot,
    config: SessionConfig,
    shutdown: &AtomicBool,
    sobs: &mut Option<SessionObs>,
    feed: Option<&CompositionFeed>,
) -> SessionEnd {
    let mut outcome = SessionOutcome::default();
    let reader = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return SessionEnd::Failed(outcome, e.into()),
    };
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(stream);

    // --- handshake -------------------------------------------------------
    match handshake(&mut reader, &mut writer, session_id, slot, shutdown) {
        Ok(()) => {}
        Err(e) => return SessionEnd::Failed(outcome, e),
    }

    // --- steady state, one classifier per model generation ---------------
    loop {
        // Pin the served pipeline for this generation; a concurrent swap
        // bumps the epoch, which the frame loop polls.
        let epoch = slot.epoch();
        let current = slot.current();
        let exit = run_generation(
            &mut reader,
            &mut writer,
            &current,
            epoch,
            slot,
            config,
            shutdown,
            sobs,
            &mut outcome,
            session_id,
            feed,
        );
        match exit {
            GenExit::Clean => return SessionEnd::Clean(outcome),
            GenExit::Shutdown => return SessionEnd::Shutdown(outcome),
            GenExit::Failed(e) => return SessionEnd::Failed(outcome, e),
            GenExit::Rebuild => continue,
        }
    }
}

/// Runs the frame loop against one pinned pipeline until the session
/// ends or the served model changes. The classifier lives only here;
/// every exit path folds its telemetry into `outcome` first.
#[allow(clippy::too_many_arguments)]
fn run_generation(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    pipeline: &Arc<ClassifierPipeline>,
    epoch: u64,
    slot: &ModelSlot,
    config: SessionConfig,
    shutdown: &AtomicBool,
    sobs: &mut Option<SessionObs>,
    outcome: &mut SessionOutcome,
    session_id: u32,
    feed: Option<&CompositionFeed>,
) -> GenExit {
    let model_id = pipeline.model_id();
    let mut classifier = match config.window {
        Some(w) => OnlineClassifier::with_window(pipeline, w),
        None => OnlineClassifier::new(pipeline),
    };
    if let Some(s) = sobs.as_ref() {
        classifier.set_tracer(s.obs.tracer.clone());
    }
    // Trace id last seen on this generation's telemetry stream (0 =
    // untraced), published with every feed entry so placement decisions
    // can link back to the originating trace.
    let mut last_trace: u64 = 0;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            let _ = write_frame(writer, &ControlFrame::Bye { reason: ByeReason::Shutdown });
            finish(outcome, &classifier);
            return GenExit::Shutdown;
        }
        if slot.epoch() != epoch {
            // Another session swapped the model out from under us; drain
            // this generation and rebuild on the same connection.
            finish(outcome, &classifier);
            return GenExit::Rebuild;
        }
        let (frame, arrival) = match read_frame_or_idle_timed(reader) {
            Ok(Some(pair)) => pair,
            Ok(None) => continue, // idle poll: loop re-checks the flags
            Err(ServeError::Wire(_)) => {
                // The session envelope itself is corrupt: the peers have
                // lost framing sync and cannot recover.
                let _ = write_frame(writer, &ControlFrame::Bye { reason: ByeReason::Protocol });
                classifier.note_malformed();
                finish(outcome, &classifier);
                return GenExit::Failed(ServeError::Handshake { reason: "framing lost" });
            }
            Err(e) => {
                finish(outcome, &classifier);
                return GenExit::Failed(e);
            }
        };
        match frame {
            ControlFrame::Snapshot { wire: bytes, ctx } => {
                // Adopt the propagated trace for this frame's processing:
                // every span the classifier records while the scope is
                // alive carries the client's trace id. The scope restores
                // the previous (no-trace) state on every exit from the
                // arm, so pooled worker threads never leak a trace.
                let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
                if let Some(c) = ctx {
                    last_trace = c.trace_id;
                }
                outcome.frames_in += 1;
                if let Some(s) = sobs.as_ref() {
                    s.frames_in.inc();
                }
                if outcome.frames_in > config.frame_budget {
                    let _ =
                        write_frame(writer, &ControlFrame::Bye { reason: ByeReason::FrameBudget });
                    finish(outcome, &classifier);
                    return GenExit::Clean;
                }
                // Deadline budget: a snapshot whose envelope took longer
                // than the per-frame deadline to arrive (trickle writes,
                // mid-frame stalls) is stale telemetry — shed it before
                // classification and tell the client with a verdict-less
                // `Busy` notice. Lone snapshots are fire-and-forget, so
                // the notice is unsolicited; the client read paths skip
                // and count it.
                if deadline_exceeded(&config, arrival) {
                    outcome.frames_deadline_shed += 1;
                    if let Some(s) = sobs.as_mut() {
                        s.frames_deadline_shed.inc();
                        s.note_degraded("deadline shed");
                    }
                    let notice = busy_frame(&config);
                    if let Err(e) = write_frame(writer, &notice) {
                        finish(outcome, &classifier);
                        return GenExit::Failed(e);
                    }
                    continue;
                }
                // The inner datagram crossed the client's (possibly
                // faulty) telemetry channel unprotected: decode failures
                // here are expected degradation, not protocol errors.
                match wire::decode(&bytes) {
                    Ok(snapshot) => match classifier.push_guarded(&snapshot) {
                        Ok(FrameVerdict::Repaired { .. }) => {
                            outcome.frames_repaired += 1;
                            if let Some(s) = sobs.as_mut() {
                                s.frames_repaired.inc();
                                s.note_degraded("repaired");
                            }
                        }
                        Ok(FrameVerdict::Dropped { .. }) => {
                            outcome.frames_dropped += 1;
                            if let Some(s) = sobs.as_mut() {
                                s.frames_dropped.inc();
                                s.note_degraded("dropped");
                            }
                        }
                        Ok(FrameVerdict::Accepted) => {}
                        Err(e) => {
                            finish(outcome, &classifier);
                            return GenExit::Failed(e.into());
                        }
                    },
                    Err(_) => {
                        outcome.frames_malformed += 1;
                        classifier.note_malformed();
                        if let Some(s) = sobs.as_mut() {
                            s.frames_malformed.inc();
                            s.note_degraded("malformed");
                        }
                    }
                }
                publish_feed(feed, session_id, &classifier, model_id, last_trace);
            }
            ControlFrame::SnapshotBatch { wires, ctx } => {
                let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
                if let Some(c) = ctx {
                    last_trace = c.trace_id;
                }
                // Every item counts toward the frame budget exactly as if
                // it had been streamed alone; a batch that would cross
                // the budget ends the session before any of it is
                // processed, mirroring the single-frame refusal.
                let n = wires.len() as u64;
                outcome.frames_in += n;
                if let Some(s) = sobs.as_ref() {
                    s.frames_in.add(n);
                }
                if outcome.frames_in > config.frame_budget {
                    let _ =
                        write_frame(writer, &ControlFrame::Bye { reason: ByeReason::FrameBudget });
                    finish(outcome, &classifier);
                    return GenExit::Clean;
                }
                // A batch past its deadline is shed whole: every item is
                // acknowledged `Expired` (the batch path already owes the
                // client one `VerdictBatch`, so the refusal rides the
                // normal ack) and nothing reaches the classifier.
                if deadline_exceeded(&config, arrival) {
                    outcome.frames_deadline_shed += n;
                    if let Some(s) = sobs.as_mut() {
                        s.frames_deadline_shed.add(n);
                        s.note_degraded("deadline shed");
                    }
                    let statuses = vec![FrameDisposition::Expired; wires.len()];
                    let reply = ControlFrame::VerdictBatch { statuses };
                    if let Err(e) = write_frame(writer, &reply) {
                        finish(outcome, &classifier);
                        return GenExit::Failed(e);
                    }
                    continue;
                }
                // Decode every datagram; failures become per-item
                // `Malformed` dispositions (expected degradation on a
                // faulty telemetry link, exactly like the single path).
                let mut statuses = vec![FrameDisposition::Malformed; wires.len()];
                let mut snapshots = Vec::with_capacity(wires.len());
                let mut decoded_slots = Vec::with_capacity(wires.len());
                let mut malformed = 0u64;
                for (i, bytes) in wires.iter().enumerate() {
                    match wire::decode(bytes) {
                        Ok(snapshot) => {
                            decoded_slots.push(i);
                            snapshots.push(snapshot);
                        }
                        Err(_) => {
                            malformed += 1;
                            classifier.note_malformed();
                        }
                    }
                }
                // One batched pass through guard + dataflow chain; the
                // fold is bitwise-equivalent to pushing each snapshot
                // alone, so batching can never change a verdict.
                let verdicts = match classifier.push_batch_guarded(&snapshots) {
                    Ok(v) => v,
                    Err(e) => {
                        finish(outcome, &classifier);
                        return GenExit::Failed(e.into());
                    }
                };
                let (mut repaired, mut dropped) = (0u64, 0u64);
                for (slot, verdict) in decoded_slots.into_iter().zip(verdicts) {
                    statuses[slot] = match verdict {
                        FrameVerdict::Accepted => FrameDisposition::Accepted,
                        FrameVerdict::Repaired { .. } => {
                            repaired += 1;
                            FrameDisposition::Repaired
                        }
                        FrameVerdict::Dropped { .. } => {
                            dropped += 1;
                            FrameDisposition::Dropped
                        }
                    };
                }
                outcome.frames_repaired += repaired;
                outcome.frames_dropped += dropped;
                outcome.frames_malformed += malformed;
                if let Some(s) = sobs.as_mut() {
                    if repaired > 0 {
                        s.frames_repaired.add(repaired);
                        s.note_degraded("repaired");
                    }
                    if dropped > 0 {
                        s.frames_dropped.add(dropped);
                        s.note_degraded("dropped");
                    }
                    if malformed > 0 {
                        s.frames_malformed.add(malformed);
                        s.note_degraded("malformed");
                    }
                }
                // Unlike lone snapshots (fire-and-forget), a batch is
                // acknowledged: one `VerdictBatch` of per-item
                // dispositions, sent as a single write.
                let reply = ControlFrame::VerdictBatch { statuses };
                if let Err(e) = write_frame(writer, &reply) {
                    finish(outcome, &classifier);
                    return GenExit::Failed(e);
                }
                publish_feed(feed, session_id, &classifier, model_id, last_trace);
            }
            ControlFrame::Classify { ctx } => {
                // Adopt the request's trace and answer under a server-side
                // `classify` span, so the client's `client_classify` span
                // and this one assemble into a single cross-process trace.
                let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
                if let Some(c) = ctx {
                    last_trace = c.trace_id;
                }
                let span = sobs.as_ref().map(|s| s.obs.tracer.span(s.classify_span));
                let start = Instant::now();
                let verdict = verdict_frame(&classifier, model_id, ctx);
                let sent = write_frame(writer, &verdict);
                drop(span);
                let elapsed = start.elapsed();
                outcome.classify_latency.record(elapsed);
                if let Some(s) = sobs.as_ref() {
                    s.classify_latency.record(elapsed);
                    s.classify_total.inc();
                }
                if let Err(e) = sent {
                    finish(outcome, &classifier);
                    return GenExit::Failed(e);
                }
                outcome.verdicts += 1;
                publish_feed(feed, session_id, &classifier, model_id, last_trace);
            }
            ControlFrame::SwapModel { json } => {
                // The client supplies the replacement pipeline inline.
                // Install it in the shared slot (every session, not just
                // this one, drains onto it), acknowledge with both
                // fingerprints, then rebuild our own classifier.
                let start = Instant::now();
                let new = match ClassifierPipeline::from_json(&json) {
                    Ok(p) => Arc::new(p),
                    Err(e) => {
                        // An undecodable model is a protocol-level
                        // failure: nothing was installed, and the typed
                        // core error says why.
                        let _ =
                            write_frame(writer, &ControlFrame::Bye { reason: ByeReason::Protocol });
                        finish(outcome, &classifier);
                        return GenExit::Failed(e.into());
                    }
                };
                let (old, new_id) = slot.swap(new);
                if let Some(s) = sobs.as_mut() {
                    s.note_swap(old, new_id, start.elapsed());
                }
                let ack = ControlFrame::SwapAck { old_model: old, new_model: new_id };
                if let Err(e) = write_frame(writer, &ack) {
                    finish(outcome, &classifier);
                    return GenExit::Failed(e);
                }
                if old != new_id {
                    finish(outcome, &classifier);
                    return GenExit::Rebuild;
                }
            }
            ControlFrame::Stats { .. } => {
                // Any `Stats` frame from the client is a request; the
                // reply carries the shared registry's exposition text
                // (empty when the server runs without observability).
                let text = sobs.as_ref().map(|s| s.obs.registry.render()).unwrap_or_default();
                if let Err(e) = write_frame(writer, &ControlFrame::Stats { text }) {
                    finish(outcome, &classifier);
                    return GenExit::Failed(e);
                }
            }
            ControlFrame::Health(_) => {
                // The client's payload is a placeholder; the server
                // answers with the authoritative guard-side health.
                let reply = ControlFrame::Health(classifier.telemetry().clone());
                if let Err(e) = write_frame(writer, &reply) {
                    finish(outcome, &classifier);
                    return GenExit::Failed(e);
                }
            }
            ControlFrame::Bye { .. } => {
                let _ = write_frame(writer, &ControlFrame::Bye { reason: ByeReason::Normal });
                finish(outcome, &classifier);
                return GenExit::Clean;
            }
            other @ (ControlFrame::Hello { .. }
            | ControlFrame::Verdict { .. }
            | ControlFrame::VerdictBatch { .. }
            | ControlFrame::SwapAck { .. }
            | ControlFrame::Busy { .. }) => {
                let _ = write_frame(writer, &ControlFrame::Bye { reason: ByeReason::Protocol });
                finish(outcome, &classifier);
                return GenExit::Failed(ServeError::UnexpectedFrame {
                    expected: "Snapshot/SnapshotBatch/Classify/SwapModel/Health/Bye",
                    got: other.name(),
                });
            }
        }
    }
}

/// Refuses a connection before any session state exists: best-effort
/// `Bye` with the given reason, then the stream drops.
pub fn refuse(stream: TcpStream, reason: ByeReason) {
    let mut writer = BufWriter::new(stream);
    let _ = write_frame(&mut writer, &ControlFrame::Bye { reason });
}

/// Soft-refuses a connection the server is shedding: best-effort `Busy`
/// with a retry hint, then the stream drops. Unlike [`refuse`] with
/// `SessionLimit`, this tells the client the server is alive and worth
/// retrying after a backoff.
pub fn refuse_busy(stream: TcpStream, retry_after: Duration) {
    let mut writer = BufWriter::new(stream);
    let retry_after_ms = retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
    let _ = write_frame(&mut writer, &ControlFrame::Busy { retry_after_ms });
}

/// Whether a frame that arrived at `arrival` has overrun the session's
/// per-frame deadline budget.
pub(crate) fn deadline_exceeded(config: &SessionConfig, arrival: Instant) -> bool {
    config.deadline.is_some_and(|d| arrival.elapsed() > d)
}

/// The `Busy` frame this session sends, with the configured retry hint.
pub(crate) fn busy_frame(config: &SessionConfig) -> ControlFrame {
    let retry_after_ms = config.busy_retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
    ControlFrame::Busy { retry_after_ms }
}

fn handshake(
    reader: &mut impl std::io::Read,
    writer: &mut impl std::io::Write,
    session_id: u32,
    slot: &ModelSlot,
    shutdown: &AtomicBool,
) -> Result<()> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            let _ = write_frame(writer, &ControlFrame::Bye { reason: ByeReason::Shutdown });
            return Err(ServeError::Rejected { reason: ByeReason::Shutdown });
        }
        match read_frame_or_idle(reader)? {
            None => continue,
            Some(ControlFrame::Hello { model_id, .. }) => {
                // model_id 0 is the wildcard: "whatever you serve". The
                // model retired by the last swap stays admissible through
                // the drain window — such a client is served the current
                // model, whose id the reply carries.
                let served = slot.current_id();
                if !slot.accepts(model_id) {
                    let _ = write_frame(
                        writer,
                        &ControlFrame::Bye { reason: ByeReason::ModelMismatch },
                    );
                    return Err(ServeError::ModelMismatch { offered: model_id, served });
                }
                write_frame(
                    writer,
                    &ControlFrame::Hello { session: session_id, model_id: served },
                )?;
                return Ok(());
            }
            Some(other) => {
                let _ = write_frame(writer, &ControlFrame::Bye { reason: ByeReason::Protocol });
                return Err(ServeError::UnexpectedFrame { expected: "Hello", got: other.name() });
            }
        }
    }
}

/// Builds the `Verdict` frame for the classifier's current state, tagged
/// with the fingerprint of the model generation that produced it and
/// echoing the request's [`TraceContext`] so the client can tie the
/// verdict to its trace. Before the first usable snapshot the verdict is
/// the honest "no idea": class `Idle`, confidence `0.0`, all-zero
/// composition.
pub(crate) fn verdict_frame(
    classifier: &OnlineClassifier<'_>,
    model_id: u64,
    ctx: Option<TraceContext>,
) -> ControlFrame {
    use appclass_core::AppClass;
    let class = classifier.current_class().unwrap_or(AppClass::Idle);
    let composition = classifier.composition();
    let mut fractions = [0.0f64; 5];
    if classifier.in_state() > 0 {
        for (i, slot) in fractions.iter_mut().enumerate() {
            *slot = composition.fraction(AppClass::from_index(i).expect("i < 5"));
        }
    }
    ControlFrame::Verdict {
        class: class.index() as u8,
        confidence: classifier.confidence(),
        composition: fractions,
        model: model_id,
        ctx,
    }
}

/// Publishes the classifier's running verdict to the serve→cluster feed
/// (no-op before the first usable snapshot, so the controller never sees
/// the all-zero "no idea" state as an observation).
pub(crate) fn publish_feed(
    feed: Option<&CompositionFeed>,
    session_id: u32,
    classifier: &OnlineClassifier<'_>,
    model_id: u64,
    trace: u64,
) {
    let Some(feed) = feed else { return };
    let Some(class) = classifier.current_class() else { return };
    feed.publish(FeedEntry {
        session: session_id,
        class,
        composition: classifier.composition(),
        confidence: classifier.confidence(),
        frames: classifier.in_state() as u64,
        model: model_id,
        trace,
    });
}

/// Folds the classifier's end-of-generation reports into the outcome.
/// Merging (not replacing) is what lets a session's telemetry survive a
/// hot swap: every generation contributes its counts.
pub(crate) fn finish(outcome: &mut SessionOutcome, classifier: &OnlineClassifier<'_>) {
    outcome.health.merge(classifier.telemetry());
    outcome.stage_metrics.merge(classifier.stage_metrics());
}

impl SessionEnd {
    /// The outcome regardless of how the session ended.
    pub fn outcome(&self) -> &SessionOutcome {
        match self {
            SessionEnd::Clean(o) | SessionEnd::Shutdown(o) | SessionEnd::Failed(o, _) => o,
        }
    }
}
