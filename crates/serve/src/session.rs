//! The session core: one client's protocol state, served frame by frame
//! without a socket.
//!
//! A session is the state machine between the bytes a server reads and
//! the classification core. The first frame must be a `Hello`
//! (versioned handshake plus a model fingerprint check against the
//! shared [`ModelSlot`]); after that the client streams `Snapshot` and
//! `SnapshotBatch` frames and interleaves `Classify`, `Health`, `Stats`,
//! `SwapModel` and finally `Bye`. Every snapshot passes through the
//! session's own [`FrameGuard`] via `push_guarded`, so a client on a
//! degraded telemetry link degrades only its own verdicts.
//!
//! The core has two calls. `Session::serve_frame` takes one frame body
//! and the instant its first byte arrived, and appends any reply to the
//! caller's buffer; `Session::farewell` appends the shutdown `Bye`.
//! Everything the protocol decides lives here: the handshake, hot-swap
//! rebuilds, the frame budget, deadline shedding with its `Busy`
//! notices, trace adoption, feed publishing, and the rule that a session
//! leaves the feed before its `Bye` is answered. The server
//! ([`crate::shard`]) owns the sockets, admission and accounting.
//!
//! Sessions survive hot model swaps: the classifier is scoped to one
//! model *generation*, the slot's epoch is checked before each frame,
//! and when the served model changes the session folds the old
//! generation's telemetry into its outcome and rebuilds against the new
//! pipeline on the same connection. Verdicts carry the fingerprint of
//! the model that produced them, so a client watches its tags flip
//! old → new.
//!
//! [`FrameGuard`]: appclass_metrics::FrameGuard

use crate::error::ServeError;
use crate::feed::{CompositionFeed, FeedEntry};
use crate::model::ModelSlot;
use crate::proto::append_frame;
use crate::shard::ServerConfig;
use crate::stats::SessionOutcome;
use appclass_core::online::OnlineClassifier;
use appclass_core::{AppClass, ClassifierPipeline};
use appclass_metrics::wire::{self, ControlFrameRef};
use appclass_metrics::{ByeReason, ControlFrame, FrameDisposition, FrameVerdict, Snapshot};
use appclass_obs::span::SpanName;
use appclass_obs::{Counter, Histogram, Observability, TraceContext, TraceScope};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// stalls, a shard that fell behind) is *shed*: the server skips
    /// classification and acknowledges with a verdict-less `Busy` notice
    /// (single snapshots) or `Expired` dispositions (batches) instead of
    /// classifying stale telemetry. `None` disables shedding.
    pub deadline: Option<Duration>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { frame_budget: 100_000, window: None, deadline: None }
    }
}

/// Registry handles one shard clones once and shares across all its
/// sessions. The counters are the same named atomics every other shard
/// increments — the shared registry is the lock-free merge point for
/// live stats.
struct ShardObs {
    obs: Observability,
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
}

impl ShardObs {
    fn new(obs: &Observability) -> ShardObs {
        ShardObs {
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
        }
    }
}

/// Buffers one shard reuses for every request it serves, so that a warm
/// request allocates nothing of its own.
#[derive(Default)]
struct ShardScratch {
    /// A `SnapshotBatch` request's decoded snapshots.
    snapshots: Vec<Snapshot>,
    /// The batch position each decoded snapshot came from.
    slots: Vec<usize>,
    /// Per-item dispositions: the `VerdictBatch` reply's payload.
    statuses: Vec<FrameDisposition>,
}

/// What the sessions of one shard share, built once per shard thread:
/// the model slot, the policy, the composition feed, the registry
/// handles and the request buffers.
pub(crate) struct SessionEnv {
    slot: Arc<ModelSlot>,
    config: ServerConfig,
    feed: CompositionFeed,
    obs: ShardObs,
    scratch: ShardScratch,
}

impl SessionEnv {
    pub(crate) fn new(
        slot: Arc<ModelSlot>,
        config: ServerConfig,
        feed: CompositionFeed,
        obs: &Observability,
    ) -> SessionEnv {
        SessionEnv { slot, config, feed, obs: ShardObs::new(obs), scratch: ShardScratch::default() }
    }
}

/// One model generation of one session: an [`OnlineClassifier`] pinned
/// to the pipeline `Arc` it borrows from.
///
/// `OnlineClassifier<'a>` borrows its pipeline, but a session must be
/// storable in an event loop's connection table. This cell makes the
/// borrow self-referential under a narrow, documented contract.
///
/// SAFETY invariants:
/// - `pipeline` is an `Arc`: the `ClassifierPipeline` lives on the heap
///   and its address is stable for as long as this cell holds the Arc,
///   no matter how the cell itself moves.
/// - The pipeline is never mutated (the classifier takes `&`, and the
///   slot hands out fresh `Arc`s on swap rather than mutating).
/// - Field order: `classifier` is declared before `pipeline`, so it
///   drops first and the fabricated `'static` borrow can never outlive
///   the allocation backing it.
struct Generation {
    classifier: OnlineClassifier<'static>,
    /// Owns the allocation `classifier` borrows; never read, only held.
    #[allow(dead_code)]
    pipeline: Arc<ClassifierPipeline>,
    epoch: u64,
    model_id: u64,
}

impl Generation {
    fn new(env: &SessionEnv) -> Generation {
        let epoch = env.slot.epoch();
        let pipeline = env.slot.current();
        let model_id = pipeline.model_id();
        // SAFETY: see the struct-level invariants — the reference targets
        // the Arc's heap allocation, which outlives `classifier` by field
        // order, is address-stable, and is never mutated.
        let pinned: &'static ClassifierPipeline = unsafe { &*Arc::as_ptr(&pipeline) };
        let mut classifier = match env.config.session.window {
            Some(w) => OnlineClassifier::with_window(pinned, w),
            None => OnlineClassifier::new(pinned),
        };
        classifier.set_tracer(env.obs.obs.tracer.clone());
        Generation { classifier, pipeline, epoch, model_id }
    }
}

/// Protocol phase of one session. The handshake lasts one frame, so
/// boxing the generation would only add an indirection to every frame.
#[allow(clippy::large_enum_variant)]
enum Phase {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// Handshake done: frames are served against this generation.
    Steady(Generation),
}

/// How a session ends, for the server's accounting.
#[derive(Debug)]
pub(crate) enum Close {
    /// The client said `Bye`, or the frame budget ran out.
    Clean,
    /// The server shut down and said `Bye(Shutdown)`.
    Shutdown,
    /// The session died mid-protocol.
    Failed(ServeError),
}

/// One client's protocol state: its phase (with the pinned generation
/// once the handshake is done), its outcome so far, the trace id last
/// seen on its telemetry and the degraded-once latch.
pub(crate) struct Session {
    id: u32,
    phase: Phase,
    outcome: SessionOutcome,
    /// Trace id last seen on this session's telemetry (0 = untraced),
    /// published with every feed entry so placement decisions can link
    /// back to the originating trace.
    last_trace: u64,
    /// The flight recorder snapshots the *first* degraded frame of a
    /// session, not all of them — one incident per degradation episode
    /// keeps the bounded incident log useful.
    degraded_noted: bool,
}

impl Session {
    /// A session awaiting its `Hello`; `id` is echoed back in the reply.
    pub(crate) fn new(id: u32) -> Session {
        Session {
            id,
            phase: Phase::Handshake,
            outcome: SessionOutcome::default(),
            last_trace: 0,
            degraded_noted: false,
        }
    }

    /// The session id the server assigned.
    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// Serves one frame body (no length prefix) whose first byte arrived
    /// at `arrival`, appending any reply to `out`. Returns how the
    /// session ends when this frame ends it.
    ///
    /// Frames are decoded zero-copy: snapshot payloads are classified
    /// straight out of `body`, and nothing borrowed from it outlives the
    /// call.
    pub(crate) fn serve_frame(
        &mut self,
        body: &[u8],
        arrival: Instant,
        out: &mut Vec<u8>,
        env: &mut SessionEnv,
    ) -> Option<Close> {
        // Between frames is where a swap by any session is observed: drain
        // this generation and rebuild on the same connection.
        if let Phase::Steady(gen) = &mut self.phase {
            if gen.epoch != env.slot.epoch() {
                finish(&mut self.outcome, &gen.classifier);
                *gen = Generation::new(env);
            }
        }
        let frame = match wire::decode_control_borrowed(body) {
            Ok(frame) => frame,
            Err(_) => {
                // The session envelope itself is corrupt: the peers have
                // lost framing sync and cannot recover.
                append_frame(out, &ControlFrame::Bye { reason: ByeReason::Protocol });
                if let Phase::Steady(gen) = &mut self.phase {
                    gen.classifier.note_malformed();
                }
                return Some(Close::Failed(ServeError::Handshake { reason: "framing lost" }));
            }
        };
        let gen = match &mut self.phase {
            Phase::Handshake => return self.handshake(frame, out, env),
            Phase::Steady(gen) => gen,
        };
        let SessionEnv { slot, config, feed, obs, scratch } = env;
        let model_id = gen.model_id;
        match frame {
            ControlFrameRef::Snapshot { wire: bytes, ctx } => {
                // Adopt the propagated trace for this frame's processing:
                // every span the classifier records while the scope is
                // alive carries the client's trace id, and the scope
                // restores the previous (no-trace) state on every exit.
                let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
                if let Some(c) = ctx {
                    self.last_trace = c.trace_id;
                }
                self.outcome.frames_in += 1;
                obs.frames_in.inc();
                if self.outcome.frames_in > config.session.frame_budget {
                    append_frame(out, &ControlFrame::Bye { reason: ByeReason::FrameBudget });
                    return Some(Close::Clean);
                }
                // A snapshot whose envelope took longer than the deadline
                // to arrive is stale telemetry: shed it before
                // classification and say so with a verdict-less `Busy`
                // notice. Lone snapshots are fire-and-forget, so the
                // notice is unsolicited; the client read paths skip and
                // count it.
                if expired(config.session.deadline, arrival) {
                    self.outcome.frames_deadline_shed += 1;
                    obs.frames_deadline_shed.inc();
                    note_degraded(&mut self.degraded_noted, obs, self.id, "deadline shed");
                    append_frame(out, &busy(config.busy_retry_after));
                    return None;
                }
                // The inner datagram crossed the client's (possibly
                // faulty) telemetry channel unprotected: decode failures
                // here are expected degradation, not protocol errors.
                match wire::decode(bytes) {
                    Ok(snapshot) => match gen.classifier.push_guarded(&snapshot) {
                        Ok(FrameVerdict::Repaired { .. }) => {
                            self.outcome.frames_repaired += 1;
                            obs.frames_repaired.inc();
                            note_degraded(&mut self.degraded_noted, obs, self.id, "repaired");
                        }
                        Ok(FrameVerdict::Dropped { .. }) => {
                            self.outcome.frames_dropped += 1;
                            obs.frames_dropped.inc();
                            note_degraded(&mut self.degraded_noted, obs, self.id, "dropped");
                        }
                        Ok(FrameVerdict::Accepted) => {}
                        Err(e) => return Some(Close::Failed(e.into())),
                    },
                    Err(_) => {
                        self.outcome.frames_malformed += 1;
                        gen.classifier.note_malformed();
                        obs.frames_malformed.inc();
                        note_degraded(&mut self.degraded_noted, obs, self.id, "malformed");
                    }
                }
                publish(feed, self.id, gen, self.last_trace);
                None
            }
            ControlFrameRef::SnapshotBatch { wires, ctx } => {
                let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
                if let Some(c) = ctx {
                    self.last_trace = c.trace_id;
                }
                // Every item counts toward the frame budget exactly as if
                // it had been streamed alone; a batch that would cross the
                // budget ends the session before any of it is processed.
                let n = wires.len() as u64;
                self.outcome.frames_in += n;
                obs.frames_in.add(n);
                if self.outcome.frames_in > config.session.frame_budget {
                    append_frame(out, &ControlFrame::Bye { reason: ByeReason::FrameBudget });
                    return Some(Close::Clean);
                }
                // A batch past its deadline is shed whole: every item is
                // acknowledged `Expired` (the batch path already owes the
                // client one `VerdictBatch`, so the refusal rides the
                // normal ack) and nothing reaches the classifier.
                if expired(config.session.deadline, arrival) {
                    self.outcome.frames_deadline_shed += n;
                    obs.frames_deadline_shed.add(n);
                    note_degraded(&mut self.degraded_noted, obs, self.id, "deadline shed");
                    let statuses = &mut scratch.statuses;
                    statuses.clear();
                    statuses.resize(wires.len(), FrameDisposition::Expired);
                    append_verdict_batch(out, statuses);
                    return None;
                }
                // Decode every datagram; failures become per-item
                // `Malformed` dispositions (expected degradation on a
                // faulty telemetry link, exactly like the single path).
                let ShardScratch { snapshots, slots, statuses } = scratch;
                snapshots.clear();
                slots.clear();
                statuses.clear();
                statuses.resize(wires.len(), FrameDisposition::Malformed);
                let mut malformed = 0u64;
                for (i, bytes) in wires.iter().enumerate() {
                    match wire::decode(bytes) {
                        Ok(snapshot) => {
                            slots.push(i);
                            snapshots.push(snapshot);
                        }
                        Err(_) => {
                            malformed += 1;
                            gen.classifier.note_malformed();
                        }
                    }
                }
                // One batched pass through guard + dataflow chain; the fold
                // is bitwise-equivalent to pushing each snapshot alone, so
                // batching can never change a verdict.
                let verdicts = match gen.classifier.push_batch_guarded(snapshots) {
                    Ok(v) => v,
                    Err(e) => return Some(Close::Failed(e.into())),
                };
                let (mut repaired, mut dropped) = (0u64, 0u64);
                for (&slot, verdict) in slots.iter().zip(verdicts) {
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
                self.outcome.frames_repaired += repaired;
                self.outcome.frames_dropped += dropped;
                self.outcome.frames_malformed += malformed;
                if repaired > 0 {
                    obs.frames_repaired.add(repaired);
                    note_degraded(&mut self.degraded_noted, obs, self.id, "repaired");
                }
                if dropped > 0 {
                    obs.frames_dropped.add(dropped);
                    note_degraded(&mut self.degraded_noted, obs, self.id, "dropped");
                }
                if malformed > 0 {
                    obs.frames_malformed.add(malformed);
                    note_degraded(&mut self.degraded_noted, obs, self.id, "malformed");
                }
                // Unlike lone snapshots (fire-and-forget), a batch is
                // acknowledged: one `VerdictBatch` of per-item dispositions.
                append_verdict_batch(out, statuses);
                publish(feed, self.id, gen, self.last_trace);
                None
            }
            ControlFrameRef::Other(ControlFrame::Classify { ctx }) => {
                // Adopt the request's trace and answer under a server-side
                // `classify` span, so the client's `client_classify` span
                // and this one assemble into a single cross-process trace.
                let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
                if let Some(c) = ctx {
                    self.last_trace = c.trace_id;
                }
                let span = obs.obs.tracer.span(obs.classify_span);
                let start = Instant::now();
                append_frame(out, &verdict_frame(&gen.classifier, model_id, ctx));
                drop(span);
                let elapsed = start.elapsed();
                self.outcome.classify_latency.record(elapsed);
                obs.classify_latency.record(elapsed);
                obs.classify_total.inc();
                self.outcome.verdicts += 1;
                publish(feed, self.id, gen, self.last_trace);
                None
            }
            ControlFrameRef::Other(ControlFrame::SwapModel { json }) => {
                // The client supplies the replacement pipeline inline.
                // Install it in the shared slot (every session, not just
                // this one, drains onto it) and acknowledge with both
                // fingerprints; the next frame rebuilds our classifier.
                let start = Instant::now();
                let new = match ClassifierPipeline::from_json(&json) {
                    Ok(p) => Arc::new(p),
                    Err(e) => {
                        // An undecodable model is a protocol-level
                        // failure: nothing was installed, and the typed
                        // core error says why.
                        append_frame(out, &ControlFrame::Bye { reason: ByeReason::Protocol });
                        return Some(Close::Failed(e.into()));
                    }
                };
                let (old, new_id) = slot.swap(new);
                if old != new_id {
                    obs.swap_total.inc();
                    obs.swap_latency.record(start.elapsed());
                    // A swap opens a degradation window: the rebuild
                    // discards windowed classifier state. Flight-record it.
                    obs.obs.incident(&format!(
                        "session {}: model swap {old:#018x} -> {new_id:#018x}",
                        self.id
                    ));
                }
                append_frame(out, &ControlFrame::SwapAck { old_model: old, new_model: new_id });
                None
            }
            ControlFrameRef::Other(ControlFrame::Stats { .. }) => {
                // Any `Stats` frame from the client is a request; the
                // reply carries the shared registry's exposition text.
                let text = obs.obs.registry.render();
                append_frame(out, &ControlFrame::Stats { text });
                None
            }
            ControlFrameRef::Other(ControlFrame::Health(_)) => {
                // The client's payload is a placeholder; the server
                // answers with the authoritative guard-side health.
                append_frame(out, &ControlFrame::Health(gen.classifier.telemetry().clone()));
                None
            }
            ControlFrameRef::Other(ControlFrame::Bye { .. }) => {
                // Retire before answering, so a client that has its Bye
                // back finds the session among the feed's ended ones.
                feed.retire(self.id);
                append_frame(out, &ControlFrame::Bye { reason: ByeReason::Normal });
                Some(Close::Clean)
            }
            ControlFrameRef::Other(other) => {
                append_frame(out, &ControlFrame::Bye { reason: ByeReason::Protocol });
                Some(Close::Failed(ServeError::UnexpectedFrame {
                    expected: "Snapshot/SnapshotBatch/Classify/SwapModel/Health/Bye",
                    got: other.name(),
                }))
            }
        }
    }

    /// Serves the first frame, which must be a `Hello` offering a model
    /// the slot accepts.
    fn handshake(
        &mut self,
        frame: ControlFrameRef<'_>,
        out: &mut Vec<u8>,
        env: &SessionEnv,
    ) -> Option<Close> {
        match frame.to_owned_frame() {
            ControlFrame::Hello { model_id, .. } => {
                // model_id 0 is the wildcard: "whatever you serve". The
                // model retired by the last swap stays admissible through
                // the drain window — such a client is served the current
                // model, whose id the reply carries.
                let served = env.slot.current_id();
                if !env.slot.accepts(model_id) {
                    append_frame(out, &ControlFrame::Bye { reason: ByeReason::ModelMismatch });
                    return Some(Close::Failed(ServeError::ModelMismatch {
                        offered: model_id,
                        served,
                    }));
                }
                append_frame(out, &ControlFrame::Hello { session: self.id, model_id: served });
                self.phase = Phase::Steady(Generation::new(env));
                None
            }
            other => {
                append_frame(out, &ControlFrame::Bye { reason: ByeReason::Protocol });
                Some(Close::Failed(ServeError::UnexpectedFrame {
                    expected: "Hello",
                    got: other.name(),
                }))
            }
        }
    }

    /// Appends the shutdown farewell, `Bye(Shutdown)`, and says how the
    /// session ends: a client that never said `Hello` is refused, which
    /// counts as a failure.
    pub(crate) fn farewell(&self, out: &mut Vec<u8>) -> Close {
        append_frame(out, &ControlFrame::Bye { reason: ByeReason::Shutdown });
        match self.phase {
            Phase::Handshake => Close::Failed(ServeError::Rejected { reason: ByeReason::Shutdown }),
            Phase::Steady(_) => Close::Shutdown,
        }
    }

    /// Ends the session: it leaves the feed's live set, and its
    /// generation's telemetry folds into the outcome it returns.
    pub(crate) fn end(self, feed: &CompositionFeed) -> SessionOutcome {
        let Session { id, phase, mut outcome, .. } = self;
        if let Phase::Steady(gen) = &phase {
            finish(&mut outcome, &gen.classifier);
        }
        feed.retire(id);
        outcome
    }
}

/// The `Busy` frame carrying `retry_after` as its `retry_after_ms` hint.
pub(crate) fn busy(retry_after: Duration) -> ControlFrame {
    let retry_after_ms = retry_after.as_millis().min(u128::from(u32::MAX)) as u32;
    ControlFrame::Busy { retry_after_ms }
}

/// Whether a frame that arrived at `arrival` has overrun the per-frame
/// deadline budget.
fn expired(deadline: Option<Duration>, arrival: Instant) -> bool {
    deadline.is_some_and(|d| arrival.elapsed() > d)
}

/// Appends the `VerdictBatch` reply for `statuses`: the vector is lent to
/// the frame for the encode and taken back afterwards.
fn append_verdict_batch(out: &mut Vec<u8>, statuses: &mut Vec<FrameDisposition>) {
    let reply = ControlFrame::VerdictBatch { statuses: std::mem::take(statuses) };
    append_frame(out, &reply);
    if let ControlFrame::VerdictBatch { statuses: lent } = reply {
        *statuses = lent;
    }
}

/// One flight-recorder incident per session degradation episode. Takes
/// the latch alone so the caller can hold disjoint borrows into the rest
/// of the session.
fn note_degraded(noted: &mut bool, obs: &ShardObs, session_id: u32, what: &str) {
    if !*noted {
        *noted = true;
        obs.obs.incident(&format!("session {session_id}: first degraded frame ({what})"));
    }
}

/// Builds the `Verdict` frame for the classifier's current state, tagged
/// with the fingerprint of the model generation that produced it and
/// echoing the request's [`TraceContext`] so the client can tie the
/// verdict to its trace. Before the first usable snapshot the verdict is
/// the honest "no idea": class `Idle`, confidence `0.0`, all-zero
/// composition.
fn verdict_frame(
    classifier: &OnlineClassifier<'_>,
    model_id: u64,
    ctx: Option<TraceContext>,
) -> ControlFrame {
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

/// Publishes the generation's running verdict to the serve→cluster feed
/// (no-op before the first usable snapshot, so the controller never sees
/// the all-zero "no idea" state as an observation).
fn publish(feed: &CompositionFeed, session: u32, gen: &Generation, trace: u64) {
    let classifier = &gen.classifier;
    let Some(class) = classifier.current_class() else { return };
    feed.publish(FeedEntry {
        session,
        class,
        composition: classifier.composition(),
        confidence: classifier.confidence(),
        frames: classifier.in_state() as u64,
        model: gen.model_id,
        trace,
    });
}

/// Folds the classifier's end-of-generation reports into the outcome.
/// Merging (not replacing) is what lets a session's telemetry survive a
/// hot swap: every generation contributes its counts.
fn finish(outcome: &mut SessionOutcome, classifier: &OnlineClassifier<'_>) {
    outcome.health.merge(classifier.telemetry());
    outcome.stage_metrics.merge(classifier.stage_metrics());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::RETIRED_KEPT;
    use appclass_core::PipelineConfig;
    use appclass_linalg::Matrix;
    use appclass_metrics::{MetricFrame, MetricId, NodeId, METRIC_COUNT};

    fn raw_run(rows: usize, settings: &[(MetricId, f64)]) -> Matrix {
        let mut m = Matrix::zeros(rows, METRIC_COUNT);
        for i in 0..rows {
            let wiggle = 1.0 + 0.03 * ((i % 5) as f64 - 2.0);
            for &(id, v) in settings {
                m[(i, id.index())] = v * wiggle;
            }
        }
        m
    }

    /// A four-class pipeline; `cpu` sets the CPU class's user load, so
    /// two values give two fingerprints.
    fn trained(cpu: f64) -> Arc<ClassifierPipeline> {
        let runs = vec![
            (raw_run(25, &[(MetricId::CpuUser, cpu), (MetricId::CpuSystem, 5.0)]), AppClass::Cpu),
            (raw_run(25, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)]), AppClass::Io),
            (raw_run(25, &[(MetricId::BytesOut, 3.0e7)]), AppClass::Net),
            (raw_run(25, &[(MetricId::CpuUser, 0.3)]), AppClass::Idle),
        ];
        Arc::new(ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap())
    }

    /// One node's snapshots on the 5-second cadence: mostly CPU-bound,
    /// every third one I/O-bound, so the composition is mixed.
    fn snapshots(n: usize) -> Vec<Snapshot> {
        (0..n)
            .map(|i| {
                let mut frame = MetricFrame::zeroed();
                if i % 3 == 0 {
                    frame.set(MetricId::IoBi, 2400.0 + i as f64);
                    frame.set(MetricId::IoBo, 2600.0);
                } else {
                    frame.set(MetricId::CpuUser, 85.0 + (i % 7) as f64);
                    frame.set(MetricId::CpuSystem, 4.0);
                }
                Snapshot::new(NodeId(3), 5 * i as u64, frame)
            })
            .collect()
    }

    fn batch(snaps: &[Snapshot]) -> ControlFrame {
        let wires = snaps.iter().map(|s| wire::encode(s).to_vec()).collect();
        ControlFrame::SnapshotBatch { wires, ctx: None }
    }

    /// A session and everything it shares, driven frame by frame.
    struct Harness {
        env: SessionEnv,
        session: Session,
    }

    impl Harness {
        fn new(pipeline: Arc<ClassifierPipeline>, config: ServerConfig) -> Harness {
            let slot = Arc::new(ModelSlot::new(pipeline));
            let env = SessionEnv::new(slot, config, CompositionFeed::new(), &Observability::new());
            Harness { env, session: Session::new(7) }
        }

        /// A session past a wildcard handshake.
        fn steady(pipeline: Arc<ClassifierPipeline>, config: ServerConfig) -> Harness {
            let mut h = Harness::new(pipeline, config);
            let (close, replies) = h.send(&ControlFrame::Hello { session: 0, model_id: 0 });
            assert!(close.is_none());
            assert!(matches!(replies[..], [ControlFrame::Hello { session: 7, .. }]));
            h
        }

        /// Serves `body` as if its first byte had just arrived; returns
        /// the close decision and the replies, decoded.
        fn serve(&mut self, body: &[u8]) -> (Option<Close>, Vec<ControlFrame>) {
            let mut out = Vec::new();
            let close = self.session.serve_frame(body, Instant::now(), &mut out, &mut self.env);
            let mut replies = Vec::new();
            let mut rest = &out[..];
            while !rest.is_empty() {
                let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
                replies.push(wire::decode_control(&rest[4..4 + len]).unwrap());
                rest = &rest[4 + len..];
            }
            (close, replies)
        }

        /// Serves `frame`, laid down by `append_frame` as it travels.
        fn send(&mut self, frame: &ControlFrame) -> (Option<Close>, Vec<ControlFrame>) {
            let mut buf = Vec::new();
            append_frame(&mut buf, frame);
            self.serve(&buf[4..])
        }
    }

    #[test]
    fn hello_with_an_unknown_fingerprint_is_refused_with_model_mismatch() {
        let pipeline = trained(90.0);
        let offered = pipeline.model_id() ^ 1;
        let mut h = Harness::new(pipeline, ServerConfig::default());
        let (close, replies) = h.send(&ControlFrame::Hello { session: 0, model_id: offered });
        assert_eq!(replies, [ControlFrame::Bye { reason: ByeReason::ModelMismatch }]);
        assert!(
            matches!(close, Some(Close::Failed(ServeError::ModelMismatch { .. }))),
            "{close:?}"
        );
    }

    #[test]
    fn a_first_frame_other_than_hello_is_a_protocol_failure() {
        let mut h = Harness::new(trained(90.0), ServerConfig::default());
        let (close, replies) = h.send(&ControlFrame::Classify { ctx: None });
        assert_eq!(replies, [ControlFrame::Bye { reason: ByeReason::Protocol }]);
        assert!(
            matches!(
                close,
                Some(Close::Failed(ServeError::UnexpectedFrame { expected: "Hello", .. }))
            ),
            "{close:?}"
        );
    }

    #[test]
    fn a_corrupt_envelope_is_a_protocol_failure() {
        let mut h = Harness::steady(trained(90.0), ServerConfig::default());
        let mut buf = Vec::new();
        append_frame(&mut buf, &ControlFrame::Classify { ctx: None });
        let last = buf.len() - 1;
        buf[last] ^= 0xFF; // break the trailer
        let (close, replies) = h.serve(&buf[4..]);
        assert_eq!(replies, [ControlFrame::Bye { reason: ByeReason::Protocol }]);
        assert!(matches!(close, Some(Close::Failed(ServeError::Handshake { .. }))), "{close:?}");
    }

    #[test]
    fn a_batch_is_acknowledged_and_classified_exactly_as_the_pipeline_run_directly() {
        let pipeline = trained(90.0);
        let snaps = snapshots(40);
        let mut h = Harness::steady(Arc::clone(&pipeline), ServerConfig::default());

        let mut direct = OnlineClassifier::new(&pipeline);
        let want: Vec<FrameDisposition> = direct
            .push_batch_guarded(&snaps)
            .unwrap()
            .iter()
            .map(|v| match v {
                FrameVerdict::Accepted => FrameDisposition::Accepted,
                FrameVerdict::Repaired { .. } => FrameDisposition::Repaired,
                FrameVerdict::Dropped { .. } => FrameDisposition::Dropped,
            })
            .collect();

        let (close, replies) = h.send(&batch(&snaps));
        assert!(close.is_none());
        assert_eq!(replies, [ControlFrame::VerdictBatch { statuses: want }]);

        let (close, replies) = h.send(&ControlFrame::Classify { ctx: None });
        assert!(close.is_none());
        let [ControlFrame::Verdict { class, confidence, composition, model, ctx: None }] =
            replies[..]
        else {
            panic!("expected one Verdict, got {replies:?}");
        };
        assert_eq!(class, direct.current_class().unwrap().index() as u8);
        assert_eq!(confidence.to_bits(), direct.confidence().to_bits());
        for (i, fraction) in composition.iter().enumerate() {
            let want = direct.composition().fraction(AppClass::from_index(i).unwrap());
            assert_eq!(fraction.to_bits(), want.to_bits(), "class {i}");
        }
        assert_eq!(model, pipeline.model_id());
    }

    #[test]
    fn swap_model_is_acknowledged_and_the_next_verdict_carries_the_new_fingerprint() {
        let (old, new) = (trained(90.0), trained(60.0));
        assert_ne!(old.model_id(), new.model_id());
        let mut h = Harness::steady(Arc::clone(&old), ServerConfig::default());
        h.send(&batch(&snapshots(12)));

        let json = new.to_json().unwrap();
        let (close, replies) = h.send(&ControlFrame::SwapModel { json });
        assert!(close.is_none());
        assert_eq!(
            replies,
            [ControlFrame::SwapAck { old_model: old.model_id(), new_model: new.model_id() }]
        );
        assert_eq!(h.env.slot.current_id(), new.model_id());

        let (_, replies) = h.send(&ControlFrame::Classify { ctx: None });
        assert!(
            matches!(replies[..], [ControlFrame::Verdict { model, .. }] if model == new.model_id()),
            "{replies:?}"
        );
    }

    #[test]
    fn a_batch_that_crosses_the_frame_budget_ends_the_session_unclassified() {
        let config = ServerConfig {
            session: SessionConfig { frame_budget: 4, ..SessionConfig::default() },
            ..ServerConfig::default()
        };
        let mut h = Harness::steady(trained(90.0), config);
        let (close, replies) = h.send(&batch(&snapshots(5)));
        assert_eq!(replies, [ControlFrame::Bye { reason: ByeReason::FrameBudget }]);
        assert!(matches!(close, Some(Close::Clean)), "{close:?}");
        let outcome = h.session.end(&h.env.feed);
        assert_eq!(outcome.frames_in, 5);
        assert_eq!(outcome.health.seen, 0, "no item may reach the classifier");
    }

    #[test]
    fn bye_leaves_the_feed_before_it_is_answered() {
        let mut h = Harness::steady(trained(90.0), ServerConfig::default());
        h.send(&batch(&snapshots(6)));
        assert!(h.env.feed.get(7).is_some(), "the session published its verdict");

        let (close, replies) = h.send(&ControlFrame::Bye { reason: ByeReason::Normal });
        assert_eq!(replies, [ControlFrame::Bye { reason: ByeReason::Normal }]);
        assert!(matches!(close, Some(Close::Clean)), "{close:?}");
        // Ended already: `RETIRED_KEPT` later endings push its entry out,
        // where a live session's entry would never be evicted.
        let feed = h.env.feed.clone();
        let entry = feed.get(7).unwrap();
        for s in 100..100 + RETIRED_KEPT as u32 {
            feed.publish(FeedEntry { session: s, ..entry });
            feed.retire(s);
        }
        assert!(feed.get(7).is_none(), "the session was still live when its Bye was answered");
    }
}
