//! The sharded session fabric: readiness-driven event loops over
//! nonblocking sockets, one session table per shard.
//!
//! The thread-per-session [`Server`](crate::Server) tops out where its
//! economics do: one blocking thread per concurrent session, a global
//! stats mutex, and a fresh allocation per decoded snapshot payload.
//! [`ShardServer`] keeps the wire protocol, the admission control, and
//! the session semantics bit-identical while changing the execution
//! model:
//!
//! - **Sharded session table.** Admitted connections are dealt
//!   round-robin to `config.shards` worker groups. Each shard owns its
//!   connections outright — session state never crosses a shard
//!   boundary, so there is no session-table lock anywhere.
//! - **Readiness-driven I/O.** Every socket is nonblocking; each shard
//!   parks in `poll(2)` ([`crate::poll`]) and only touches sockets the
//!   kernel reports ready. No async runtime, per the workspace's
//!   no-tokio stance: the event loop is a plain `loop` on a plain
//!   thread.
//! - **Zero-copy decode.** Frames are parsed in place from the shard's
//!   read buffer with
//!   [`decode_control_borrowed`](wire::decode_control_borrowed):
//!   snapshot datagrams are classified straight out of the buffer the
//!   kernel filled, never copied into per-frame `Vec`s. A property test
//!   pins the borrowed decode bit-identical to the allocating path.
//! - **Lock-free stats.** Each shard accumulates its own
//!   [`ServerStats`]; live observability flows through the shared
//!   registry's atomic counters (the same `serve_*` names the threaded
//!   server exports). The only merge is at [`ShardServer::join`], after
//!   every shard has exited.
//!
//! Ownership rule for the zero-copy path: a borrowed frame lives
//! exactly as long as one call to the per-frame handler — nothing
//! borrowed from the read buffer survives into connection state. The
//! handler either consumes the payload (classification reads the
//! snapshot out of it) or converts to an owned
//! [`ControlFrame`] for the rare control-plane kinds; after it returns,
//! the consumed prefix of the read buffer is discarded.

use crate::error::{Result, ServeError};
use crate::feed::CompositionFeed;
use crate::model::ModelSlot;
use crate::overload::{OverloadMachine, OverloadState};
use crate::poll::PollSet;
use crate::proto::{append_frame, MAX_FRAME_BYTES, MID_FRAME_TIMEOUT_BUDGET};
use crate::server::{ServerConfig, SessionCounters};
use crate::session::{
    busy_frame, deadline_exceeded, finish, publish_feed, refuse, refuse_busy, verdict_frame,
};
use crate::stats::{ServerStats, SessionOutcome};
use appclass_core::online::OnlineClassifier;
use appclass_core::ClassifierPipeline;
use appclass_metrics::wire::{self, ControlFrameRef};
use appclass_metrics::{ByeReason, ControlFrame, FrameDisposition, FrameVerdict, Snapshot};
use appclass_obs::span::SpanName;
use appclass_obs::{Counter, Gauge, Histogram, Observability, TraceScope};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor parks in `poll(2)` before re-checking flags.
const ACCEPT_POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long a shard parks in `poll(2)` when its sockets are quiet; the
/// upper bound on new-connection pickup latency.
const SHARD_POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Idle cadence: how long a shard with no connections waits on its
/// intake channel (or, draining for shutdown, sleeps) before re-checking
/// its flags.
const SHARD_IDLE_SLEEP: Duration = Duration::from_millis(1);
/// Read chunk size per `read(2)` call on a ready socket.
const READ_CHUNK: usize = 64 * 1024;
/// Buffered bytes that end a connection's read turn: one maximal frame
/// with its length prefix.
const READ_TURN_BYTES: usize = 4 + MAX_FRAME_BYTES;
/// Hard cap on un-flushed reply bytes per connection. The threaded
/// server applies backpressure by blocking in `write`; an event loop
/// cannot, so a client that streams requests while never draining its
/// acks is failed once its pending replies cross this bound.
const MAX_WRITE_BACKLOG: usize = 16 * 1024 * 1024;

/// One model generation of one sharded session: an [`OnlineClassifier`]
/// pinned to the pipeline `Arc` it borrows from.
///
/// `OnlineClassifier<'a>` borrows its pipeline, which fits the threaded
/// server (a generation lives on one stack frame) but not an event
/// loop, where per-connection state must be storable. This cell makes
/// the borrow self-referential under a narrow, documented contract.
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
    fn new(slot: &ModelSlot, config: &ServerConfig, obs: &Observability) -> Generation {
        let epoch = slot.epoch();
        let pipeline = slot.current();
        let model_id = pipeline.model_id();
        // SAFETY: see the struct-level invariants — the reference targets
        // the Arc's heap allocation, which outlives `classifier` by field
        // order, is address-stable, and is never mutated.
        let pinned: &'static ClassifierPipeline = unsafe { &*Arc::as_ptr(&pipeline) };
        let mut classifier = match config.session.window {
            Some(w) => OnlineClassifier::with_window(pinned, w),
            None => OnlineClassifier::new(pinned),
        };
        classifier.set_tracer(obs.tracer.clone());
        Generation { classifier, pipeline, epoch, model_id }
    }
}

/// Registry handles one shard clones once and shares across all its
/// connections. The counters are the same named atomics every other
/// shard (and the threaded server) increments — the shared registry is
/// the lock-free merge point for live stats.
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

/// Protocol phase of one sharded connection.
enum Phase {
    /// Waiting for the client's `Hello`.
    Handshake,
    /// Handshake done; streaming frames against the generation.
    Steady,
}

/// Why a connection is being closed (mirrors the
/// [`SessionEnd`](crate::session::SessionEnd) arms).
enum CloseKind {
    Clean,
    Shutdown,
    Failed(ServeError),
}

/// Socket-side state of one connection, kept separate from the session
/// state so a frame borrowed from `read_buf` can be processed while
/// replies append to `write_buf` (disjoint field borrows).
struct ConnIo {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// When the first byte of the currently-pending (unparsed) frame
    /// arrived; `None` while the read buffer is empty. This is what the
    /// mid-frame stall budget and the per-frame deadline measure from,
    /// mirroring `read_frame_or_idle_timed`'s arrival stamp.
    frame_started: Option<Instant>,
}

impl ConnIo {
    /// Reads what the socket has ready, ending the turn once `read_buf`
    /// holds [`READ_TURN_BYTES`]: by then its first frame is complete (or
    /// its prefix is oversized and closes the connection), so every turn
    /// makes progress while a peer that keeps its socket full can neither
    /// grow the buffer without bound nor starve the shard's other
    /// connections. poll(2) is level-triggered, so what is left is read
    /// on the next turn. Returns `true` if the peer closed the read side.
    fn pump_read(&mut self, tmp: &mut [u8]) -> std::io::Result<bool> {
        while self.read_buf.len() < READ_TURN_BYTES {
            match self.stream.read(tmp) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    if self.frame_started.is_none() {
                        self.frame_started = Some(Instant::now());
                    }
                    self.read_buf.extend_from_slice(&tmp[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Flushes as much pending reply data as the socket accepts.
    fn pump_write(&mut self) -> std::io::Result<()> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(())
    }

    fn has_pending_writes(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

/// Buffers one shard thread reuses for every connection and request it
/// serves, so that a warm request allocates nothing of its own.
#[derive(Default)]
struct ShardScratch {
    /// Destination of each `read(2)`.
    read_chunk: Vec<u8>,
    /// A `SnapshotBatch` request's decoded snapshots.
    snapshots: Vec<Snapshot>,
    /// The batch position each decoded snapshot came from.
    slots: Vec<usize>,
    /// Per-item dispositions: the `VerdictBatch` reply's payload.
    statuses: Vec<FrameDisposition>,
}

/// Session-side state of one connection.
struct Sess {
    session_id: u32,
    phase: Phase,
    gen: Option<Generation>,
    outcome: SessionOutcome,
    /// Trace id last seen on this session's telemetry (0 = untraced).
    last_trace: u64,
    /// One flight-recorder incident per degradation episode, mirroring
    /// `SessionObs::note_degraded`.
    degraded_noted: bool,
}

struct Conn {
    io: ConnIo,
    sess: Sess,
    closing: Option<CloseKind>,
}

/// What one frame's handler asks the loop to do next.
enum Step {
    Continue,
    Close(CloseKind),
}

/// State shared by the acceptor, every shard, and the handle.
struct ShardShared {
    slot: Arc<ModelSlot>,
    config: ServerConfig,
    shutdown: AtomicBool,
    acceptor_done: AtomicBool,
    /// Connections admitted (dealt to a shard) and not yet retired.
    in_flight: AtomicUsize,
    next_session: AtomicU32,
    overload: Mutex<OverloadMachine>,
    overload_gauge: Gauge,
    queue_depth_gauge: Gauge,
    obs: Observability,
    counters: SessionCounters,
    feed: CompositionFeed,
}

/// The sharded classification server. Protocol-compatible with
/// [`Server`](crate::Server) — same handshake, same frames, same
/// admission control, same counter names — but serving its sessions on
/// `config.shards` readiness-driven event loops instead of a
/// thread-per-session pool.
pub struct ShardServer {
    local_addr: SocketAddr,
    shared: Arc<ShardShared>,
    acceptor: Option<JoinHandle<ServerStats>>,
    shards: Vec<JoinHandle<ServerStats>>,
}

impl ShardServer {
    /// Binds the listener and spawns the acceptor plus the shard event
    /// loops.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        pipeline: Arc<ClassifierPipeline>,
        config: ServerConfig,
    ) -> Result<ShardServer> {
        ShardServer::bind_with_observability(addr, pipeline, config, Observability::new())
    }

    /// Like [`ShardServer::bind`], but instrumenting into a
    /// caller-supplied [`Observability`] bundle.
    pub fn bind_with_observability<A: ToSocketAddrs>(
        addr: A,
        pipeline: Arc<ClassifierPipeline>,
        config: ServerConfig,
        obs: Observability,
    ) -> Result<ShardServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let counters = SessionCounters::new(&obs);
        // Pre-register so the exposition names the deadline counter even
        // before the first session sheds a frame.
        let _ = obs.registry.counter("serve_deadline_shed_total");
        let overload_gauge = obs.registry.gauge("serve_overload_state");
        let queue_depth_gauge = obs.registry.gauge("serve_queue_depth");
        let shared = Arc::new(ShardShared {
            slot: Arc::new(ModelSlot::new(pipeline)),
            config,
            shutdown: AtomicBool::new(false),
            acceptor_done: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            next_session: AtomicU32::new(1),
            overload: Mutex::new(OverloadMachine::new(
                config.shed_low_watermark,
                config.shed_high_watermark,
            )),
            overload_gauge,
            queue_depth_gauge,
            obs,
            counters,
            feed: CompositionFeed::new(),
        });

        let nshards = config.shards.max(1);
        let mut txs = Vec::with_capacity(nshards);
        let mut shards = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let (tx, rx) = unbounded::<TcpStream>();
            txs.push(tx);
            let shared = Arc::clone(&shared);
            shards.push(std::thread::spawn(move || shard_loop(&shared, &rx)));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            // The acceptor owns every sender: when it exits, the
            // channels disconnect and drained shards know to stop.
            std::thread::spawn(move || shard_accept_loop(&shared, &listener, txs))
        };

        Ok(ShardServer { local_addr, shared, acceptor: Some(acceptor), shards })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The observability bundle every shard instruments into.
    pub fn observability(&self) -> &Observability {
        &self.shared.obs
    }

    /// The serve→cluster composition feed (shared with every shard).
    pub fn composition_feed(&self) -> CompositionFeed {
        self.shared.feed.clone()
    }

    /// Fingerprint of the model currently served.
    pub fn model_id(&self) -> u64 {
        self.shared.slot.current_id()
    }

    /// The shared model slot every shard polls between frames.
    pub fn model_slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.shared.slot)
    }

    /// Hot-swaps the served model; established sessions on every shard
    /// drain onto the new pipeline at their next frame.
    pub fn swap_model(&self, pipeline: Arc<ClassifierPipeline>) -> (u64, u64) {
        let start = Instant::now();
        let (old, new) = self.shared.slot.swap(pipeline);
        if old != new {
            self.shared.counters.swap_total.inc();
            self.shared.counters.swap_latency.record(start.elapsed());
            self.shared.obs.incident(&format!("server: model swap {old:#018x} -> {new:#018x}"));
        }
        (old, new)
    }

    /// Asks the acceptor and every shard to wind down. Like
    /// [`Server::shutdown`](crate::Server::shutdown) this only sets a
    /// flag that the readiness loops observe within one poll interval —
    /// no wake-up connection, so refusal accounting only ever counts
    /// real clients.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..100 {
            if self.shared.acceptor_done.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits for the acceptor and every shard, then merges the
    /// per-shard statistics into one report. Blocks until either
    /// [`ShardServer::shutdown`] or the accept limit drains.
    pub fn join(mut self) -> Result<ServerStats> {
        let mut merged = ServerStats::default();
        let mut panicked = false;
        if let Some(h) = self.acceptor.take() {
            match h.join() {
                Ok(admission) => merged.merge(&admission),
                Err(_) => panicked = true,
            }
        }
        for h in self.shards.drain(..) {
            match h.join() {
                Ok(stats) => merged.merge(&stats),
                Err(_) => panicked = true,
            }
        }
        if panicked {
            return Err(ServeError::WorkerPanicked);
        }
        Ok(merged)
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.shards.is_empty() {
            self.shutdown();
            if let Some(h) = self.acceptor.take() {
                let _ = h.join();
            }
            for h in self.shards.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Same depth→state mapping as the threaded server's overload update:
/// queue depth is admissions beyond the nominal concurrency target.
fn update_overload(shared: &ShardShared) -> OverloadState {
    let depth =
        shared.in_flight.load(Ordering::SeqCst).saturating_sub(shared.config.max_sessions.max(1));
    let (state, entered_shedding) = shared.overload.lock().update(depth);
    shared.queue_depth_gauge.set(depth as f64);
    shared.overload_gauge.set(state.gauge_value());
    if entered_shedding {
        shared.obs.incident(&format!("server: load shedding engaged (queue depth {depth})"));
    }
    state
}

/// Readiness-driven acceptor: identical admission control to the
/// threaded server (hard `SessionLimit` cap, then soft `Busy`
/// shedding), dealing admitted sockets round-robin across the shard
/// channels. Returns the admission-side statistics (rejected/busy),
/// which it owns single-threaded — no lock on the refusal path.
fn shard_accept_loop(
    shared: &ShardShared,
    listener: &TcpListener,
    txs: Vec<Sender<TcpStream>>,
) -> ServerStats {
    let mut stats = ServerStats::default();
    let capacity = shared.config.max_sessions.max(1) + shared.config.backlog;
    let mut admitted = 0u64;
    let mut next_shard = 0usize;
    let mut poll = PollSet::new();
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if shared.config.accept_limit.is_some_and(|limit| admitted >= limit) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let _ = poll.wait_readable(listener, ACCEPT_POLL_INTERVAL);
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = stream.set_nonblocking(false);
            refuse(stream, ByeReason::Shutdown);
            break;
        }
        if shared.in_flight.load(Ordering::SeqCst) >= capacity {
            stats.sessions_rejected += 1;
            shared.counters.rejected.inc();
            let _ = stream.set_nonblocking(false);
            refuse(stream, ByeReason::SessionLimit);
            continue;
        }
        if update_overload(shared) == OverloadState::Shedding {
            stats.sessions_busy += 1;
            shared.counters.shed.inc();
            let _ = stream.set_nonblocking(false);
            refuse_busy(stream, shared.config.busy_retry_after);
            continue;
        }
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        admitted += 1;
        if txs[next_shard % txs.len()].send(stream).is_err() {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            break; // shards are gone; nothing can serve
        }
        next_shard = next_shard.wrapping_add(1);
    }
    shared.acceptor_done.store(true, Ordering::SeqCst);
    stats
    // Dropping `txs` disconnects the channels; drained shards exit.
}

/// One shard's event loop: drain the intake channel, poll every owned
/// socket, pump reads, parse-and-serve frames zero-copy, flush writes,
/// retire finished connections. Returns the shard's final stats.
fn shard_loop(shared: &ShardShared, rx: &Receiver<TcpStream>) -> ServerStats {
    let mut stats = ServerStats::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll = PollSet::new();
    let mut scratch = ShardScratch { read_chunk: vec![0u8; READ_CHUNK], ..Default::default() };
    let sobs = ShardObs::new(&shared.obs);
    let stall_budget = shared.config.read_timeout.saturating_mul(MID_FRAME_TIMEOUT_BUDGET);

    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);

        // --- intake ------------------------------------------------------
        let mut disconnected = false;
        loop {
            match rx.try_recv() {
                Ok(stream) => admit(stream, shutting_down, &mut conns, &mut stats, shared),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }

        // --- shutdown drain ----------------------------------------------
        if shutting_down {
            for mut conn in conns.drain(..) {
                let kind = match conn.sess.phase {
                    // Mirror the threaded handshake: a client that never
                    // said Hello is refused, which counts as a failure.
                    Phase::Handshake => {
                        CloseKind::Failed(ServeError::Rejected { reason: ByeReason::Shutdown })
                    }
                    Phase::Steady => CloseKind::Shutdown,
                };
                append_frame(
                    &mut conn.io.write_buf,
                    &ControlFrame::Bye { reason: ByeReason::Shutdown },
                );
                let _ = conn.io.pump_write(); // best-effort farewell
                retire(conn, kind, &mut stats, shared, &sobs);
            }
            if disconnected {
                break;
            }
            std::thread::sleep(SHARD_IDLE_SLEEP);
            continue;
        }

        if conns.is_empty() {
            if disconnected {
                break; // accept limit drained and nothing left to serve
            }
            // Idle: park on the intake channel itself, so a hand-off
            // wakes the shard at once instead of after a sleep.
            match rx.recv_timeout(SHARD_IDLE_SLEEP) {
                Ok(stream) => {
                    let shutting_down = shared.shutdown.load(Ordering::SeqCst);
                    admit(stream, shutting_down, &mut conns, &mut stats, shared);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // --- readiness ---------------------------------------------------
        poll.clear();
        for conn in &conns {
            poll.push(&conn.io.stream, conn.closing.is_none(), conn.io.has_pending_writes());
        }
        let _ = poll.wait(SHARD_POLL_INTERVAL);

        // --- serve every ready connection --------------------------------
        let mut i = 0;
        while i < conns.len() {
            let readable = poll.readable(i);
            let writable = poll.writable(i);
            serve_conn_turn(
                &mut conns[i],
                readable,
                writable,
                shared,
                &sobs,
                &mut scratch,
                stall_budget,
            );
            // Retire once the close decision is made and the farewell
            // (if any) is flushed; failed writes dropped their backlog.
            if conns[i].closing.is_some() && !conns[i].io.has_pending_writes() {
                let mut conn = conns.swap_remove(i);
                let kind = conn.closing.take().unwrap_or(CloseKind::Clean);
                retire(conn, kind, &mut stats, shared, &sobs);
            } else {
                i += 1;
            }
        }
    }
    stats
}

/// Takes one connection the acceptor dealt to this shard: refused with
/// `Bye(Shutdown)` if the shard is shutting down, otherwise made
/// nonblocking and added to `conns` in the handshake phase.
fn admit(
    stream: TcpStream,
    shutting_down: bool,
    conns: &mut Vec<Conn>,
    stats: &mut ServerStats,
    shared: &ShardShared,
) {
    if shutting_down {
        // Admitted before the flag flipped; mirror the threaded worker's
        // post-shutdown refusal.
        stats.sessions_rejected += 1;
        shared.counters.rejected.inc();
        refuse(stream, ByeReason::Shutdown);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        update_overload(shared);
        return;
    }
    if stream.set_nonblocking(true).is_err() {
        stats.session_errors += 1;
        shared.counters.errors.inc();
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        update_overload(shared);
        return;
    }
    // Replies are small and latency-bound; never let Nagle sit on them.
    let _ = stream.set_nodelay(true);
    let session_id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    stats.sessions_started += 1;
    shared.counters.started.inc();
    conns.push(Conn {
        io: ConnIo {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            frame_started: None,
        },
        sess: Sess {
            session_id,
            phase: Phase::Handshake,
            gen: None,
            outcome: SessionOutcome::default(),
            last_trace: 0,
            degraded_noted: false,
        },
        closing: None,
    });
}

/// One event-loop turn for one connection: pump reads, serve complete
/// frames, poll the swap epoch and the stall budget, flush writes.
#[allow(clippy::too_many_arguments)]
fn serve_conn_turn(
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    shared: &ShardShared,
    sobs: &ShardObs,
    scratch: &mut ShardScratch,
    stall_budget: Duration,
) {
    if readable && conn.closing.is_none() {
        match conn.io.pump_read(&mut scratch.read_chunk) {
            Ok(eof) => {
                serve_pending_frames(conn, shared, sobs, scratch);
                if eof && conn.closing.is_none() {
                    // Peer vanished without Bye: mirror the threaded
                    // read path's ConnectionClosed.
                    conn.closing = Some(CloseKind::Failed(ServeError::ConnectionClosed));
                }
            }
            Err(e) => {
                if conn.closing.is_none() {
                    conn.closing = Some(CloseKind::Failed(e.into()));
                }
            }
        }
    } else if conn.closing.is_none() {
        // Quiet socket: poll the swap epoch and the mid-frame stall
        // budget, like the threaded loop's idle ticks.
        rebuild_if_swapped(&mut conn.sess, shared, sobs);
        if let Some(started) = conn.io.frame_started {
            if !conn.io.read_buf.is_empty() && started.elapsed() > stall_budget {
                conn.closing = Some(CloseKind::Failed(ServeError::Io(std::io::Error::from(
                    ErrorKind::TimedOut,
                ))));
            }
        }
    }

    if writable || conn.io.has_pending_writes() {
        if let Err(e) = conn.io.pump_write() {
            if conn.closing.is_none() {
                conn.closing = Some(CloseKind::Failed(e.into()));
            }
            // The farewell cannot be delivered; drop the backlog so the
            // connection retires immediately.
            conn.io.write_buf.clear();
            conn.io.write_pos = 0;
        }
    }
    if conn.closing.is_none() && conn.io.write_buf.len() - conn.io.write_pos > MAX_WRITE_BACKLOG {
        conn.closing =
            Some(CloseKind::Failed(ServeError::Io(std::io::Error::from(ErrorKind::WriteZero))));
        conn.io.write_buf.clear();
        conn.io.write_pos = 0;
    }
}

/// Retires a finished connection: folds its generation and outcome into
/// the shard stats, mirrors the lifecycle counters, releases its
/// admission slot, and lets the overload machine observe the drain.
fn retire(
    mut conn: Conn,
    kind: CloseKind,
    stats: &mut ServerStats,
    shared: &ShardShared,
    sobs: &ShardObs,
) {
    let Sess { gen, outcome, session_id, .. } = &mut conn.sess;
    if let Some(g) = gen.as_ref() {
        finish(outcome, &g.classifier);
    }
    stats.absorb(outcome);
    shared.feed.retire(*session_id);
    match &kind {
        CloseKind::Clean | CloseKind::Shutdown => {
            stats.sessions_finished += 1;
            shared.counters.finished.inc();
        }
        CloseKind::Failed(e) => {
            stats.session_errors += 1;
            shared.counters.errors.inc();
            sobs.obs.incident(&format!("session {session_id} failed: {e}"));
        }
    }
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    update_overload(shared);
}

/// If another session swapped the model, drain this connection's
/// generation into its outcome and rebuild against the new pipeline —
/// same-connection hot swap, exactly like the threaded `GenExit::Rebuild`.
fn rebuild_if_swapped(sess: &mut Sess, shared: &ShardShared, sobs: &ShardObs) {
    let Some(gen) = sess.gen.as_ref() else { return };
    if shared.slot.epoch() == gen.epoch {
        return;
    }
    finish(&mut sess.outcome, &gen.classifier);
    sess.gen = Some(Generation::new(&shared.slot, &shared.config, &sobs.obs));
}

/// Parses every complete frame in the connection's read buffer and
/// serves it. Frames are decoded zero-copy: snapshot payloads are
/// classified straight out of `read_buf`.
fn serve_pending_frames(
    conn: &mut Conn,
    shared: &ShardShared,
    sobs: &ShardObs,
    scratch: &mut ShardScratch,
) {
    let Conn { io, sess, closing } = conn;
    let ConnIo { read_buf, write_buf, frame_started, .. } = io;
    let mut at = 0usize;
    let mut consumed_any = false;
    loop {
        // Between frames is where swaps are observed, like the threaded
        // loop checking the epoch before each read.
        rebuild_if_swapped(sess, shared, sobs);
        let rest = &read_buf[at..];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            *closing = Some(CloseKind::Failed(ServeError::FrameTooLarge {
                size: len,
                max: MAX_FRAME_BYTES,
            }));
            break;
        }
        if rest.len() < 4 + len {
            break;
        }
        let body = &read_buf[at + 4..at + 4 + len];
        // The first frame of a pass aged while its bytes trickled in;
        // later frames in the same buffer were all ready "now".
        let arrival =
            if consumed_any { Instant::now() } else { frame_started.unwrap_or_else(Instant::now) };
        let step = serve_frame(sess, body, arrival, write_buf, shared, sobs, scratch);
        at += 4 + len;
        consumed_any = true;
        match step {
            Step::Continue => {}
            Step::Close(kind) => {
                *closing = Some(kind);
                break;
            }
        }
    }
    if at > 0 {
        read_buf.drain(..at);
    }
    if read_buf.is_empty() {
        *frame_started = None;
    } else if consumed_any {
        // A new frame's first bytes are pending; its age starts at the
        // last parse boundary, not at the previous frame's arrival.
        *frame_started = Some(Instant::now());
    }
}

/// Serves one frame body (no length prefix) against the session,
/// appending any reply to `write_buf`. The session semantics here are a
/// line-for-line mirror of `session::run_generation`; the difference is
/// purely mechanical (borrowed payloads, buffered writes, per-request
/// vectors kept in the shard's `scratch`).
fn serve_frame(
    sess: &mut Sess,
    body: &[u8],
    arrival: Instant,
    write_buf: &mut Vec<u8>,
    shared: &ShardShared,
    sobs: &ShardObs,
    scratch: &mut ShardScratch,
) -> Step {
    let session_config = shared.config.session;
    let frame = match wire::decode_control_borrowed(body) {
        Ok(frame) => frame,
        Err(_) => {
            // The session envelope itself is corrupt: framing is lost.
            append_frame(write_buf, &ControlFrame::Bye { reason: ByeReason::Protocol });
            if let Some(gen) = sess.gen.as_mut() {
                gen.classifier.note_malformed();
            }
            return Step::Close(CloseKind::Failed(ServeError::Handshake {
                reason: "framing lost",
            }));
        }
    };

    if matches!(sess.phase, Phase::Handshake) {
        return match frame.to_owned_frame() {
            ControlFrame::Hello { model_id, .. } => {
                let served = shared.slot.current_id();
                if !shared.slot.accepts(model_id) {
                    append_frame(
                        write_buf,
                        &ControlFrame::Bye { reason: ByeReason::ModelMismatch },
                    );
                    return Step::Close(CloseKind::Failed(ServeError::ModelMismatch {
                        offered: model_id,
                        served,
                    }));
                }
                append_frame(
                    write_buf,
                    &ControlFrame::Hello { session: sess.session_id, model_id: served },
                );
                sess.phase = Phase::Steady;
                sess.gen = Some(Generation::new(&shared.slot, &shared.config, &sobs.obs));
                Step::Continue
            }
            other => {
                append_frame(write_buf, &ControlFrame::Bye { reason: ByeReason::Protocol });
                Step::Close(CloseKind::Failed(ServeError::UnexpectedFrame {
                    expected: "Hello",
                    got: other.name(),
                }))
            }
        };
    }

    let model_id = sess.gen.as_ref().expect("steady phase always has a generation").model_id;
    match frame {
        ControlFrameRef::Snapshot { wire: bytes, ctx } => {
            let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
            if let Some(c) = ctx {
                sess.last_trace = c.trace_id;
            }
            sess.outcome.frames_in += 1;
            sobs.frames_in.inc();
            if sess.outcome.frames_in > session_config.frame_budget {
                append_frame(write_buf, &ControlFrame::Bye { reason: ByeReason::FrameBudget });
                return Step::Close(CloseKind::Clean);
            }
            if deadline_exceeded(&session_config, arrival) {
                sess.outcome.frames_deadline_shed += 1;
                sobs.frames_deadline_shed.inc();
                note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "deadline shed");
                let notice = busy_frame(&session_config);
                append_frame(write_buf, &notice);
                return Step::Continue;
            }
            // The inner datagram crossed the client's (possibly faulty)
            // telemetry channel unprotected: decode failures here are
            // expected degradation, not protocol errors.
            let gen = sess.gen.as_mut().expect("steady phase always has a generation");
            match wire::decode(bytes) {
                Ok(snapshot) => match gen.classifier.push_guarded(&snapshot) {
                    Ok(FrameVerdict::Repaired { .. }) => {
                        sess.outcome.frames_repaired += 1;
                        sobs.frames_repaired.inc();
                        note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "repaired");
                    }
                    Ok(FrameVerdict::Dropped { .. }) => {
                        sess.outcome.frames_dropped += 1;
                        sobs.frames_dropped.inc();
                        note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "dropped");
                    }
                    Ok(FrameVerdict::Accepted) => {}
                    Err(e) => return Step::Close(CloseKind::Failed(e.into())),
                },
                Err(_) => {
                    sess.outcome.frames_malformed += 1;
                    gen.classifier.note_malformed();
                    sobs.frames_malformed.inc();
                    note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "malformed");
                }
            }
            publish_feed(
                Some(&shared.feed),
                sess.session_id,
                &gen.classifier,
                model_id,
                sess.last_trace,
            );
            Step::Continue
        }
        ControlFrameRef::SnapshotBatch { wires, ctx } => {
            let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
            if let Some(c) = ctx {
                sess.last_trace = c.trace_id;
            }
            let n = wires.len() as u64;
            sess.outcome.frames_in += n;
            sobs.frames_in.add(n);
            if sess.outcome.frames_in > session_config.frame_budget {
                append_frame(write_buf, &ControlFrame::Bye { reason: ByeReason::FrameBudget });
                return Step::Close(CloseKind::Clean);
            }
            if deadline_exceeded(&session_config, arrival) {
                sess.outcome.frames_deadline_shed += n;
                sobs.frames_deadline_shed.add(n);
                note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "deadline shed");
                let statuses = &mut scratch.statuses;
                statuses.clear();
                statuses.resize(wires.len(), FrameDisposition::Expired);
                append_verdict_batch(write_buf, statuses);
                return Step::Continue;
            }
            let gen = sess.gen.as_mut().expect("steady phase always has a generation");
            let ShardScratch { snapshots, slots, statuses, .. } = scratch;
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
            let verdicts = match gen.classifier.push_batch_guarded(snapshots) {
                Ok(v) => v,
                Err(e) => return Step::Close(CloseKind::Failed(e.into())),
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
            sess.outcome.frames_repaired += repaired;
            sess.outcome.frames_dropped += dropped;
            sess.outcome.frames_malformed += malformed;
            if repaired > 0 {
                sobs.frames_repaired.add(repaired);
                note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "repaired");
            }
            if dropped > 0 {
                sobs.frames_dropped.add(dropped);
                note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "dropped");
            }
            if malformed > 0 {
                sobs.frames_malformed.add(malformed);
                note_degraded(&mut sess.degraded_noted, sobs, sess.session_id, "malformed");
            }
            append_verdict_batch(write_buf, statuses);
            publish_feed(
                Some(&shared.feed),
                sess.session_id,
                &gen.classifier,
                model_id,
                sess.last_trace,
            );
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Classify { ctx }) => {
            let _scope = TraceScope::enter(ctx.map(|c| c.trace_id));
            if let Some(c) = ctx {
                sess.last_trace = c.trace_id;
            }
            let gen = sess.gen.as_ref().expect("steady phase always has a generation");
            let span = sobs.obs.tracer.span(sobs.classify_span);
            let start = Instant::now();
            let verdict = verdict_frame(&gen.classifier, model_id, ctx);
            append_frame(write_buf, &verdict);
            drop(span);
            let elapsed = start.elapsed();
            sess.outcome.classify_latency.record(elapsed);
            sobs.classify_latency.record(elapsed);
            sobs.classify_total.inc();
            sess.outcome.verdicts += 1;
            publish_feed(
                Some(&shared.feed),
                sess.session_id,
                &gen.classifier,
                model_id,
                sess.last_trace,
            );
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::SwapModel { json }) => {
            let start = Instant::now();
            let new = match ClassifierPipeline::from_json(&json) {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    // An undecodable model is a protocol-level failure:
                    // nothing was installed, and the typed core error
                    // says why.
                    append_frame(write_buf, &ControlFrame::Bye { reason: ByeReason::Protocol });
                    return Step::Close(CloseKind::Failed(e.into()));
                }
            };
            let (old, new_id) = shared.slot.swap(new);
            if old != new_id {
                sobs.swap_total.inc();
                sobs.swap_latency.record(start.elapsed());
                sobs.obs.incident(&format!(
                    "session {}: model swap {old:#018x} -> {new_id:#018x}",
                    sess.session_id
                ));
            }
            let ack = ControlFrame::SwapAck { old_model: old, new_model: new_id };
            append_frame(write_buf, &ack);
            if old != new_id {
                // Our own swap: rebuild eagerly rather than waiting for
                // the next frame's epoch poll.
                rebuild_if_swapped(sess, shared, sobs);
            }
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Stats { .. }) => {
            let text = sobs.obs.registry.render();
            append_frame(write_buf, &ControlFrame::Stats { text });
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Health(_)) => {
            let gen = sess.gen.as_ref().expect("steady phase always has a generation");
            let reply = ControlFrame::Health(gen.classifier.telemetry().clone());
            append_frame(write_buf, &reply);
            Step::Continue
        }
        ControlFrameRef::Other(ControlFrame::Bye { .. }) => {
            append_frame(write_buf, &ControlFrame::Bye { reason: ByeReason::Normal });
            Step::Close(CloseKind::Clean)
        }
        ControlFrameRef::Other(other) => {
            append_frame(write_buf, &ControlFrame::Bye { reason: ByeReason::Protocol });
            Step::Close(CloseKind::Failed(ServeError::UnexpectedFrame {
                expected: "Snapshot/SnapshotBatch/Classify/SwapModel/Health/Bye",
                got: other.name(),
            }))
        }
    }
}

/// Appends the `VerdictBatch` reply for `statuses`: the vector is lent to
/// the frame for the encode and taken back afterwards.
fn append_verdict_batch(write_buf: &mut Vec<u8>, statuses: &mut Vec<FrameDisposition>) {
    let reply = ControlFrame::VerdictBatch { statuses: std::mem::take(statuses) };
    append_frame(write_buf, &reply);
    if let ControlFrame::VerdictBatch { statuses: lent } = reply {
        *statuses = lent;
    }
}

/// One flight-recorder incident per session degradation episode,
/// mirroring `SessionObs::note_degraded`. Takes the latch alone so the
/// caller can hold disjoint borrows into the rest of the session.
fn note_degraded(noted: &mut bool, sobs: &ShardObs, session_id: u32, what: &str) {
    if !*noted {
        *noted = true;
        sobs.obs.incident(&format!("session {session_id}: first degraded frame ({what})"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_read_turn_buffers_at_most_a_maximal_frame_and_a_chunk() {
        // A peer that keeps its socket full must not hold the shard in
        // one read turn: each turn ends once a maximal frame is buffered,
        // and the level-triggered poll brings the rest on later turns.
        const TOTAL: usize = 8 << 20;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut peer = TcpStream::connect(addr).unwrap();
            let chunk = vec![0xA5u8; 1 << 20];
            for _ in 0..TOTAL / chunk.len() {
                peer.write_all(&chunk).unwrap();
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut io = ConnIo {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            frame_started: None,
        };
        let mut tmp = vec![0u8; READ_CHUNK];
        let mut poll = PollSet::new();
        let (mut received, mut largest_turn) = (0, 0);
        loop {
            assert!(
                poll.wait_readable(&io.stream, Duration::from_secs(10)).unwrap(),
                "peer stalled"
            );
            let eof = io.pump_read(&mut tmp).unwrap();
            largest_turn = largest_turn.max(io.read_buf.len());
            received += io.read_buf.len();
            io.read_buf.clear();
            if eof {
                break;
            }
        }
        writer.join().unwrap();
        assert_eq!(received, TOTAL);
        assert!(
            largest_turn < 4 + MAX_FRAME_BYTES + READ_CHUNK,
            "one read turn buffered {largest_turn} bytes"
        );
    }
}
