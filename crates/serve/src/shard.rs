//! The classification server: readiness-driven event loops over
//! nonblocking sockets, each accepting its own connections into its own
//! session table.
//!
//! [`ShardServer`] owns the sockets, admission control and accounting;
//! what each session's frames mean is decided by the socket-free session
//! core ([`crate::session`]). The execution model:
//!
//! - **Admission.** `config.shards` event loops share the listener.
//!   While the server admits, each polls it beside its own sockets and
//!   accepts at most one connection a turn, so a burst spreads over the
//!   shards it wakes. Each accepted connection is decided under one lock,
//!   so shards racing for the listener admit one at a time: a full queue
//!   earns a hard `Bye(SessionLimit)`, a shedding server a soft `Busy`
//!   (see [`crate::overload`]); every other connection is admitted.
//! - **Sharded session table.** An admitted connection joins the table
//!   of the shard that accepted it and is served on that same turn. Each
//!   shard owns its connections outright — session state never crosses a
//!   shard boundary, so there is no session-table lock anywhere.
//! - **Readiness-driven I/O.** Every socket is nonblocking; each shard
//!   parks in `poll(2)` ([`crate::poll`]) and only touches sockets the
//!   kernel reports ready. No async runtime, per the workspace's
//!   no-tokio stance: the event loop is a plain `loop` on a plain
//!   thread. No thread wakes on a timer: every shard also polls a
//!   `Waker`, which [`ShardServer::shutdown`] rings to stop it, and a
//!   shard's one timeout is the stall deadline of the oldest partial
//!   frame it holds (or the pause after a hard accept error).
//! - **Zero-copy reads and decode.** Each connection reads straight into
//!   its own buffer, behind the bytes it already holds, and frames are
//!   parsed in place there with
//!   [`decode_control_borrowed`](appclass_metrics::wire::decode_control_borrowed):
//!   snapshot datagrams are classified straight out of the buffer the
//!   kernel filled, never copied into per-frame `Vec`s. A property test
//!   pins the borrowed decode bit-identical to the allocating path.
//! - **One lock-free ledger.** Every counter the server keeps is a
//!   registry handle built once, at [`ShardServer::bind`]; every shard
//!   counts into a clone of it with relaxed atomic adds, and the `Stats`
//!   exposition renders it live. [`ShardServer::join`] reads its
//!   [`ServerStats`] from the same handles after every shard has exited,
//!   folding in only what each shard's classifiers reported (guard
//!   health and stage costs).
//!
//! Ownership rule for the zero-copy path: a borrowed frame lives
//! exactly as long as one call to the session core — nothing borrowed
//! from the read buffer survives into connection state. Once the
//! complete frames are served, the first bytes of a frame still
//! arriving move to the front of the buffer.

use crate::error::{Result, ServeError};
use crate::feed::CompositionFeed;
use crate::lock;
use crate::model::ModelSlot;
use crate::overload::{OverloadMachine, OverloadState};
use crate::poll::{PollSet, Waker};
use crate::proto::{write_frame, MAX_FRAME_BYTES};
use crate::session::{busy, Close, Session, SessionConfig, SessionEnv};
use crate::stats::{ServeMetrics, ServerStats, Telemetry};
use appclass_core::ClassifierPipeline;
use appclass_metrics::{ByeReason, ControlFrame};
use appclass_obs::Observability;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-wide policy, fixed at bind time.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Sessions the server expects to serve at once. Every admitted
    /// session is served straight away; admissions beyond this many are
    /// the queue depth the shedding watermarks and `backlog` measure.
    pub max_sessions: usize,
    /// Queue depth allowed beyond `max_sessions` before admission
    /// control starts refusing with `Bye(SessionLimit)`.
    pub backlog: usize,
    /// Stop accepting after this many admitted sessions and let
    /// [`ShardServer::join`] return once they end (`None` = serve until
    /// [`ShardServer::shutdown`]).
    pub accept_limit: Option<u64>,
    /// How long a peer may go silent in the middle of a frame: a peer
    /// that sends no byte of a frame it has begun for this long is given
    /// up with a typed `Io(TimedOut)` failure. A frame that keeps
    /// arriving, however slowly, is never a stall.
    pub stall_budget: Duration,
    /// Low watermark of the overload state machine: queue depth at or
    /// above it marks the server `Degraded`, and an active shedding
    /// episode does not end until the queue drains back to it.
    pub shed_low_watermark: usize,
    /// High watermark: queue depth at or above it flips the server into
    /// `Shedding`, where new connections get a soft `Busy` refusal
    /// instead of being admitted. Kept below `backlog` by default so soft
    /// refusals engage before the hard `SessionLimit` cap.
    pub shed_high_watermark: usize,
    /// The `retry_after_ms` hint carried by every `Busy` frame: the
    /// refusals while shedding and a session's deadline notices alike.
    pub busy_retry_after: Duration,
    /// Event-loop threads: each accepts connections from the shared
    /// listener and serves all of the sessions it admitted on one
    /// thread.
    pub shards: usize,
    /// Per-session policy.
    pub session: SessionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            backlog: 8,
            accept_limit: None,
            stall_budget: Duration::from_secs(5),
            shed_low_watermark: 4,
            shed_high_watermark: 6,
            busy_retry_after: Duration::from_millis(100),
            shards: 2,
            session: SessionConfig::default(),
        }
    }
}

/// Room a connection's read buffer gains whenever a read has filled all
/// the room it had (and before its first read): a request up to this
/// size arrives in one `read(2)`.
const READ_CHUNK: usize = 64 * 1024;
/// Buffered bytes that end a connection's read turn: one maximal frame
/// with its length prefix.
const READ_TURN_BYTES: usize = 4 + MAX_FRAME_BYTES;
/// How long a shard leaves the listener out of its poll set after a hard
/// accept error (such as `EMFILE`), which would otherwise keep the
/// level-triggered listener ready and the shard spinning.
const ACCEPT_PAUSE: Duration = Duration::from_millis(1);
/// Hard cap on un-flushed reply bytes per connection. An event loop
/// cannot apply backpressure by blocking in `write`, so a client that
/// streams requests while never draining its acks is failed once its
/// pending replies cross this bound.
const MAX_WRITE_BACKLOG: usize = 16 * 1024 * 1024;

/// Socket-side state of one connection, kept separate from the session
/// so a frame borrowed from `read_buf` can be served while replies
/// append to `write_buf` (disjoint field borrows).
struct ConnIo {
    stream: TcpStream,
    /// Bytes read and not yet served are `read_buf[..filled]`; the rest
    /// is room the next read fills in place. The buffer grows only when
    /// a read fills all of its room, so once it holds the largest request
    /// the peer sends, a request is read with no allocation, no zero-fill
    /// and no copy.
    read_buf: Vec<u8>,
    filled: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// When the first byte of the currently-pending (unparsed) frame
    /// arrived; `None` while the read buffer is empty. The per-frame
    /// deadline measures from here.
    frame_started: Option<Instant>,
    /// When the latest bytes of the pending frame arrived; `None` while
    /// the read buffer is empty. The stall budget measures from here.
    last_read: Option<Instant>,
}

impl ConnIo {
    fn new(stream: TcpStream) -> ConnIo {
        ConnIo {
            stream,
            read_buf: Vec::new(),
            filled: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            frame_started: None,
            last_read: None,
        }
    }

    /// Reads what the socket has ready, straight into the room behind
    /// the filled part of `read_buf`, which first grows by
    /// [`READ_CHUNK`] if it has no room left. The turn ends at the first
    /// read that fills less than the room it was offered, which has taken
    /// everything the socket held, so a request pays one `read(2)` and no
    /// extra call that returns `EAGAIN`. It also ends once `read_buf`
    /// holds [`READ_TURN_BYTES`]: by then its first frame is complete (or
    /// its prefix is oversized and closes the connection), so every turn
    /// makes progress while a peer that keeps its socket full can neither
    /// grow the buffer without bound nor starve the shard's other
    /// connections. poll(2) is level-triggered, so whatever is left or
    /// arrives later is read on a later turn. Returns `true` if the peer
    /// closed the read side.
    fn pump_read(&mut self) -> std::io::Result<bool> {
        while self.filled < READ_TURN_BYTES {
            if self.filled == self.read_buf.len() {
                // A zeroed allocation, not `resize`: it costs no per-byte
                // fill loop in an unoptimized build either.
                let mut grown = vec![0u8; self.filled + READ_CHUNK];
                grown[..self.filled].copy_from_slice(&self.read_buf[..self.filled]);
                self.read_buf = grown;
            }
            let room = &mut self.read_buf[self.filled..];
            let offered = room.len();
            match self.stream.read(room) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    // A frame's first read stamps both instants with one
                    // clock read; only its later reads read it again.
                    let now = Instant::now();
                    self.frame_started.get_or_insert(now);
                    self.last_read = Some(now);
                    self.filled += n;
                    if n < offered {
                        return Ok(false);
                    }
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

struct Conn {
    io: ConnIo,
    sess: Session,
    closing: Option<Close>,
}

/// What admission control counts. It changes only under the lock in
/// `ShardShared::admission`, so shards racing for the listener admit one
/// connection at a time.
struct Admission {
    overload: OverloadMachine,
    /// Connections admitted and not yet retired.
    in_flight: usize,
    /// Connections admitted so far, counted against `accept_limit`.
    admitted: u64,
}

/// State shared by every shard and the handle.
struct ShardShared {
    slot: Arc<ModelSlot>,
    config: ServerConfig,
    /// Nonblocking; every shard polls it while `admitting` is set.
    listener: TcpListener,
    /// Set by `shutdown`, under the admission lock: every shard says
    /// farewell to its sessions and exits.
    shutdown: AtomicBool,
    /// Cleared under the admission lock, by `shutdown` or by the
    /// admission that reaches the accept limit; a shard with no session
    /// left then exits.
    admitting: AtomicBool,
    /// Wakes shard `i` out of its wait on its sockets.
    shard_wakers: Vec<Waker>,
    admission: Mutex<Admission>,
    next_session: AtomicU32,
    obs: Observability,
    /// The server's one ledger, registered in `obs.registry`.
    metrics: ServeMetrics,
    feed: CompositionFeed,
}

/// A running classification server.
///
/// Bind, hand out [`ShardServer::local_addr`] to clients, then either
/// [`ShardServer::join`] (blocks until the accept limit drains) or
/// [`ShardServer::shutdown`] followed by `join`.
pub struct ShardServer {
    local_addr: SocketAddr,
    shared: Arc<ShardShared>,
    shards: Vec<JoinHandle<Telemetry>>,
}

impl ShardServer {
    /// Binds the listener and spawns the shard event loops, which share
    /// it.
    ///
    /// `addr` may carry port 0 to let the OS pick an ephemeral port;
    /// read the real one back with [`ShardServer::local_addr`].
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        pipeline: Arc<ClassifierPipeline>,
        config: ServerConfig,
    ) -> Result<ShardServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let obs = Observability::new();
        let metrics = ServeMetrics::new(&obs.registry);
        let nshards = config.shards.max(1);
        let shared = Arc::new(ShardShared {
            slot: Arc::new(ModelSlot::new(pipeline)),
            config,
            listener,
            shutdown: AtomicBool::new(false),
            admitting: AtomicBool::new(config.accept_limit != Some(0)),
            shard_wakers: (0..nshards).map(|_| Waker::new()).collect::<std::io::Result<_>>()?,
            admission: Mutex::new(Admission {
                overload: OverloadMachine::new(
                    config.shed_low_watermark,
                    config.shed_high_watermark,
                ),
                in_flight: 0,
                admitted: 0,
            }),
            next_session: AtomicU32::new(1),
            obs,
            metrics,
            feed: CompositionFeed::new(),
        });

        let shards = (0..nshards)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shard_loop(&shared, index))
            })
            .collect();
        Ok(ShardServer { local_addr, shared, shards })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The observability bundle every shard instruments into. Clones
    /// share state, so a returned handle stays live while the server runs.
    pub fn observability(&self) -> &Observability {
        &self.shared.obs
    }

    /// The serve→cluster composition feed every session publishes into:
    /// the latest observed class/composition per session, the input a
    /// class-aware placement controller consumes. Clones share state, so
    /// a returned handle stays live while the server runs.
    pub fn composition_feed(&self) -> CompositionFeed {
        self.shared.feed.clone()
    }

    /// Fingerprint of the model currently served.
    pub fn model_id(&self) -> u64 {
        self.shared.slot.current_id()
    }

    /// The shared model slot every session checks between frames, so a
    /// swap through a cloned handle behaves exactly like
    /// [`ShardServer::swap_model`] minus the metrics.
    pub fn model_slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.shared.slot)
    }

    /// Hot-swaps the served model. Established sessions on every shard
    /// drain onto the new pipeline at their next frame without dropping
    /// the connection; clients pinned to the old fingerprint stay
    /// admissible through the drain window. Returns `(old_id, new_id)` —
    /// equal when the offered model is already the one served (a no-op).
    pub fn swap_model(&self, pipeline: Arc<ClassifierPipeline>) -> (u64, u64) {
        let start = Instant::now();
        let (old, new) = self.shared.slot.swap(pipeline);
        if old != new {
            self.shared.metrics.swap_total.inc();
            self.shared.metrics.swap_latency.record(start.elapsed());
            self.shared.obs.incident(&format!("server: model swap {old:#018x} -> {new:#018x}"));
        }
        (old, new)
    }

    /// Asks every shard to wind down. It sets the shutdown flag under
    /// the admission lock, so no connection is admitted once it returns,
    /// and wakes each shard through its `Waker`, a socket pair private to
    /// the server. It makes no wake-up connection, so refusal accounting
    /// only ever counts real clients. A woken shard says `Bye(Shutdown)`
    /// to each of its sessions before it serves anything else;
    /// [`ShardServer::join`] waits for the shards.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        {
            let _admission = lock(&shared.admission);
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.admitting.store(false, Ordering::SeqCst);
        }
        shared.wake_all();
    }

    /// Waits for every shard, then reports: every counter and the
    /// classify latencies are read from the registry handles the `Stats`
    /// exposition renders, and each shard's classifier telemetry is
    /// folded in. Blocks until either [`ShardServer::shutdown`] or the
    /// accept limit drains.
    pub fn join(mut self) -> Result<ServerStats> {
        let mut telemetry = Telemetry::default();
        let mut panicked = false;
        for h in self.shards.drain(..) {
            match h.join() {
                Ok(shard) => telemetry.merge(&shard.health, &shard.stage_metrics),
                Err(_) => panicked = true,
            }
        }
        if panicked {
            return Err(ServeError::WorkerPanicked);
        }
        Ok(self.shared.metrics.report(telemetry))
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        // A dropped-without-join server must not leak parked threads.
        if !self.shards.is_empty() {
            self.shutdown();
            for h in self.shards.drain(..) {
                let _ = h.join();
            }
        }
    }
}

impl ShardShared {
    /// Decides one connection a shard accepted, in one critical section
    /// of the admission lock. It is refused once admission has closed
    /// (`Bye(Shutdown)`, uncounted: the client lost the race with
    /// shutdown or the accept limit), past `max_sessions + backlog`
    /// (`Bye(SessionLimit)`) or while shedding (`Busy`); otherwise it is
    /// counted in flight and admitted. Returns the refusal for the caller
    /// to write once the lock is released. The admission that reaches the
    /// accept limit closes admission.
    fn admit(&self) -> std::result::Result<(), ControlFrame> {
        let capacity = self.config.max_sessions.max(1) + self.config.backlog;
        let mut admission = lock(&self.admission);
        if !self.admitting.load(Ordering::SeqCst) {
            return Err(ControlFrame::Bye { reason: ByeReason::Shutdown });
        }
        if admission.in_flight >= capacity {
            self.metrics.sessions_rejected.inc();
            return Err(ControlFrame::Bye { reason: ByeReason::SessionLimit });
        }
        let (depth, state, entered_shedding) = self.observe_depth(&mut admission);
        if state == OverloadState::Shedding {
            self.metrics.sessions_busy.inc();
            drop(admission);
            if entered_shedding {
                self.obs.incident(&format!("server: load shedding engaged (queue depth {depth})"));
            }
            return Err(busy(self.config.busy_retry_after));
        }
        admission.in_flight += 1;
        admission.admitted += 1;
        if self.config.accept_limit.is_some_and(|limit| admission.admitted >= limit) {
            self.admitting.store(false, Ordering::SeqCst);
            // A shard parked with no session left sees that and exits.
            self.wake_all();
        }
        Ok(())
    }

    /// Releases a retired connection's admission slot and lets the
    /// overload machine observe the drain. A release lowers the depth, so
    /// it never enters `Shedding`.
    fn release(&self) {
        let mut admission = lock(&self.admission);
        admission.in_flight -= 1;
        self.observe_depth(&mut admission);
    }

    /// Feeds the queue depth (admissions beyond `max_sessions`) through
    /// the overload machine and sets both registry gauges. Returns the
    /// depth, the new state and whether this update entered `Shedding`.
    fn observe_depth(&self, admission: &mut Admission) -> (usize, OverloadState, bool) {
        let depth = admission.in_flight.saturating_sub(self.config.max_sessions.max(1));
        let (state, entered_shedding) = admission.overload.update(depth);
        self.metrics.queue_depth.set(depth as f64);
        self.metrics.overload_state.set(state.gauge_value());
        (depth, state, entered_shedding)
    }

    fn wake_all(&self) {
        for waker in &self.shard_wakers {
            waker.wake();
        }
    }
}

/// Refuses a connection before any session state exists: best-effort
/// `frame` (a `Bye` or a `Busy`), then the stream drops.
pub(crate) fn refuse(stream: TcpStream, frame: &ControlFrame) {
    let _ = stream.set_nonblocking(false);
    let _ = write_frame(&mut &stream, frame);
}

/// One shard's event loop: park in `poll(2)` over the shard's sockets,
/// its waker and, while the server admits, the listener; admit at most
/// one new connection, pump reads, serve complete frames through the
/// session core, flush writes, retire finished connections. Returns its
/// sessions' classifier telemetry.
fn shard_loop(shared: &ShardShared, index: usize) -> Telemetry {
    let waker = &shared.shard_wakers[index];
    let mut telemetry = Telemetry::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll = PollSet::new();
    let mut env = SessionEnv::new(
        Arc::clone(&shared.slot),
        shared.config,
        shared.feed.clone(),
        &shared.obs,
        &shared.metrics,
    );
    let stall_budget = shared.config.stall_budget;
    // Until when a hard accept error keeps the listener out of the poll
    // set.
    let mut accept_paused: Option<Instant> = None;

    loop {
        // --- shutdown drain ----------------------------------------------
        // A connection already closing keeps its close; every other
        // session gets the farewell.
        if shared.shutdown.load(Ordering::SeqCst) {
            for mut conn in conns.drain(..) {
                let kind = match conn.closing.take() {
                    Some(kind) => kind,
                    None => conn.sess.farewell(&mut conn.io.write_buf),
                };
                let _ = conn.io.pump_write(); // best-effort farewell
                retire(conn, kind, &mut telemetry, shared);
            }
        }
        let admitting = shared.admitting.load(Ordering::SeqCst);
        if !admitting && conns.is_empty() {
            break; // nothing left to serve, and nothing more will come
        }

        // --- park until there is work ------------------------------------
        // Connection `i` polls in slot `i`, then the waker: `shutdown`
        // and the last admission under the accept limit ring it. Drain it
        // before the next look at the flags, so a ring that lands in
        // between stays pending instead of being lost.
        poll.clear();
        for conn in &conns {
            poll.push(&conn.io.stream, conn.closing.is_none(), conn.io.has_pending_writes());
        }
        let waker_slot = poll.push(waker, true, false);
        if accept_paused.is_some_and(|until| Instant::now() >= until) {
            accept_paused = None;
        }
        let listener_slot = (admitting && accept_paused.is_none())
            .then(|| poll.push(&shared.listener, true, false));
        let pause_left = accept_paused.map(|until| until.saturating_duration_since(Instant::now()));
        let timeout = [stall_timeout(&conns, stall_budget), pause_left].into_iter().flatten().min();
        let _ = poll.wait(timeout);
        shared.metrics.loop_wakeups.inc();
        if poll.readable(waker_slot) {
            waker.drain();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            continue; // say farewell before serving whatever woke with the flag
        }

        // --- accept ------------------------------------------------------
        // At most one connection a turn: the listener is level-triggered,
        // so the rest of a burst wakes the next turn, spread over every
        // shard it woke. A shard that loses the race reads `WouldBlock`.
        let polled = conns.len();
        if listener_slot.is_some_and(|slot| poll.readable(slot)) {
            match shared.listener.accept() {
                Ok((stream, _)) => take_in(stream, &mut conns, shared),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => accept_paused = Some(Instant::now() + ACCEPT_PAUSE),
            }
        }

        // --- serve every ready connection --------------------------------
        // Back to front, so `swap_remove` only ever moves a connection
        // that has had its turn, and every other keeps its poll slot.
        for i in (0..conns.len()).rev() {
            // A connection admitted this turn was not polled; its `Hello`
            // has most likely arrived with it, so it is read at once.
            let (readable, writable) =
                if i < polled { (poll.readable(i), poll.writable(i)) } else { (true, false) };
            serve_conn_turn(&mut conns[i], readable, writable, &mut env, stall_budget);
            // Retire once the close decision is made and the farewell
            // (if any) is flushed; failed writes dropped their backlog.
            if conns[i].closing.is_some() && !conns[i].io.has_pending_writes() {
                let mut conn = conns.swap_remove(i);
                let kind = conn.closing.take().unwrap_or(Close::Clean);
                retire(conn, kind, &mut telemetry, shared);
            }
        }
    }
    telemetry
}

/// How long a shard may park before the longest-silent partial frame
/// among its open connections outlives the stall budget; `None`, to park
/// until a socket or the waker is ready, when no connection holds one.
fn stall_timeout(conns: &[Conn], budget: Duration) -> Option<Duration> {
    let oldest = conns
        .iter()
        .filter(|c| c.closing.is_none() && c.io.filled > 0)
        .filter_map(|c| c.io.last_read)
        .min()?;
    let deadline = oldest.checked_add(budget)?;
    Some(deadline.saturating_duration_since(Instant::now()))
}

/// Takes in one connection this shard accepted: admitted under the
/// admission lock, then made nonblocking and added to `conns` awaiting
/// its `Hello`; a refusal is written after the lock is released.
fn take_in(stream: TcpStream, conns: &mut Vec<Conn>, shared: &ShardShared) {
    if let Err(refusal) = shared.admit() {
        refuse(stream, &refusal);
        return;
    }
    if stream.set_nonblocking(true).is_err() {
        shared.metrics.session_errors.inc();
        shared.release();
        return;
    }
    // Replies are small and latency-bound; never let Nagle sit on them.
    let _ = stream.set_nodelay(true);
    let session_id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    shared.metrics.sessions_started.inc();
    conns.push(Conn { io: ConnIo::new(stream), sess: Session::new(session_id), closing: None });
}

/// One event-loop turn for one connection: pump reads and serve complete
/// frames, or on a quiet socket enforce the stall budget; flush writes.
fn serve_conn_turn(
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    env: &mut SessionEnv,
    stall_budget: Duration,
) {
    if readable && conn.closing.is_none() {
        match conn.io.pump_read() {
            Ok(eof) => {
                serve_pending_frames(conn, env);
                if eof && conn.closing.is_none() {
                    // Peer vanished without Bye.
                    conn.closing = Some(Close::Failed(ServeError::ConnectionClosed));
                }
            }
            Err(e) => {
                if conn.closing.is_none() {
                    conn.closing = Some(Close::Failed(e.into()));
                }
            }
        }
    } else if conn.closing.is_none() {
        // Quiet socket: a peer silent in the middle of a frame past the
        // budget is given up.
        if let Some(last_read) = conn.io.last_read {
            if conn.io.filled > 0 && last_read.elapsed() > stall_budget {
                conn.closing =
                    Some(Close::Failed(ServeError::Io(std::io::Error::from(ErrorKind::TimedOut))));
            }
        }
    }

    if writable || conn.io.has_pending_writes() {
        if let Err(e) = conn.io.pump_write() {
            if conn.closing.is_none() {
                conn.closing = Some(Close::Failed(e.into()));
            }
            // The farewell cannot be delivered; drop the backlog so the
            // connection retires immediately.
            conn.io.write_buf.clear();
            conn.io.write_pos = 0;
        }
    }
    if conn.closing.is_none() && conn.io.write_buf.len() - conn.io.write_pos > MAX_WRITE_BACKLOG {
        conn.closing =
            Some(Close::Failed(ServeError::Io(std::io::Error::from(ErrorKind::WriteZero))));
        conn.io.write_buf.clear();
        conn.io.write_pos = 0;
    }
}

/// Retires a finished connection: ends its session, folds its classifier
/// telemetry into the shard's, counts how it ended, releases its
/// admission slot, and lets the overload machine observe the drain.
fn retire(conn: Conn, kind: Close, telemetry: &mut Telemetry, shared: &ShardShared) {
    let session_id = conn.sess.id();
    let ended = conn.sess.end(&shared.feed);
    telemetry.merge(&ended.health, &ended.stage_metrics);
    match &kind {
        Close::Clean | Close::Shutdown => shared.metrics.sessions_finished.inc(),
        Close::Failed(e) => {
            shared.metrics.session_errors.inc();
            shared.obs.incident(&format!("session {session_id} failed: {e}"));
        }
    }
    shared.release();
}

/// Hands every complete frame in the connection's read buffer to the
/// session core, each with the instant its first byte arrived, then
/// moves the unserved tail (a later frame's first bytes) to the front.
fn serve_pending_frames(conn: &mut Conn, env: &mut SessionEnv) {
    let Conn { io, sess, closing } = conn;
    let ConnIo { read_buf, filled, write_buf, frame_started, last_read, .. } = io;
    let mut at = 0usize;
    let mut consumed_any = false;
    loop {
        let rest = &read_buf[at..*filled];
        if rest.len() < 4 {
            break;
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            *closing =
                Some(Close::Failed(ServeError::FrameTooLarge { size: len, max: MAX_FRAME_BYTES }));
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
        let close = sess.serve_frame(body, arrival, write_buf, env);
        at += 4 + len;
        consumed_any = true;
        if close.is_some() {
            *closing = close;
            break;
        }
    }
    if at > 0 {
        read_buf.copy_within(at..*filled, 0);
        *filled -= at;
    }
    if *filled == 0 {
        *frame_started = None;
        *last_read = None;
    } else if consumed_any {
        // A new frame's first bytes are pending; its age starts at the
        // last parse boundary, not at the previous frame's arrival.
        *frame_started = Some(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::append_frame;
    use appclass_core::{AppClass, PipelineConfig};
    use appclass_linalg::Matrix;
    use appclass_metrics::{wire, MetricFrame, MetricId, NodeId, Snapshot, METRIC_COUNT};

    /// A two-class pipeline: CPU-bound and idle.
    fn trained() -> Arc<ClassifierPipeline> {
        let mut cpu = Matrix::zeros(10, METRIC_COUNT);
        for i in 0..10 {
            cpu[(i, MetricId::CpuUser.index())] = 80.0 + (i % 3) as f64;
        }
        let runs = vec![(cpu, AppClass::Cpu), (Matrix::zeros(10, METRIC_COUNT), AppClass::Idle)];
        Arc::new(ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap())
    }

    /// Waits for `stream` to turn readable, then runs one read turn and
    /// serves what it completed, as the shard loop does.
    fn read_turn(conn: &mut Conn, env: &mut SessionEnv) {
        let mut poll = PollSet::new();
        poll.push(&conn.io.stream, true, false);
        assert!(poll.wait(Some(Duration::from_secs(10))).unwrap() > 0, "peer stalled");
        assert!(!conn.io.pump_read().unwrap(), "peer closed");
        serve_pending_frames(conn, env);
    }

    /// The reply frames `conn` has queued, decoded.
    fn replies(conn: &Conn) -> Vec<ControlFrame> {
        let mut rest = &conn.io.write_buf[conn.io.write_pos..];
        let mut frames = Vec::new();
        while !rest.is_empty() {
            let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
            frames.push(wire::decode_control(&rest[4..4 + len]).unwrap());
            rest = &rest[4 + len..];
        }
        frames
    }

    #[test]
    fn a_read_that_ends_inside_the_next_frame_keeps_its_first_bytes() {
        // One read carries a whole `Hello` and the first bytes of the
        // batch behind it: the `Hello` is served, the batch's bytes move
        // to the front of the buffer with their age restarted, and the
        // read that completes the batch serves it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let obs = Observability::new();
        let metrics = ServeMetrics::new(&obs.registry);
        let slot = Arc::new(ModelSlot::new(trained()));
        let mut env =
            SessionEnv::new(slot, ServerConfig::default(), CompositionFeed::new(), &obs, &metrics);
        let mut conn = Conn { io: ConnIo::new(stream), sess: Session::new(1), closing: None };

        let mut bytes = Vec::new();
        append_frame(&mut bytes, &ControlFrame::Hello { session: 0, model_id: 0 });
        let hello_len = bytes.len();
        let snap = |t: u64| {
            let mut frame = MetricFrame::zeroed();
            frame.set(MetricId::CpuUser, 88.0);
            wire::encode(&Snapshot::new(NodeId(2), t, frame))
        };
        let wires = vec![snap(0), snap(5)];
        append_frame(&mut bytes, &ControlFrame::SnapshotBatch { wires, ctx: None });
        let split = hello_len + 6;

        // As if the `Hello`'s first bytes had arrived a second ago.
        let stale = Instant::now().checked_sub(Duration::from_secs(1)).unwrap();
        conn.io.frame_started = Some(stale);
        peer.write_all(&bytes[..split]).unwrap();
        while replies(&conn).is_empty() || conn.io.filled < split - hello_len {
            read_turn(&mut conn, &mut env);
        }
        assert!(conn.closing.is_none());
        assert!(matches!(replies(&conn)[..], [ControlFrame::Hello { session: 1, .. }]));
        assert_eq!(&conn.io.read_buf[..conn.io.filled], &bytes[hello_len..split]);
        assert!(conn.io.frame_started > Some(stale), "age restarts at the parse boundary");
        assert!(conn.io.last_read.is_some());

        peer.write_all(&bytes[split..]).unwrap();
        while conn.io.filled > 0 {
            read_turn(&mut conn, &mut env);
        }
        assert!(conn.closing.is_none());
        let frames = replies(&conn);
        assert_eq!(frames.len(), 2, "{frames:?}");
        assert_eq!(metrics.frames_in.get(), 2);
        assert_eq!((conn.io.frame_started, conn.io.last_read), (None, None));
    }

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
        let mut io = ConnIo::new(stream);
        let mut poll = PollSet::new();
        let (mut received, mut largest_turn) = (0, 0);
        loop {
            poll.clear();
            poll.push(&io.stream, true, false);
            assert!(poll.wait(Some(Duration::from_secs(10))).unwrap() > 0, "peer stalled");
            let eof = io.pump_read().unwrap();
            largest_turn = largest_turn.max(io.filled);
            received += io.filled;
            io.filled = 0;
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
