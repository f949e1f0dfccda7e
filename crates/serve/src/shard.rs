//! The classification server: an acceptor and readiness-driven event
//! loops over nonblocking sockets, one session table per shard.
//!
//! [`ShardServer`] owns the sockets, admission control and accounting;
//! what each session's frames mean is decided by the socket-free session
//! core ([`crate::session`]). The execution model:
//!
//! - **Admission.** One acceptor thread owns the listener. A full queue
//!   earns a hard `Bye(SessionLimit)`, a shedding server a soft `Busy`
//!   (see [`crate::overload`]); every other connection is admitted.
//! - **Sharded session table.** Admitted connections are dealt
//!   round-robin to `config.shards` event loops, and each is served at
//!   once. Each shard owns its connections outright — session state
//!   never crosses a shard boundary, so there is no session-table lock
//!   anywhere.
//! - **Readiness-driven I/O.** Every socket is nonblocking; each shard
//!   parks in `poll(2)` ([`crate::poll`]) and only touches sockets the
//!   kernel reports ready. No async runtime, per the workspace's
//!   no-tokio stance: the event loop is a plain `loop` on a plain
//!   thread. No thread wakes on a timer: the acceptor and every shard
//!   also poll a `Waker`, which the acceptor rings after each
//!   hand-off and [`ShardServer::shutdown`] rings to stop them, and a
//!   shard's one timeout is the stall deadline of the oldest partial
//!   frame it holds.
//! - **Zero-copy decode.** Frames are parsed in place from the shard's
//!   read buffer with
//!   [`decode_control_borrowed`](appclass_metrics::wire::decode_control_borrowed):
//!   snapshot datagrams are classified straight out of the buffer the
//!   kernel filled, never copied into per-frame `Vec`s. A property test
//!   pins the borrowed decode bit-identical to the allocating path.
//! - **One lock-free ledger.** Every counter the server keeps is a
//!   registry handle built once, at [`ShardServer::bind`]; the acceptor
//!   and every shard count into clones of it with relaxed atomic adds,
//!   and the `Stats` exposition renders it live. [`ShardServer::join`]
//!   reads its [`ServerStats`] from the same handles after every thread
//!   has exited, folding in only what each shard's classifiers reported
//!   (guard health and stage costs).
//!
//! Ownership rule for the zero-copy path: a borrowed frame lives
//! exactly as long as one call to the session core — nothing borrowed
//! from the read buffer survives into connection state. After the call
//! returns, the consumed prefix of the read buffer is discarded.

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
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
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
    /// acceptor's refusals while shedding and a session's deadline
    /// notices alike.
    pub busy_retry_after: Duration,
    /// Event-loop threads: admitted sessions are dealt round-robin
    /// across this many shards, each serving all of its sessions on one
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

/// Read chunk size per `read(2)` call on a ready socket.
const READ_CHUNK: usize = 64 * 1024;
/// Buffered bytes that end a connection's read turn: one maximal frame
/// with its length prefix.
const READ_TURN_BYTES: usize = 4 + MAX_FRAME_BYTES;
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
    read_buf: Vec<u8>,
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
            write_buf: Vec::new(),
            write_pos: 0,
            frame_started: None,
            last_read: None,
        }
    }

    /// Reads what the socket has ready. The turn ends at the first read
    /// that fills less than `tmp`, which has taken everything the socket
    /// held, so a request pays one `read(2)` and no extra call that
    /// returns `EAGAIN`. It also ends once `read_buf` holds
    /// [`READ_TURN_BYTES`]: by then its first frame is complete (or its
    /// prefix is oversized and closes the connection), so every turn
    /// makes progress while a peer that keeps its socket full can neither
    /// grow the buffer without bound nor starve the shard's other
    /// connections. poll(2) is level-triggered, so whatever is left or
    /// arrives later is read on a later turn. Returns `true` if the peer
    /// closed the read side.
    fn pump_read(&mut self, tmp: &mut [u8]) -> std::io::Result<bool> {
        while self.read_buf.len() < READ_TURN_BYTES {
            match self.stream.read(tmp) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    // A frame's first read stamps both instants with one
                    // clock read; only its later reads read it again.
                    let now = Instant::now();
                    self.frame_started.get_or_insert(now);
                    self.last_read = Some(now);
                    self.read_buf.extend_from_slice(&tmp[..n]);
                    if n < tmp.len() {
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

/// State shared by the acceptor, every shard, and the handle.
struct ShardShared {
    slot: Arc<ModelSlot>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Wakes the acceptor out of its wait on the listener.
    acceptor_waker: Waker,
    /// Wakes shard `i` out of its wait on its sockets.
    shard_wakers: Vec<Waker>,
    /// Set once the acceptor has exited and woken every shard; signalled
    /// through `acceptor_exited`.
    acceptor_done: Mutex<bool>,
    acceptor_exited: Condvar,
    /// Connections admitted (dealt to a shard) and not yet retired.
    in_flight: AtomicUsize,
    next_session: AtomicU32,
    overload: Mutex<OverloadMachine>,
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
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<Telemetry>>,
}

impl ShardServer {
    /// Binds the listener and spawns the acceptor plus the shard event
    /// loops.
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
        let obs = Observability::new();
        let metrics = ServeMetrics::new(&obs.registry);
        let nshards = config.shards.max(1);
        let shared = Arc::new(ShardShared {
            slot: Arc::new(ModelSlot::new(pipeline)),
            config,
            shutdown: AtomicBool::new(false),
            acceptor_waker: Waker::new()?,
            shard_wakers: (0..nshards).map(|_| Waker::new()).collect::<std::io::Result<_>>()?,
            acceptor_done: Mutex::new(false),
            acceptor_exited: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            next_session: AtomicU32::new(1),
            overload: Mutex::new(OverloadMachine::new(
                config.shed_low_watermark,
                config.shed_high_watermark,
            )),
            obs,
            metrics,
            feed: CompositionFeed::new(),
        });

        let mut txs = Vec::with_capacity(nshards);
        let mut shards = Vec::with_capacity(nshards);
        for index in 0..nshards {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            txs.push(tx);
            let shared = Arc::clone(&shared);
            shards.push(std::thread::spawn(move || shard_loop(&shared, index, &rx)));
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

    /// Asks the acceptor and every shard to wind down, and returns once
    /// the acceptor has stopped admitting. It sets a flag and wakes each
    /// thread through its `Waker`, a socket pair private to the server.
    /// It makes no wake-up connection, so refusal accounting only ever
    /// counts real clients. A woken shard says `Bye(Shutdown)` to each of
    /// its sessions before it serves anything else; [`ShardServer::join`]
    /// waits for the shards.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.acceptor_waker.wake();
        for waker in &shared.shard_wakers {
            waker.wake();
        }
        // Returns early only on a poisoned lock, and only the acceptor's
        // exit, unwinding from a panic, can poison it: after it set the
        // flag.
        drop(shared.acceptor_exited.wait_while(lock(&shared.acceptor_done), |done| !*done));
    }

    /// Waits for the acceptor and every shard, then reports: every
    /// counter and the classify latencies are read from the registry
    /// handles the `Stats` exposition renders, and each shard's
    /// classifier telemetry is folded in. Blocks until either
    /// [`ShardServer::shutdown`] or the accept limit drains.
    pub fn join(mut self) -> Result<ServerStats> {
        let mut telemetry = Telemetry::default();
        let mut panicked = false;
        if let Some(h) = self.acceptor.take() {
            panicked |= h.join().is_err();
        }
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

/// Recomputes the queue depth (admissions beyond `max_sessions`), feeds
/// it through the overload state machine, and sets both registry
/// gauges. Entering `Shedding` latches one flight-recorder incident per
/// episode.
fn update_overload(shared: &ShardShared) -> OverloadState {
    let depth =
        shared.in_flight.load(Ordering::SeqCst).saturating_sub(shared.config.max_sessions.max(1));
    let (state, entered_shedding) = lock(&shared.overload).update(depth);
    shared.metrics.queue_depth.set(depth as f64);
    shared.metrics.overload_state.set(state.gauge_value());
    if entered_shedding {
        shared.obs.incident(&format!("server: load shedding engaged (queue depth {depth})"));
    }
    state
}

/// Refuses a connection before any session state exists: best-effort
/// `Bye` with the given reason, then the stream drops.
fn refuse(stream: TcpStream, reason: ByeReason) {
    let _ = stream.set_nonblocking(false);
    let _ = write_frame(&mut BufWriter::new(stream), &ControlFrame::Bye { reason });
}

/// Soft-refuses a connection the server is shedding: best-effort `Busy`
/// with a retry hint, then the stream drops. Unlike [`refuse`] with
/// `SessionLimit`, this tells the client the server is alive and worth
/// retrying after a backoff.
pub(crate) fn refuse_busy(stream: TcpStream, retry_after: Duration) {
    let _ = stream.set_nonblocking(false);
    let _ = write_frame(&mut BufWriter::new(stream), &busy(retry_after));
}

/// The acceptor's exit, however it comes (shutdown, the accept limit, or
/// a panic): disconnects every shard's intake, then wakes each shard so it
/// sees that, then releases [`ShardServer::shutdown`].
struct AcceptorExit<'a> {
    shared: &'a ShardShared,
    intakes: Vec<Sender<TcpStream>>,
}

impl Drop for AcceptorExit<'_> {
    fn drop(&mut self) {
        self.intakes.clear();
        for waker in &self.shared.shard_wakers {
            waker.wake();
        }
        *lock(&self.shared.acceptor_done) = true;
        self.shared.acceptor_exited.notify_all();
    }
}

/// Readiness-driven acceptor: admission control (hard `SessionLimit`
/// cap, then soft `Busy` shedding), dealing admitted sockets round-robin
/// across the shard channels and waking the shard each one went to.
fn shard_accept_loop(
    shared: &ShardShared,
    listener: &TcpListener,
    intakes: Vec<Sender<TcpStream>>,
) {
    let exit = AcceptorExit { shared, intakes };
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
                // Park until a client connects or `shutdown` wakes us.
                poll.clear();
                poll.push(listener, true, false);
                let waker = poll.push(&shared.acceptor_waker, true, false);
                let _ = poll.wait(None);
                shared.metrics.loop_wakeups.inc();
                if poll.readable(waker) {
                    shared.acceptor_waker.drain();
                }
                continue;
            }
            Err(_) => {
                // Transient accept failure (e.g. the peer aborted the
                // handshake); don't let an unexpected hard error spin.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // A client that lost the race with shutdown gets a clean
            // refusal.
            refuse(stream, ByeReason::Shutdown);
            break;
        }
        if shared.in_flight.load(Ordering::SeqCst) >= capacity {
            shared.metrics.sessions_rejected.inc();
            refuse(stream, ByeReason::SessionLimit);
            continue;
        }
        if update_overload(shared) == OverloadState::Shedding {
            shared.metrics.sessions_busy.inc();
            refuse_busy(stream, shared.config.busy_retry_after);
            continue;
        }
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        admitted += 1;
        let shard = next_shard % exit.intakes.len();
        if exit.intakes[shard].send(stream).is_err() {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            break; // shards are gone; nothing can serve
        }
        shared.shard_wakers[shard].wake();
        next_shard = next_shard.wrapping_add(1);
    }
}

/// One shard's event loop: drain the intake channel, park in `poll(2)`
/// over the shard's waker and every owned socket, pump reads, serve
/// complete frames through the session core, flush writes, retire
/// finished connections. Returns its sessions' classifier telemetry.
fn shard_loop(shared: &ShardShared, index: usize, rx: &Receiver<TcpStream>) -> Telemetry {
    let waker = &shared.shard_wakers[index];
    let mut telemetry = Telemetry::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut poll = PollSet::new();
    let mut read_chunk = vec![0u8; READ_CHUNK];
    let mut env = SessionEnv::new(
        Arc::clone(&shared.slot),
        shared.config,
        shared.feed.clone(),
        &shared.obs,
        &shared.metrics,
    );
    let stall_budget = shared.config.stall_budget;

    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);

        // --- intake ------------------------------------------------------
        let mut disconnected = false;
        loop {
            match rx.try_recv() {
                Ok(stream) => admit(stream, shutting_down, &mut conns, shared),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }

        // --- shutdown drain ----------------------------------------------
        // A connection already closing keeps its close; every other
        // session gets the farewell.
        if shutting_down {
            for mut conn in conns.drain(..) {
                let kind = match conn.closing.take() {
                    Some(kind) => kind,
                    None => conn.sess.farewell(&mut conn.io.write_buf),
                };
                let _ = conn.io.pump_write(); // best-effort farewell
                retire(conn, kind, &mut telemetry, shared);
            }
        }
        if disconnected && conns.is_empty() {
            break; // the acceptor is gone and nothing is left to serve
        }

        // --- park until there is work ------------------------------------
        // Slot 0 is the waker: the acceptor rings it after each hand-off
        // and on its exit, `shutdown` on the flag. Drain it before the
        // next look at the intake and the flag, so a ring that lands in
        // between stays pending instead of being lost.
        poll.clear();
        poll.push(waker, true, false);
        for conn in &conns {
            poll.push(&conn.io.stream, conn.closing.is_none(), conn.io.has_pending_writes());
        }
        let _ = poll.wait(stall_timeout(&conns, stall_budget));
        shared.metrics.loop_wakeups.inc();
        if poll.readable(0) {
            waker.drain();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            continue; // say farewell before serving whatever woke with the flag
        }

        // --- serve every ready connection --------------------------------
        // Back to front, so `swap_remove` only ever moves a connection
        // that has had its turn, and every other keeps its poll slot.
        for i in (0..conns.len()).rev() {
            let readable = poll.readable(i + 1);
            let writable = poll.writable(i + 1);
            serve_conn_turn(
                &mut conns[i],
                readable,
                writable,
                &mut env,
                &mut read_chunk,
                stall_budget,
            );
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
        .filter(|c| c.closing.is_none() && !c.io.read_buf.is_empty())
        .filter_map(|c| c.io.last_read)
        .min()?;
    let deadline = oldest.checked_add(budget)?;
    Some(deadline.saturating_duration_since(Instant::now()))
}

/// Takes one connection the acceptor dealt to this shard: refused with
/// `Bye(Shutdown)` if the shard is shutting down, otherwise made
/// nonblocking and added to `conns` awaiting its `Hello`.
fn admit(stream: TcpStream, shutting_down: bool, conns: &mut Vec<Conn>, shared: &ShardShared) {
    if shutting_down {
        // Admitted before the flag flipped, never served.
        shared.metrics.sessions_rejected.inc();
        refuse(stream, ByeReason::Shutdown);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        update_overload(shared);
        return;
    }
    if stream.set_nonblocking(true).is_err() {
        shared.metrics.session_errors.inc();
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        update_overload(shared);
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
    read_chunk: &mut [u8],
    stall_budget: Duration,
) {
    if readable && conn.closing.is_none() {
        match conn.io.pump_read(read_chunk) {
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
            if !conn.io.read_buf.is_empty() && last_read.elapsed() > stall_budget {
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
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    update_overload(shared);
}

/// Hands every complete frame in the connection's read buffer to the
/// session core, each with the instant its first byte arrived, then
/// discards the consumed bytes.
fn serve_pending_frames(conn: &mut Conn, env: &mut SessionEnv) {
    let Conn { io, sess, closing } = conn;
    let ConnIo { read_buf, write_buf, frame_started, last_read, .. } = io;
    let mut at = 0usize;
    let mut consumed_any = false;
    loop {
        let rest = &read_buf[at..];
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
        read_buf.drain(..at);
    }
    if read_buf.is_empty() {
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
        let mut tmp = vec![0u8; READ_CHUNK];
        let mut poll = PollSet::new();
        let (mut received, mut largest_turn) = (0, 0);
        loop {
            poll.clear();
            poll.push(&io.stream, true, false);
            assert!(poll.wait(Some(Duration::from_secs(10))).unwrap() > 0, "peer stalled");
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
