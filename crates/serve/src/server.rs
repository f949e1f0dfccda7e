//! The concurrent classification server: acceptor + worker pool.
//!
//! One acceptor thread owns the [`TcpListener`] and applies admission
//! control; admitted connections flow over a crossbeam channel to a
//! fixed pool of `max_sessions` worker threads, each of which runs the
//! [`crate::session`] state machine with its own [`OnlineClassifier`]
//! over the shared trained pipeline. No async runtime: the paper's
//! 5-second sampling period makes thread-per-session economics trivial,
//! and the pool bound keeps a connection flood from becoming a thread
//! flood.
//!
//! [`OnlineClassifier`]: appclass_core::OnlineClassifier

use crate::error::{Result, ServeError};
use crate::feed::CompositionFeed;
use crate::model::ModelSlot;
use crate::overload::{OverloadMachine, OverloadState};
use crate::poll::PollSet;
use crate::session::{refuse, refuse_busy, run_session, SessionConfig, SessionEnd};
use crate::stats::ServerStats;
use appclass_core::ClassifierPipeline;
use appclass_metrics::ByeReason;
use appclass_obs::{Counter, Gauge, Histogram, Observability};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server-wide policy, fixed at bind time.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads — the number of sessions served concurrently.
    pub max_sessions: usize,
    /// Connections allowed to queue beyond the active set before
    /// admission control starts refusing with `Bye(SessionLimit)`.
    pub backlog: usize,
    /// Stop accepting after this many admitted sessions and let
    /// [`Server::join`] return naturally (`None` = serve until
    /// [`Server::shutdown`]).
    pub accept_limit: Option<u64>,
    /// Socket read timeout; doubles as the shutdown-poll cadence of
    /// idle sessions.
    pub read_timeout: Duration,
    /// Low watermark of the overload state machine: queue depth at or
    /// above it marks the server `Degraded`, and an active shedding
    /// episode does not end until the queue drains back to it.
    pub shed_low_watermark: usize,
    /// High watermark: queue depth at or above it flips the server into
    /// `Shedding`, where new connections get a soft `Busy` refusal
    /// instead of being queued. Kept below `backlog` by default so soft
    /// refusals engage before the hard `SessionLimit` cap.
    pub shed_high_watermark: usize,
    /// The `retry_after_ms` hint carried by `Busy` refusals.
    pub busy_retry_after: Duration,
    /// Worker-group count for the sharded server
    /// ([`crate::shard::ShardServer`]): the session table is split
    /// across this many readiness-driven event loops. Ignored by the
    /// thread-per-session [`Server`].
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
            read_timeout: Duration::from_millis(50),
            shed_low_watermark: 4,
            shed_high_watermark: 6,
            busy_retry_after: Duration::from_millis(100),
            shards: 2,
            session: SessionConfig::default(),
        }
    }
}

/// State shared by the acceptor, the workers, and the [`Server`] handle.
struct Shared {
    slot: Arc<ModelSlot>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Set by the acceptor as it exits, so [`Server::shutdown`]'s
    /// bounded wait can return as soon as admission has stopped.
    acceptor_done: AtomicBool,
    /// Connections admitted to the pool and not yet finished.
    in_flight: AtomicUsize,
    next_session: AtomicU32,
    stats: Mutex<ServerStats>,
    /// Watermark-driven overload state over the admission-queue depth.
    overload: Mutex<OverloadMachine>,
    overload_gauge: Gauge,
    queue_depth_gauge: Gauge,
    obs: Observability,
    session_counters: SessionCounters,
    /// Latest per-session classification observations, for the cluster
    /// controller (see [`crate::feed`]).
    feed: CompositionFeed,
}

/// Registry counters mirroring the session-lifecycle fields of
/// [`ServerStats`], so the `Stats` exposition reflects them live.
/// Shared with the sharded server (`crate::shard`), which increments
/// the same registry atomics from every shard — its lock-free merge.
pub(crate) struct SessionCounters {
    pub(crate) started: Counter,
    pub(crate) finished: Counter,
    pub(crate) rejected: Counter,
    /// Soft `Busy` refusals while shedding (`serve_shed_total`).
    pub(crate) shed: Counter,
    pub(crate) errors: Counter,
    /// Pre-registered at bind (the session path registers the same
    /// names), so `model_swap_total` and its latency histogram appear in
    /// the `Stats` exposition even before the first swap.
    pub(crate) swap_total: Counter,
    pub(crate) swap_latency: Histogram,
}

impl SessionCounters {
    pub(crate) fn new(obs: &Observability) -> Self {
        SessionCounters {
            started: obs.registry.counter("serve_sessions_started_total"),
            finished: obs.registry.counter("serve_sessions_finished_total"),
            rejected: obs.registry.counter("serve_sessions_rejected_total"),
            shed: obs.registry.counter("serve_shed_total"),
            errors: obs.registry.counter("serve_session_errors_total"),
            swap_total: obs.registry.counter("serve_model_swap_total"),
            swap_latency: obs.registry.histogram("serve_model_swap_latency"),
        }
    }
}

/// A running classification server.
///
/// Bind, hand out [`Server::local_addr`] to clients, then either
/// [`Server::join`] (blocks until the accept limit drains) or
/// [`Server::shutdown`] followed by `join`.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the acceptor and worker threads.
    ///
    /// `addr` may carry port 0 to let the OS pick an ephemeral port;
    /// read the real one back with [`Server::local_addr`].
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        pipeline: Arc<ClassifierPipeline>,
        config: ServerConfig,
    ) -> Result<Server> {
        Server::bind_with_observability(addr, pipeline, config, Observability::new())
    }

    /// Like [`Server::bind`], but instrumenting into a caller-supplied
    /// [`Observability`] bundle — the self-classification demo uses this
    /// to scrape the server's own registry from outside.
    pub fn bind_with_observability<A: ToSocketAddrs>(
        addr: A,
        pipeline: Arc<ClassifierPipeline>,
        config: ServerConfig,
        obs: Observability,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let session_counters = SessionCounters::new(&obs);
        // Pre-register so the exposition names the deadline counter even
        // before the first session sheds a frame.
        let _ = obs.registry.counter("serve_deadline_shed_total");
        let overload_gauge = obs.registry.gauge("serve_overload_state");
        let queue_depth_gauge = obs.registry.gauge("serve_queue_depth");
        let shared = Arc::new(Shared {
            slot: Arc::new(ModelSlot::new(pipeline)),
            config,
            shutdown: AtomicBool::new(false),
            acceptor_done: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            next_session: AtomicU32::new(1),
            stats: Mutex::new(ServerStats::default()),
            overload: Mutex::new(OverloadMachine::new(
                config.shed_low_watermark,
                config.shed_high_watermark,
            )),
            overload_gauge,
            queue_depth_gauge,
            obs,
            session_counters,
            feed: CompositionFeed::new(),
        });

        let (tx, rx) = unbounded::<TcpStream>();
        // The std-backed channel shim's Receiver is not Sync, so the
        // workers share it behind a mutex: whichever worker is idle
        // holds the lock only for the handoff, then serves unlocked.
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..config.max_sessions.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener, &tx))
        };

        Ok(Server { local_addr, shared, acceptor: Some(acceptor), workers })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the aggregate statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.lock().clone()
    }

    /// The observability bundle every session instruments into. Clones
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

    /// The shared model slot — the same one sessions poll, so a swap
    /// through a cloned handle behaves exactly like [`Server::swap_model`]
    /// minus the metrics.
    pub fn model_slot(&self) -> Arc<ModelSlot> {
        Arc::clone(&self.shared.slot)
    }

    /// Hot-swaps the served model. Established sessions drain onto the
    /// new pipeline at their next frame without dropping the connection;
    /// clients pinned to the old fingerprint stay admissible through the
    /// drain window. Returns `(old_id, new_id)` — equal when the offered
    /// model is already the one served (a no-op).
    pub fn swap_model(&self, pipeline: Arc<ClassifierPipeline>) -> (u64, u64) {
        let start = std::time::Instant::now();
        let (old, new) = self.shared.slot.swap(pipeline);
        if old != new {
            self.shared.session_counters.swap_total.inc();
            self.shared.session_counters.swap_latency.record(start.elapsed());
            self.shared.obs.incident(&format!("server: model swap {old:#018x} -> {new:#018x}"));
        }
        (old, new)
    }

    /// Asks every thread to wind down: in-flight sessions drain with
    /// `Bye(Shutdown)`, queued connections are refused, the acceptor
    /// stops. Returns once the acceptor has acknowledged (bounded wait);
    /// [`Server::join`] observes the full drain.
    ///
    /// The acceptor parks in `poll(2)` with a short timeout rather than
    /// a blocking `accept`, so it observes the flag on its own within
    /// one poll interval. No wake-up connection is made: a self-connect
    /// poke would be indistinguishable from a real client, and when the
    /// server is shedding it would land in the `sessions_busy`/refusal
    /// accounting and skew the final stats.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..100 {
            if self.shared.acceptor_done.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits for the acceptor and every worker to exit, then returns the
    /// final statistics. Blocks until either [`Server::shutdown`] is
    /// called or the configured accept limit drains.
    pub fn join(mut self) -> Result<ServerStats> {
        let mut panicked = false;
        if let Some(h) = self.acceptor.take() {
            panicked |= h.join().is_err();
        }
        for h in self.workers.drain(..) {
            panicked |= h.join().is_err();
        }
        if panicked {
            return Err(ServeError::WorkerPanicked);
        }
        Ok(self.shared.stats.lock().clone())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped-without-join server must not leak parked threads.
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.shutdown();
            if let Some(h) = self.acceptor.take() {
                let _ = h.join();
            }
            for h in self.workers.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Recomputes the admission-queue depth, feeds it through the overload
/// state machine, and mirrors both into the registry gauges. Entering
/// `Shedding` latches one flight-recorder incident per episode.
fn update_overload(shared: &Shared) -> OverloadState {
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

/// How long the acceptor parks in `poll(2)` before re-checking the
/// shutdown flag; the upper bound on shutdown latency for an idle
/// listener.
const ACCEPT_POLL_INTERVAL: Duration = Duration::from_millis(25);

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &Sender<TcpStream>) {
    let capacity = shared.config.max_sessions.max(1) + shared.config.backlog;
    let mut admitted = 0u64;
    // Readiness-driven accept: the listener is nonblocking, and the
    // loop parks in poll(2) with a short timeout. Shutdown is observed
    // within one interval without any wake-up connection, so the
    // refusal accounting only ever sees real clients.
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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let _ = poll.wait_readable(listener, ACCEPT_POLL_INTERVAL);
                continue;
            }
            Err(_) => {
                // Transient accept failure (e.g. the peer aborted the
                // handshake); don't let an unexpected hard error spin.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        // Linux does not propagate the listener's nonblocking flag to
        // accepted sockets, but other platforms disagree — pin the
        // session socket back to blocking for the worker pool.
        let _ = stream.set_nonblocking(false);
        if shared.shutdown.load(Ordering::SeqCst) {
            // A client that lost the race with shutdown gets a clean
            // refusal.
            refuse(stream, ByeReason::Shutdown);
            break;
        }
        // Admission control, hard cap first: a full queue is a hard
        // `SessionLimit` refusal; a queue past the shed high watermark
        // (but not yet full) is a soft `Busy` with a retry hint.
        if shared.in_flight.load(Ordering::SeqCst) >= capacity {
            shared.stats.lock().sessions_rejected += 1;
            shared.session_counters.rejected.inc();
            refuse(stream, ByeReason::SessionLimit);
            continue;
        }
        if update_overload(shared) == OverloadState::Shedding {
            shared.stats.lock().sessions_busy += 1;
            shared.session_counters.shed.inc();
            refuse_busy(stream, shared.config.busy_retry_after);
            continue;
        }
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        admitted += 1;
        if tx.send(stream).is_err() {
            break; // every worker is gone; nothing can serve
        }
    }
    shared.acceptor_done.store(true, Ordering::SeqCst);
    // Dropping `tx` (by returning) is what lets idle workers exit.
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let rx = rx.lock();
            match rx.recv() {
                Ok(stream) => stream,
                Err(_) => break, // acceptor exited and the queue drained
            }
        };
        serve_one(shared, stream);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        // Drains move the state machine too — this is what ends a
        // shedding episode once the queue empties back past the low
        // watermark.
        update_overload(shared);
    }
}

fn serve_one(shared: &Shared, stream: TcpStream) {
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.stats.lock().sessions_rejected += 1;
        shared.session_counters.rejected.inc();
        refuse(stream, ByeReason::Shutdown);
        return;
    }
    // Replies are small and latency-bound (the batch path blocks on its
    // `VerdictBatch` ack); never let Nagle sit on them.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.config.read_timeout)).is_err() {
        shared.stats.lock().session_errors += 1;
        shared.session_counters.errors.inc();
        return;
    }
    let session_id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    shared.stats.lock().sessions_started += 1;
    shared.session_counters.started.inc();
    let end = run_session(
        stream,
        session_id,
        &shared.slot,
        shared.config.session,
        &shared.shutdown,
        Some(&shared.obs),
        Some(&shared.feed),
    );
    let mut stats = shared.stats.lock();
    stats.absorb(end.outcome());
    match end {
        SessionEnd::Clean(_) | SessionEnd::Shutdown(_) => {
            stats.sessions_finished += 1;
            shared.session_counters.finished.inc();
        }
        SessionEnd::Failed(..) => {
            stats.session_errors += 1;
            shared.session_counters.errors.inc();
        }
    }
}
