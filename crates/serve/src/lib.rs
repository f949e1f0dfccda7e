//! appclass-serve: a concurrent classification service over the
//! telemetry wire.
//!
//! The paper's deployment story (§6) is a monitoring daemon per node
//! feeding a central learner. This crate is that central end: a TCP
//! server, [`ShardServer`], that holds one trained
//! [`ClassifierPipeline`] in a hot-swappable [`ModelSlot`] and serves
//! many monitoring clients concurrently, each session running its own
//! [`OnlineClassifier`](appclass_core::online::OnlineClassifier) behind
//! a [`FrameGuard`](appclass_metrics::FrameGuard) so a degraded client
//! degrades only its own verdicts. A `SwapModel` frame (or
//! [`ShardServer::swap_model`]) installs a retrained pipeline while
//! established sessions drain onto the new fingerprint without
//! dropping their connections.
//!
//! The protocol is deliberately plain: length-prefixed, checksummed
//! [`ControlFrame`]s ([`appclass_metrics::wire`]) over plain
//! `std::net::TcpStream`s. The session protocol is written once, as a
//! socket-free core ([`session`]); the server ([`shard`]) serves it on
//! a few `poll(2)` event loops — no async runtime, no external
//! dependencies beyond the workspace's vendored shims.
//!
//! ```no_run
//! use appclass_serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
//! use std::sync::Arc;
//! # fn pipeline() -> appclass_core::ClassifierPipeline { unimplemented!() }
//!
//! let server = ShardServer::bind("127.0.0.1:0", Arc::new(pipeline()), ServerConfig::default())?;
//! let mut client = ServeClient::connect(server.local_addr(), ClientConfig::default())?;
//! // client.stream_snapshots(...); client.classify()?; ...
//! client.bye()?;
//! server.shutdown();
//! let stats = server.join()?;
//! println!("{stats}");
//! # Ok::<(), appclass_serve::ServeError>(())
//! ```
//!
//! [`ClassifierPipeline`]: appclass_core::ClassifierPipeline
//! [`ControlFrame`]: appclass_metrics::ControlFrame

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod error;
pub mod feed;
pub mod model;
pub mod overload;
pub mod poll;
pub mod proto;
pub mod retry;
pub mod session;
pub mod shard;
pub mod stats;

pub use appclass_obs::{Observability, SpanDump, TraceAssembler, TraceContext, Tracer};
pub use chaos::{ChaosPlan, ChaosProxy, FaultEvent};
pub use client::{BatchReport, ClientConfig, ServeClient, VerdictReport};
pub use error::{Result, ServeError};
pub use feed::{CompositionFeed, FeedEntry};
pub use model::ModelSlot;
pub use overload::{OverloadMachine, OverloadState};
pub use retry::{connect_with_retry, BreakerState, CircuitBreaker, RetryPolicy, RetryReport};
pub use session::SessionConfig;
pub use shard::{ServerConfig, ShardServer};
pub use stats::ServerStats;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex` even when a thread panicked while holding it. Every
/// update to the values these locks guard (a flag, the served model, the
/// overload state, the composition feed, the chaos proxy's event log)
/// leaves them valid at every step, so one failed thread must not stop
/// the server or the proxy from using them.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
