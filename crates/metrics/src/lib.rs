//! Monitoring substrate: a Ganglia-like metric collection system.
//!
//! The paper monitors each application VM with **Ganglia** (gmond daemons
//! announcing metrics over multicast, every listener in the subnet seeing
//! every node), extended with a **vmstat**-based collector for four extra
//! metrics, and a **performance profiler** that samples the stream every
//! *d* = 5 seconds between the application's start and end times and filters
//! out the target node's snapshots.
//!
//! This crate rebuilds that stack from scratch:
//!
//! * [`metric`] — the 33-metric catalogue (29 Ganglia defaults + the paper's
//!   4 vmstat additions) with units and descriptions.
//! * [`snapshot`] — timestamped per-node metric frames and the data pool
//!   `A(n×m)` the classifier consumes.
//! * [`gmond`] — per-node monitoring daemon and the announce/listen bus that
//!   emulates Ganglia's multicast: every subscriber sees every node.
//! * [`aggregator`] — the subnet-wide collector (gmetad analogue).
//! * [`federation`] — the gmetad tree: per-cluster summaries federated
//!   into a grid view.
//! * [`wire`] — the XDR-style binary codec gmond announcements travel in.
//! * [`faults`] — deterministic seeded fault injection (drop, duplicate,
//!   reorder, stall, spike, non-finite corruption, byte truncation) for
//!   sources, wire datagrams, and recorded streams.
//! * [`repair`] — the [`FrameGuard`] validation/repair stage (last-good
//!   imputation with bounded repair streaks, duplicate/reorder/gap
//!   detection, [`TelemetryHealth`] accounting) and staleness-based source
//!   eviction.
//! * [`vmstat`] — the add-on collector contributing the four I/O and paging
//!   metrics the paper grafted into gmond's metric list.
//! * [`profiler`] — the performance profiler + filter of the paper's
//!   Figure 1: start/stop sampling, target-node extraction, pool assembly.
//! * [`selfmon`] — the self-monitoring adapter: scrapes an observability
//!   metric registry into [`MetricFrame`]s so the classifier can profile
//!   and classify its own resource signature.
//! * [`instrument`] — per-stage sample/time accounting ([`StageMetrics`])
//!   shared by the profiler and the classification dataflow, reproducing
//!   the §5.3 cost measurement with a per-stage breakdown.
//!
//! The bus supports both a deterministic synchronous mode (used by the
//! reproduction experiments so runs are bit-reproducible) and a threaded
//! mode where gmond daemons run on their own threads and announce through
//! std `mpsc` channels (used to demonstrate the monitoring path is genuinely
//! concurrent).

#![warn(missing_docs)]

pub mod aggregator;
pub mod error;
pub mod faults;
pub mod federation;
pub mod filter;
pub mod gmond;
pub mod instrument;
pub mod metric;
pub mod profiler;
pub mod repair;
pub mod selfmon;
pub mod snapshot;
pub mod vmstat;
pub mod wire;

pub use error::{Error, Result};
pub use faults::{ChannelStats, FaultPlan, FaultyChannel, FaultySource};
pub use instrument::{StageMetrics, StageStat};
pub use metric::{MetricFrame, MetricId, METRIC_COUNT};
pub use repair::{
    Admission, DropReason, FrameGuard, FrameVerdict, GuardConfig, SourceStatus, StalenessPolicy,
    StalenessTracker, TelemetryHealth,
};
pub use selfmon::SelfScraper;
pub use snapshot::{DataPool, NodeId, Snapshot};
pub use wire::{ByeReason, ControlFrame, ControlFrameRef, FrameDisposition};
