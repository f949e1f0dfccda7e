//! appclass-obs: the unified observability layer.
//!
//! The paper's whole premise is that resource telemetry reveals what a
//! system is doing — yet until this crate existed the reproduction was
//! opaque about *itself*: per-stage costs lived in `StageMetrics`, wire
//! health in `TelemetryHealth`, serving latency in `ServerStats`, none of
//! them sharing a registry or an export path. This crate is the common
//! substrate they now all report through:
//!
//! * [`span`] — a span-based tracer: [`Tracer`] hands out [`SpanGuard`]s
//!   with process-monotonic ids and parent links, recorded into a
//!   lock-free bounded ring buffer. The hot classify path records
//!   enter/exit with no heap allocation and no mutex.
//! * [`hist`] — the power-of-two-nanosecond [`LatencyHistogram`]
//!   (formerly private to `appclass-serve`) plus its lock-free
//!   [`AtomicHistogram`] sibling for registry-shared recording.
//! * [`registry`] — named [`Counter`]s, [`Gauge`]s and [`Histogram`]s in
//!   one [`Registry`], rendered as a Prometheus-style text exposition
//!   (`name{label} value` lines).
//! * [`flight`] — the [`FlightRecorder`]: on any typed error or degraded
//!   verdict, snapshot the last N spans plus registry deltas into a
//!   bounded incident log, exportable as JSONL for post-mortem replay.
//! * [`trace`] — cross-process trace propagation: the [`TraceContext`]
//!   frames carry over the wire, per-thread trace adoption
//!   ([`TraceScope`]), and the [`TraceAssembler`] that merges span
//!   dumps from several processes into one tree.
//! * [`tsdb`] — the fixed-capacity ring time-series store ([`TsStore`])
//!   scraped from the registry on a caller-driven tick, with windowed
//!   rate/quantile queries.
//! * [`slo`] — declarative objectives ([`Slo`]) with multi-window
//!   burn-rate alerting ([`SloMonitor`]), evaluated on the caller's
//!   tick.
//!
//! [`Observability`] bundles a tracer, registry and flight recorder for
//! components (like the serving stack) that want the whole layer in one
//! handle.

#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;
pub mod tsdb;

pub use flight::{FlightRecorder, Incident};
pub use hist::{AtomicHistogram, LatencyHistogram};
pub use registry::{Counter, Gauge, Histogram, MetricView, Registry};
pub use slo::{Slo, SloConfig, SloKind, SloMonitor, SloStatus};
pub use span::{
    current_trace, set_current_trace, OpenSpan, Span, SpanGuard, SpanName, TraceScope, Tracer,
};
pub use trace::{fresh_trace_id, SpanDump, TraceAssembler, TraceContext};
pub use tsdb::TsStore;

/// One handle bundling the three observability facilities a component
/// needs: a span [`Tracer`], a metric [`Registry`], and a
/// [`FlightRecorder`] wired to both.
///
/// Cloning is cheap (all three are `Arc`-backed) and clones share state,
/// so a server can hand the same bundle to every session worker.
#[derive(Debug, Clone)]
pub struct Observability {
    /// Span tracer shared by every instrumented component.
    pub tracer: Tracer,
    /// Metric registry shared by every instrumented component.
    pub registry: Registry,
    /// Incident recorder snapshotting `tracer` + `registry` on faults.
    pub flight: FlightRecorder,
}

impl Observability {
    /// A bundle with default capacities: a 4096-span ring and a 64-incident
    /// flight recorder keeping the 128 most recent spans per incident.
    pub fn new() -> Self {
        Observability::with_capacity(4096, 64, 128)
    }

    /// A bundle with explicit capacities.
    pub fn with_capacity(spans: usize, incidents: usize, spans_per_incident: usize) -> Self {
        Observability {
            tracer: Tracer::new(spans),
            registry: Registry::new(),
            flight: FlightRecorder::new(incidents, spans_per_incident),
        }
    }

    /// Records an incident from the bundled tracer and registry.
    pub fn incident(&self, reason: &str) -> u64 {
        self.flight.record(reason, &self.tracer, &self.registry)
    }
}

impl Default for Observability {
    fn default() -> Self {
        Observability::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_wires_flight_to_tracer_and_registry() {
        let obs = Observability::new();
        let name = obs.tracer.register("work");
        obs.registry.counter("work_total").inc();
        drop(obs.tracer.span(name));
        let seq = obs.incident("unit test");
        let incidents = obs.flight.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].seq, seq);
        assert_eq!(incidents[0].spans.len(), 1);
        assert!(incidents[0].metrics.iter().any(|(n, v)| n == "work_total" && *v == 1.0));
    }

    #[test]
    fn clones_share_state() {
        let obs = Observability::new();
        let clone = obs.clone();
        clone.registry.counter("shared").add(3);
        assert_eq!(obs.registry.counter("shared").get(), 3);
    }
}
