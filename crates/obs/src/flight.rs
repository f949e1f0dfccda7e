//! Flight recorder: bounded incident log for post-mortem replay.
//!
//! When something goes wrong — a typed error, a degraded verdict — the
//! caller invokes [`FlightRecorder::record`], which snapshots the last N
//! spans from the tracer plus the registry's numeric deltas since the
//! previous incident (or construction). Incidents live in a bounded
//! deque (oldest evicted first) and export as JSONL, one incident per
//! line, so a post-mortem can replay exactly what the process was doing
//! when it tripped.

use crate::registry::Registry;
use crate::span::{Span, Tracer};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One recorded incident.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Monotonic incident number (1-based).
    pub seq: u64,
    /// Why the incident was recorded (error text, verdict kind, …).
    pub reason: String,
    /// Tracer time of the snapshot, ns since the tracer's epoch.
    pub at_ns: u64,
    /// Wall-clock time of the snapshot, ns since `UNIX_EPOCH` (the
    /// tracer's wall-clock epoch plus `at_ns`). Unlike `at_ns`, which is
    /// relative to one process's tracer, this orders incidents *across*
    /// processes.
    pub wall_ns: u64,
    /// The most recent spans at snapshot time, oldest first.
    pub spans: Vec<Span>,
    /// Registry values as deltas since the previous incident (gauges
    /// and brand-new metrics report their absolute value).
    pub metrics: Vec<(String, f64)>,
}

#[derive(Debug)]
struct FlightInner {
    max_incidents: usize,
    spans_per_incident: usize,
    incidents: VecDeque<Incident>,
    baseline: Vec<(String, f64)>,
    next_seq: u64,
}

/// Bounded incident recorder. Cheap to clone; clones share the log.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
}

impl FlightRecorder {
    /// A recorder keeping at most `max_incidents` incidents, each
    /// snapshotting up to `spans_per_incident` spans.
    pub fn new(max_incidents: usize, spans_per_incident: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                max_incidents: max_incidents.max(1),
                spans_per_incident,
                incidents: VecDeque::new(),
                baseline: Vec::new(),
                next_seq: 1,
            })),
        }
    }

    /// Records one incident from the given tracer and registry, evicting
    /// the oldest if the log is full. Returns the incident's sequence
    /// number. Cold path — takes the recorder's mutex.
    pub fn record(&self, reason: &str, tracer: &Tracer, registry: &Registry) -> u64 {
        let spans;
        let sample;
        {
            // Snapshot outside our own lock ordering concerns: tracer and
            // registry each take only their own short-lived locks.
            sample = registry.sample();
            spans = tracer
                .recent(self.inner.lock().expect("flight recorder poisoned").spans_per_incident);
        }
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let metrics = sample
            .iter()
            .map(|(name, value)| {
                let base =
                    inner.baseline.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0.0);
                (name.clone(), value - base)
            })
            .collect();
        inner.baseline = sample;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let at_ns = tracer.now_ns();
        let incident = Incident {
            seq,
            reason: reason.to_string(),
            at_ns,
            wall_ns: tracer.epoch_unix_ns().saturating_add(at_ns),
            spans,
            metrics,
        };
        if inner.incidents.len() == inner.max_incidents {
            inner.incidents.pop_front();
        }
        inner.incidents.push_back(incident);
        seq
    }

    /// Copy of the incident log, oldest first.
    pub fn incidents(&self) -> Vec<Incident> {
        self.inner.lock().expect("flight recorder poisoned").incidents.iter().cloned().collect()
    }

    /// Number of incidents currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight recorder poisoned").incidents.len()
    }

    /// True when no incident has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports the retained incidents as JSONL: one JSON object per
    /// line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let incidents = self.incidents();
        let mut out = String::new();
        for inc in &incidents {
            let _ = write!(out, "{{\"seq\":{},\"reason\":", inc.seq);
            write_json_string(&mut out, &inc.reason);
            let _ = write!(out, ",\"at_ns\":{},\"wall_ns\":{},\"spans\":[", inc.at_ns, inc.wall_ns);
            for (i, span) in inc.spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"id\":{},\"parent\":", span.id);
                match span.parent {
                    Some(p) => {
                        let _ = write!(out, "{p}");
                    }
                    None => out.push_str("null"),
                }
                out.push_str(",\"name\":");
                write_json_string(&mut out, span.name);
                let _ = write!(
                    out,
                    ",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"trace\":",
                    span.start_ns, span.end_ns, span.thread
                );
                match span.trace {
                    Some(t) => {
                        let _ = write!(out, "{t}");
                    }
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push_str("],\"metrics\":{");
            for (i, (name, value)) in inc.metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, name);
                out.push(':');
                let _ = write!(out, "{}", json_number(*value));
            }
            out.push_str("}}\n");
        }
        out
    }
}

pub(crate) fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

pub(crate) fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn setup() -> (Tracer, Registry, FlightRecorder) {
        (Tracer::new(32), Registry::new(), FlightRecorder::new(4, 8))
    }

    #[test]
    fn incident_captures_recent_spans_and_deltas() {
        let (tracer, registry, flight) = setup();
        let name = tracer.register("work");
        registry.counter("errors_total").add(2);
        drop(tracer.span(name));
        let seq = flight.record("guard dropped frame", &tracer, &registry);
        assert_eq!(seq, 1);
        let incidents = flight.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].reason, "guard dropped frame");
        assert_eq!(incidents[0].spans.len(), 1);
        assert!(incidents[0].metrics.contains(&("errors_total".to_string(), 2.0)));
    }

    #[test]
    fn deltas_reset_between_incidents() {
        let (tracer, registry, flight) = setup();
        let c = registry.counter("frames_total");
        c.add(5);
        flight.record("first", &tracer, &registry);
        c.add(3);
        flight.record("second", &tracer, &registry);
        let incidents = flight.incidents();
        assert!(incidents[0].metrics.contains(&("frames_total".to_string(), 5.0)));
        assert!(incidents[1].metrics.contains(&("frames_total".to_string(), 3.0)));
    }

    #[test]
    fn log_is_bounded_evicting_oldest() {
        let (tracer, registry, flight) = setup();
        for i in 0..10 {
            flight.record(&format!("incident {i}"), &tracer, &registry);
        }
        let incidents = flight.incidents();
        assert_eq!(incidents.len(), 4);
        assert_eq!(incidents.first().unwrap().seq, 7);
        assert_eq!(incidents.last().unwrap().seq, 10);
    }

    #[test]
    fn span_snapshot_is_bounded() {
        let (tracer, registry, _) = setup();
        let flight = FlightRecorder::new(2, 3);
        let name = tracer.register("s");
        for _ in 0..10 {
            drop(tracer.span(name));
        }
        flight.record("overflow", &tracer, &registry);
        assert_eq!(flight.incidents()[0].spans.len(), 3);
    }

    #[test]
    fn jsonl_parses_and_escapes() {
        let (tracer, registry, flight) = setup();
        let name = tracer.register("classify");
        registry.counter("bad\"name\n").inc();
        drop(tracer.span(name));
        flight.record("reason with \"quotes\"\nand newline", &tracer, &registry);
        flight.record("second", &tracer, &registry);
        let jsonl = flight.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let value: serde::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(value.get("seq").is_some());
            assert!(value.get("spans").is_some());
            assert!(value.get("metrics").is_some());
        }
        assert!(lines[0].contains("reason with \\\"quotes\\\"\\nand newline"));
    }

    #[test]
    fn empty_recorder_exports_nothing() {
        let (_, _, flight) = setup();
        assert!(flight.is_empty());
        assert_eq!(flight.to_jsonl(), "");
    }

    #[test]
    fn jsonl_carries_the_wall_clock_stamp() {
        let (tracer, registry, flight) = setup();
        flight.record("stamped", &tracer, &registry);
        let jsonl = flight.to_jsonl();
        let value: serde::Value = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        let wall = value.get("wall_ns").and_then(|v| v.as_f64()).expect("wall_ns present");
        assert!(wall > 1.5e18, "wall_ns must be unix-epoch scale, got {wall}");
    }
}
