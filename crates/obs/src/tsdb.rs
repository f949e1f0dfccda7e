//! In-process time-series store over the metric registry.
//!
//! The registry answers "what is the value *now*"; trend questions —
//! is the shed ratio climbing, what was classify p99 over the last ten
//! seconds — need history. [`TsStore`] keeps that history in
//! fixed-capacity rings, one per metric, filled by calling
//! [`TsStore::scrape`] on a caller-driven tick (there is no internal
//! thread).
//!
//! Semantics per metric kind:
//!
//! * **Counters** store the cumulative value at each tick;
//!   [`TsStore::rate`] and [`TsStore::delta`] difference the window's
//!   endpoints, so counter resets clamp to zero instead of going
//!   negative.
//! * **Gauges** store the last-seen value at each tick.
//! * **Histograms** store the *per-interval* distribution: each tick
//!   records the bucket-wise delta since the previous tick (stack-only
//!   [`LatencyHistogram`]s). [`TsStore::quantile`] merges the deltas
//!   inside the window and quantiles the merge, so a window covering
//!   every tick reproduces the live histogram's quantiles exactly.
//!
//! Rings are allocated to full capacity when a series is first seen, so
//! after one warm-up scrape the tick is allocation-free (proven by a
//! trap-allocator test) and memory stays bounded no matter how long the
//! store runs.

use crate::hist::LatencyHistogram;
use crate::registry::{MetricView, Registry};
use std::time::{Duration, Instant};

/// One scalar observation: scrape time (ns since store epoch) + value.
#[derive(Debug, Clone, Copy, Default)]
struct ScalarPoint {
    t_ns: u64,
    value: f64,
}

/// One histogram observation: the interval's bucket-wise delta.
#[derive(Debug, Clone, Default)]
struct HistPoint {
    t_ns: u64,
    delta: LatencyHistogram,
}

/// Fixed-capacity overwrite-oldest ring, fully allocated up front so
/// pushes after construction never touch the heap.
#[derive(Debug)]
struct Ring<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
}

impl<T: Clone + Default> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring { buf: vec![T::default(); capacity.max(2)], head: 0, len: 0 }
    }

    fn push(&mut self, value: T) {
        let cap = self.buf.len();
        if self.len == cap {
            self.buf[self.head] = value;
            self.head = (self.head + 1) % cap;
        } else {
            let idx = (self.head + self.len) % cap;
            self.buf[idx] = value;
            self.len += 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |i| &self.buf[(self.head + i) % self.buf.len()])
    }

    fn last(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            Some(&self.buf[(self.head + self.len - 1) % self.buf.len()])
        }
    }
}

// The histogram variant keeps its cumulative snapshot inline so the
// steady-state scrape updates it in place without indirection; series
// are few and long-lived, so the size skew costs nothing that matters.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum SeriesKind {
    Counter(Ring<ScalarPoint>),
    Gauge(Ring<ScalarPoint>),
    Histogram { points: Ring<HistPoint>, last_cum: LatencyHistogram },
}

#[derive(Debug)]
struct Series {
    name: String,
    kind: SeriesKind,
}

/// Fixed-capacity ring time-series store scraped from a [`Registry`].
#[derive(Debug)]
pub struct TsStore {
    capacity: usize,
    epoch: Instant,
    last_t_ns: u64,
    series: Vec<Series>,
}

impl TsStore {
    /// A store keeping up to `capacity_per_series` points per metric.
    pub fn new(capacity_per_series: usize) -> Self {
        TsStore {
            capacity: capacity_per_series.max(2),
            epoch: Instant::now(),
            last_t_ns: 0,
            series: Vec::new(),
        }
    }

    /// Scrapes every metric in the registry at the current time,
    /// returning the tick's timestamp (ns since the store's epoch).
    /// Allocation-free once every series has been seen at least once.
    pub fn scrape(&mut self, registry: &Registry) -> u64 {
        let d = Instant::now().saturating_duration_since(self.epoch);
        let t_ns =
            d.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(d.subsec_nanos()));
        self.scrape_at(registry, t_ns);
        t_ns
    }

    /// [`TsStore::scrape`] with a caller-supplied tick timestamp, for
    /// deterministic tests and replayed timelines. Timestamps should be
    /// non-decreasing; the store does not reorder points.
    pub fn scrape_at(&mut self, registry: &Registry, t_ns: u64) {
        self.last_t_ns = self.last_t_ns.max(t_ns);
        let (capacity, series) = (self.capacity, &mut self.series);
        registry.visit(|name, view| {
            let idx = match series.iter().position(|s| s.name == name) {
                Some(idx) => idx,
                None => {
                    // First sight of this metric: allocate its ring to
                    // full capacity (the one-time warm-up cost).
                    let kind = match &view {
                        MetricView::Counter(_) => SeriesKind::Counter(Ring::new(capacity)),
                        MetricView::Gauge(_) => SeriesKind::Gauge(Ring::new(capacity)),
                        MetricView::Histogram(_) => SeriesKind::Histogram {
                            points: Ring::new(capacity),
                            last_cum: LatencyHistogram::new(),
                        },
                    };
                    series.push(Series { name: name.to_string(), kind });
                    series.len() - 1
                }
            };
            match (&mut series[idx].kind, view) {
                (SeriesKind::Counter(ring), MetricView::Counter(v)) => {
                    ring.push(ScalarPoint { t_ns, value: v as f64 });
                }
                (SeriesKind::Gauge(ring), MetricView::Gauge(v)) => {
                    ring.push(ScalarPoint { t_ns, value: v });
                }
                (SeriesKind::Histogram { points, last_cum }, MetricView::Histogram(cum)) => {
                    points.push(HistPoint { t_ns, delta: cum.delta_since(last_cum) });
                    *last_cum = cum;
                }
                // A metric changed kind under the same name — the
                // registry panics on that first, so just skip.
                _ => {}
            }
        });
    }

    fn scalar_ring(&self, name: &str) -> Option<&Ring<ScalarPoint>> {
        match &self.series.iter().find(|s| s.name == name)?.kind {
            SeriesKind::Counter(ring) | SeriesKind::Gauge(ring) => Some(ring),
            SeriesKind::Histogram { .. } => None,
        }
    }

    fn window_cutoff(&self, window: Duration) -> u64 {
        let w = window
            .as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(window.subsec_nanos()));
        self.last_t_ns.saturating_sub(w)
    }

    /// Increase of a counter over the trailing window (difference of
    /// the first and last in-window points; resets clamp to zero).
    /// `None` for unknown or non-scalar series or fewer than two
    /// in-window points.
    pub fn delta(&self, name: &str, window: Duration) -> Option<f64> {
        let cutoff = self.window_cutoff(window);
        let ring = self.scalar_ring(name)?;
        let mut first = None;
        let mut last = None;
        for p in ring.iter().filter(|p| p.t_ns >= cutoff) {
            if first.is_none() {
                first = Some(p);
            }
            last = Some(p);
        }
        let (first, last) = (first?, last?);
        if std::ptr::eq(first, last) {
            return None;
        }
        Some((last.value - first.value).max(0.0))
    }

    /// Per-second rate of a counter over the trailing window. `None`
    /// under the same conditions as [`TsStore::delta`], or when the
    /// in-window points span zero time.
    pub fn rate(&self, name: &str, window: Duration) -> Option<f64> {
        let cutoff = self.window_cutoff(window);
        let ring = self.scalar_ring(name)?;
        let mut first = None;
        let mut last = None;
        for p in ring.iter().filter(|p| p.t_ns >= cutoff) {
            if first.is_none() {
                first = Some(p);
            }
            last = Some(p);
        }
        let (first, last) = (first?, last?);
        if last.t_ns <= first.t_ns {
            return None;
        }
        let dt_secs = (last.t_ns - first.t_ns) as f64 / 1e9;
        Some((last.value - first.value).max(0.0) / dt_secs)
    }

    /// The most recent scraped value of a scalar series.
    pub fn latest(&self, name: &str) -> Option<f64> {
        Some(self.scalar_ring(name)?.last()?.value)
    }

    /// Maximum scalar value over the trailing window.
    pub fn max_over(&self, name: &str, window: Duration) -> Option<f64> {
        let cutoff = self.window_cutoff(window);
        self.scalar_ring(name)?
            .iter()
            .filter(|p| p.t_ns >= cutoff)
            .map(|p| p.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Quantile of a histogram series over the trailing window: merges
    /// the in-window per-tick deltas and quantiles the merge. A window
    /// covering every tick reproduces the live histogram exactly.
    /// `None` for unknown/non-histogram series or an empty window.
    pub fn quantile(&self, name: &str, q: f64, window: Duration) -> Option<Duration> {
        let cutoff = self.window_cutoff(window);
        let SeriesKind::Histogram { points, .. } =
            &self.series.iter().find(|s| s.name == name)?.kind
        else {
            return None;
        };
        let mut merged = LatencyHistogram::new();
        for p in points.iter().filter(|p| p.t_ns >= cutoff) {
            merged.merge(&p.delta);
        }
        if merged.count() == 0 {
            return None;
        }
        Some(merged.quantile(q))
    }

    /// Number of distinct series discovered so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Configured points retained per series.
    pub fn capacity_per_series(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Duration = Duration::from_secs(1);

    #[test]
    fn counter_rate_matches_hand_computed_deltas() {
        let reg = Registry::new();
        let c = reg.counter("frames_total");
        let mut store = TsStore::new(16);
        c.add(100);
        store.scrape_at(&reg, 0);
        c.add(50);
        store.scrape_at(&reg, 1_000_000_000);
        c.add(150);
        store.scrape_at(&reg, 2_000_000_000);
        // Whole window: (300 - 100) / 2s = 100/s; delta = 200.
        assert_eq!(store.rate("frames_total", 2 * SEC), Some(100.0));
        assert_eq!(store.delta("frames_total", 2 * SEC), Some(200.0));
        // Trailing 1s window: (300 - 150) / 1s = 150/s.
        assert_eq!(store.rate("frames_total", SEC), Some(150.0));
        // A window too narrow to hold two points yields nothing.
        assert_eq!(store.rate("frames_total", Duration::from_millis(1)), None);
        assert_eq!(store.rate("unknown", SEC), None);
    }

    #[test]
    fn counter_reset_clamps_to_zero_rate() {
        let reg = Registry::new();
        reg.counter("r").add(500);
        let mut store = TsStore::new(8);
        store.scrape_at(&reg, 0);
        // Simulate a restarted process re-registering at a lower value:
        // a fresh registry under the same store.
        let reg2 = Registry::new();
        reg2.counter("r").add(10);
        store.scrape_at(&reg2, 1_000_000_000);
        assert_eq!(store.rate("r", 2 * SEC), Some(0.0), "resets must not go negative");
    }

    #[test]
    fn gauge_keeps_last_value_and_window_max() {
        let reg = Registry::new();
        let g = reg.gauge("load");
        let mut store = TsStore::new(8);
        g.set(0.25);
        store.scrape_at(&reg, 0);
        g.set(0.75);
        store.scrape_at(&reg, 1_000_000_000);
        g.set(0.5);
        store.scrape_at(&reg, 2_000_000_000);
        assert_eq!(store.latest("load"), Some(0.5));
        assert_eq!(store.max_over("load", 2 * SEC), Some(0.75));
        assert_eq!(store.max_over("load", Duration::ZERO), Some(0.5));
    }

    #[test]
    fn histogram_quantile_matches_live_histogram() {
        let reg = Registry::new();
        let h = reg.histogram("classify_latency");
        let mut store = TsStore::new(16);
        for n in [800u64, 900, 950] {
            h.record(Duration::from_nanos(n));
        }
        store.scrape_at(&reg, 0);
        for n in [100_000u64, 200_000] {
            h.record(Duration::from_nanos(n));
        }
        store.scrape_at(&reg, 1_000_000_000);
        let live = h.snapshot();
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                store.quantile("classify_latency", q, 2 * SEC),
                Some(live.quantile(q)),
                "window covering every tick must reproduce the live histogram at q={q}"
            );
        }
        // The trailing window sees only the second tick's delta.
        let p50_recent = store.quantile("classify_latency", 0.5, Duration::from_millis(500));
        assert!(
            p50_recent.unwrap() > Duration::from_nanos(10_000),
            "trailing window only holds the slow observations: {p50_recent:?}"
        );
    }

    #[test]
    fn ring_evicts_oldest_keeping_capacity_bounded() {
        let reg = Registry::new();
        let c = reg.counter("evict");
        let mut store = TsStore::new(4);
        for i in 0..20u64 {
            c.add(10);
            store.scrape_at(&reg, i * 1_000_000_000);
        }
        // Only the last 4 points (t=16..19, values 170..200) survive, so
        // even a huge window differences the oldest *retained* point.
        assert_eq!(store.delta("evict", Duration::from_secs(1000)), Some(30.0));
        assert_eq!(store.latest("evict"), Some(200.0));
    }

    #[test]
    fn instant_scrape_ticks_advance() {
        let reg = Registry::new();
        reg.counter("t").inc();
        let mut store = TsStore::new(8);
        let t0 = store.scrape(&reg);
        std::thread::sleep(Duration::from_millis(2));
        let t1 = store.scrape(&reg);
        assert!(t1 > t0);
        assert_eq!(store.series_count(), 1);
    }
}
