//! The benchmark's own span recorder.
//!
//! Spans are recorded in memory around calls into the program's public
//! API (never inside the program) and written out as JSON lines when a
//! traced run ends. Each span has a name, a start and an end, and a work
//! count (frames, candidates, ...) so per-item figures are measured where
//! the work happened. Layer spans never nest, so a span's duration is
//! its layer's self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    items: u64,
}

/// In-memory span log for one run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    recs: Vec<Rec>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of the spans' work counts.
    pub items: u64,
}

impl Totals {
    /// Time per work item, nanoseconds (0 when no work was counted).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.items as f64
        }
    }

    /// Mean duration per span, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), recs: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span that ran from `start` to `end` and did
    /// `items` units of work.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, items: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.recs.push(Rec { name, start_ns, end_ns, items });
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for rec in &self.recs {
            let t = out.entry(rec.name).or_default();
            t.count += 1;
            t.total_ns += rec.end_ns - rec.start_ns;
            t.items += rec.items;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for rec in &self.recs {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                rec.name, rec.start_ns, rec.end_ns, rec.items
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_durations_and_items_per_name() {
        let mut s = Spans::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_nanos(300);
        let t2 = t1 + std::time::Duration::from_nanos(100);
        s.record("a", t0, t1, 3);
        s.record("a", t1, t2, 1);
        s.record("b", t0, t2, 0);
        let t = s.totals();
        assert_eq!(t["a"], Totals { count: 2, total_ns: 400, items: 4 });
        assert_eq!(t["a"].ns_per_item(), 100.0);
        assert_eq!(t["b"].ns_per_item(), 0.0, "no work counted");
        assert_eq!(t["b"].mean_ns(), 400.0);
    }
}
