//! A run's result: every metric with its unit and sample count, the
//! correctness verdict, and where the numbers came from.

use crate::hostspeed::{HostSpeed, REFERENCE_NS};
use crate::stats::{percentile, Measured, Pct};

/// A run's latency samples, at the reference speed and as measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Request latencies at the reference speed, microseconds.
    pub requests: Vec<f64>,
    /// Session latencies at the reference speed, milliseconds.
    pub sessions: Vec<f64>,
    /// Request latencies as measured, microseconds.
    pub raw_requests: Vec<f64>,
    /// Session latencies as measured, milliseconds.
    pub raw_sessions: Vec<f64>,
}

impl Timed {
    /// Records request latencies (microseconds) measured while the host
    /// ran at `scale` (see [`HostSpeed::scale`]).
    pub fn requests(&mut self, us: &[f64], scale: f64) {
        self.requests.extend(us.iter().map(|v| v * scale));
        self.raw_requests.extend_from_slice(us);
    }

    /// Records one session latency (milliseconds), likewise.
    pub fn session(&mut self, ms: f64, scale: f64) {
        self.sessions.push(ms * scale);
        self.raw_sessions.push(ms);
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind a percentile, when it is one.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    errors: Vec<String>,
    provenance: Vec<(&'static str, String)>,
    /// Operations attempted (requests, sessions or placements).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// Records one figure.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(Metric { name, value, unit, samples: None });
    }

    /// Records a percentile with its sample count; a percentile the
    /// samples cannot support fails the run instead of being guessed.
    pub fn add_pct(&mut self, name: &'static str, pct: Option<Pct>, unit: &'static str) {
        match pct {
            Some(p) => self.push(Metric { name, value: p.value, unit, samples: Some(p.samples) }),
            None => self.fail(format!("{name}: too few samples for this percentile")),
        }
    }

    fn push(&mut self, m: Metric) {
        if !m.value.is_finite() {
            self.fail(format!("{}: not a finite number ({})", m.name, m.value));
            return;
        }
        self.metrics.push(m);
    }

    /// Reports the figures both workloads share over a measured run that
    /// did `frames` frames of work in `raw` wall and CPU time (`normalised`
    /// at the reference speed; see [`HostSpeed`]): throughput, request and
    /// session percentiles, and CPU per frame. Times, and a closed loop's
    /// throughput, which they set, are stated at the reference speed; the
    /// measured figures follow under `raw.`. An open loop's throughput is
    /// set by its schedule, so it is reported as measured.
    pub fn timed(
        &mut self,
        (raw, normalised): (Measured, Measured),
        t: &Timed,
        frames: u64,
        host: &HostSpeed,
        closed: bool,
    ) {
        let per_frame = frames.max(1) as f64;
        let raw_rate = frames as f64 / raw.secs;
        let rate = if closed { frames as f64 / normalised.secs } else { raw_rate };
        self.add("frames_per_s", rate, "frames/s");
        self.add_pct("request_p50_us", percentile(&t.requests, 50.0), "us");
        self.add_pct("request_p99_us", percentile(&t.requests, 99.0), "us");
        self.add_pct("session_p50_ms", percentile(&t.sessions, 50.0), "ms");
        self.add_pct("session_p99_ms", percentile(&t.sessions, 99.0), "ms");
        self.add("cpu_us_per_frame", normalised.cpu_us / per_frame, "us");
        self.add("bench.host_slowdown", host.median_ns() / REFERENCE_NS, "ratio");
        self.add("raw.frames_per_s", raw_rate, "frames/s");
        self.add_pct("raw.request_p50_us", percentile(&t.raw_requests, 50.0), "us");
        self.add_pct("raw.session_p50_ms", percentile(&t.raw_sessions, 50.0), "ms");
        self.add("raw.cpu_us_per_frame", raw.cpu_us / per_frame, "us");
        self.provenance(
            "host_speed",
            format!(
                "reference sample median {:.0} ns over {} samples (reference {:.0} ns)",
                host.median_ns(),
                host.samples(),
                REFERENCE_NS
            ),
        );
    }

    /// Marks the run incorrect, with the reason.
    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Records where the numbers came from.
    pub fn provenance(&mut self, key: &'static str, value: String) {
        self.provenance.push((key, value));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Prints the human-readable report, then the machine-readable
    /// result as one `RESULT {...}` line.
    pub fn print(&self) {
        for (k, v) in &self.provenance {
            println!("# {k}: {v}");
        }
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("{:<40} {:>16.4} {:<8} (n={n})", m.name, m.value, m.unit),
                None => println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit),
            }
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples = m.samples.map_or("null".to_string(), |n| n.to_string());
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {samples}}}",
                    quote(m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        let provenance: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
        let errors: Vec<String> = self.errors.iter().map(|e| quote(e)).collect();
        println!(
            "RESULT {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"claim\": null, \"errors\": [{}], \"provenance\": {{{}}}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            errors.join(", "),
            provenance.join(", "),
            metrics.join(", ")
        );
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_percentile_fails_the_run() {
        let mut r = Report::default();
        r.add_pct("request_p99_us", None, "us");
        assert!(!r.correct());
        assert!(r.metrics.is_empty(), "an unsupported percentile is not reported");
    }

    #[test]
    fn quotes_escape() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
