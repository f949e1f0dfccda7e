//! Sample summaries: nearest-rank percentiles that refuse to report a
//! tail they have too few samples to see, and process resource usage.

/// Samples a percentile must have *beyond* it before it is reported: a
/// p99 over fewer than 1000 samples is a maximum in disguise.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value, in the samples' unit.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank `p`-th percentile (0 < p < 100) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie strictly inside (0, 100)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct { value: sorted[rank - 1], samples: n })
}

/// Median of a non-empty slice (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Wall and process CPU time of a measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Wall-clock seconds.
    pub secs: f64,
    /// CPU microseconds, all threads.
    pub cpu_us: f64,
}

/// CPU time and peak memory of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time, microseconds (all threads).
    pub cpu_us: f64,
    /// Peak resident set size, KiB.
    pub max_rss_kib: f64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `getrusage` for `who`: 0 is the whole process, 1 the calling thread.
fn rusage(who: i32) -> RUsage {
    let mut ru = RUsage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the C layout of
    // `struct rusage` on 64-bit Linux (4 timeval words, then 14 longs),
    // and RUSAGE_SELF (0) and RUSAGE_THREAD (1) are valid `who`s.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) cannot fail with a valid buffer");
    ru
}

fn cpu_us(ru: &RUsage) -> f64 {
    (ru.utime_sec + ru.stime_sec) as f64 * 1e6 + (ru.utime_usec + ru.stime_usec) as f64
}

/// Reads this process's resource usage (`getrusage(RUSAGE_SELF)`).
pub fn usage() -> Usage {
    let ru = rusage(0);
    Usage { cpu_us: cpu_us(&ru), max_rss_kib: ru.maxrss as f64 }
}

/// CPU time of the calling thread so far, microseconds
/// (`getrusage(RUSAGE_THREAD)`).
pub fn thread_cpu_us() -> f64 {
    cpu_us(&rusage(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&few, 99.0), None, "999 samples leave only 9 beyond p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = percentile(&enough, 99.0).expect("1000 samples leave 10 beyond p99");
        assert_eq!(p.value, 989.0);
        assert_eq!(p.samples, 1000);
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0), None);
        let enough: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&enough, 50.0).map(|p| p.value), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn usage_is_positive() {
        let u = usage();
        assert!(u.max_rss_kib > 0.0);
        assert!(u.cpu_us >= 0.0);
        assert!((0.0..=usage().cpu_us).contains(&thread_cpu_us()));
    }
}
