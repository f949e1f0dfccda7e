//! Host speed, measured beside the workload.
//!
//! The guest the benchmark was sized on shares its host with other
//! tenants: a fixed CPU-bound loop there takes between 1x and 1.7x its
//! best time, in phases that last from a second to minutes, and every
//! time the benchmark measures moves with it. Two runs of the same code
//! an hour apart differed by more than a third. So a run also times a
//! fixed reference sample, independent of the program under test, every
//! few operations: a compute kernel (a sort, a nearest-neighbour scan and
//! table lookups) plus loopback TCP round trips to a peer thread, large
//! and small, which weigh copying, wake-ups and context switches as the
//! served workloads do. Each time figure is then stated at the reference
//! speed. A wall figure is multiplied by [`REFERENCE_NS`] over the
//! sample's recent median wall time. A CPU figure is multiplied by
//! [`REFERENCE_CPU_NS`] over the recent median CPU time of the thread
//! that runs the sample: CPU time leaves out the time the hypervisor
//! takes the CPU away, so it slows less than wall time, and the thread's
//! own time leaves out whatever the program's threads do meanwhile. A
//! change to the program moves those figures; the host's phase does not.
//!
//! The sample shares the CPU with the program: a change that keeps a
//! program thread busy while the workload waits would slow the wall
//! reference too, and so hide part of its own cost in the wall figures.
//! `bench.host_slowdown` and the `raw.` figures show such a change.

use crate::stats::{median, thread_cpu_us, usage, Measured};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// The reference sample's time on the guest the benchmark was sized on,
/// in its fast phases: the speed every normalised figure is stated at.
pub const REFERENCE_NS: f64 = 450_000.0;
/// The CPU time the sampling thread spends on one reference sample
/// there, likewise (the echo peer's share runs on another thread).
pub const REFERENCE_CPU_NS: f64 = 320_000.0;

/// Recent samples a scale is taken over (the median of them).
const WINDOW: usize = 5;

/// Points in the kernel's nearest-neighbour pass, and queries over them.
const POINTS: usize = 512;
const QUERIES: usize = 48;
/// Keys the kernel sorts.
const KEYS: usize = 2048;
/// Words in the kernel's lookup table (256 KiB, past L1).
const TABLE: usize = 1 << 15;
/// Dependent lookups per kernel run.
const LOOKUPS: usize = 8192;
/// Loopback round trips per sample: (bytes, trips). Large messages
/// weigh copying, small ones the wake-ups and context switches.
const ECHO_TRIPS: [(usize, usize); 2] = [(8192, 4), (256, 16)];

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One run of the compute kernel: a branchy sort, a nearest-neighbour
/// scan with independent floating-point work, and dependent loads from
/// a table past L1. Returns a result so the work cannot be elided.
fn kernel() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut keys: Vec<u64> = (0..KEYS).map(|_| xorshift(&mut x)).collect();
    keys.sort_unstable();

    let unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
    let points: Vec<[f64; 2]> =
        (0..POINTS).map(|_| [unit(xorshift(&mut x)), unit(xorshift(&mut x))]).collect();
    let mut nearest = 0usize;
    for q in 0..QUERIES {
        let p = points[(q * 7) % POINTS];
        let (mut best, mut at) = (f64::INFINITY, 0usize);
        for (i, c) in points.iter().enumerate() {
            let (dx, dy) = (c[0] - p[0], c[1] - p[1]);
            let d = dx * dx + dy * dy;
            if d < best && i != (q * 7) % POINTS {
                best = d;
                at = i;
            }
        }
        nearest = nearest.wrapping_add(at);
    }

    let table: Vec<u64> = (0..TABLE).map(|_| xorshift(&mut x)).collect();
    let mut at = 0usize;
    for _ in 0..LOOKUPS {
        at = (table[at] as usize ^ at.wrapping_mul(31)) & (TABLE - 1);
    }
    keys[KEYS / 2] ^ nearest as u64 ^ at as u64
}

/// A loopback TCP peer thread that echoes whatever it is sent.
#[derive(Debug)]
struct Echo {
    stream: TcpStream,
    peer: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind cannot fail");
        let addr = listener.local_addr().expect("a bound listener has an address");
        let peer = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else { return };
            let _ = s.set_nodelay(true);
            let mut buf = vec![0u8; 1 << 16];
            while let Ok(n @ 1..) = s.read(&mut buf) {
                if s.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(addr).expect("loopback connect cannot fail");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Echo { stream, peer: Some(peer) }
    }

    fn round_trips(&mut self) {
        for (bytes, trips) in ECHO_TRIPS {
            let mut buf = vec![0x5Au8; bytes];
            for _ in 0..trips {
                self.stream.write_all(&buf).expect("loopback echo write");
                self.stream.read_exact(&mut buf).expect("loopback echo read");
            }
        }
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// Reference samples taken through a run, and the run's own wall and
/// CPU time between them, as measured and at the reference speed.
#[derive(Debug)]
pub struct HostSpeed {
    echo: Echo,
    wall_ns: Vec<f64>,
    cpu_ns: Vec<f64>,
    /// Start of the stretch of workload since the last sample: wall
    /// clock and process CPU microseconds.
    mark: (Instant, f64),
    raw: Measured,
    normalised: Measured,
}

impl HostSpeed {
    /// Starts the loopback peer and takes a first window of samples;
    /// the workload's time is counted from the return.
    pub fn start() -> HostSpeed {
        let zero = Measured { secs: 0.0, cpu_us: 0.0 };
        let mut host = HostSpeed {
            echo: Echo::start(),
            wall_ns: Vec::new(),
            cpu_ns: Vec::new(),
            mark: (Instant::now(), usage().cpu_us),
            raw: zero,
            normalised: zero,
        };
        for _ in 0..WINDOW {
            host.time_reference();
        }
        host.mark = (Instant::now(), usage().cpu_us);
        host
    }

    fn time_reference(&mut self) {
        let (t, cpu) = (Instant::now(), thread_cpu_us());
        black_box(kernel());
        self.echo.round_trips();
        self.cpu_ns.push((thread_cpu_us() - cpu) * 1e3);
        self.wall_ns.push(t.elapsed().as_nanos() as f64);
    }

    /// Ends the stretch of workload since the last sample, times the
    /// reference sample once more, and books the stretch's wall and CPU
    /// time at the speed the samples around it saw.
    pub fn sample(&mut self) {
        let (wall, cpu) = (self.mark.0.elapsed().as_secs_f64(), usage().cpu_us - self.mark.1);
        self.time_reference();
        self.raw.secs += wall;
        self.raw.cpu_us += cpu;
        self.normalised.secs += wall * self.scale();
        self.normalised.cpu_us += cpu * self.cpu_scale();
        self.mark = (Instant::now(), usage().cpu_us);
    }

    /// Ends the run: the workload's wall and CPU time between the
    /// samples, as measured and at the reference speed.
    pub fn finish(&mut self) -> (Measured, Measured) {
        self.sample();
        (self.raw, self.normalised)
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.wall_ns.len()
    }

    /// Median wall time of every sample, nanoseconds.
    pub fn median_ns(&self) -> f64 {
        median(&self.wall_ns)
    }

    /// The factor that restates a wall time measured now at the
    /// reference speed (below 1 while the host runs slow).
    pub fn scale(&self) -> f64 {
        REFERENCE_NS / recent_median(&self.wall_ns)
    }

    /// The same for a CPU time measured now.
    pub fn cpu_scale(&self) -> f64 {
        REFERENCE_CPU_NS / recent_median(&self.cpu_ns)
    }
}

fn recent_median(samples: &[f64]) -> f64 {
    median(&samples[samples.len().saturating_sub(WINDOW)..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scales_follow_the_recent_samples() {
        let mut h = HostSpeed::start();
        assert_eq!(h.samples(), WINDOW);
        h.sample();
        assert!(h.median_ns() > 0.0);
        assert!(h.scale() > 0.0 && h.scale().is_finite());
        assert!(h.cpu_scale() > 0.0 && h.cpu_scale().is_finite());
        // Samples far slower than the window's push its scale down.
        h.wall_ns.extend([1e12; WINDOW]);
        assert_eq!(h.scale(), REFERENCE_NS / 1e12);
    }

    #[test]
    fn workload_time_excludes_the_samples() {
        let mut h = HostSpeed::start();
        let t = Instant::now();
        for _ in 0..3 {
            h.sample();
        }
        let samples_took = t.elapsed().as_secs_f64();
        let (raw, normalised) = h.finish();
        assert_eq!(h.samples(), 2 * WINDOW - 1);
        assert!(raw.secs >= 0.0 && raw.secs < samples_took, "only the gaps count");
        assert!(normalised.secs >= 0.0 && normalised.cpu_us >= 0.0);
    }
}
