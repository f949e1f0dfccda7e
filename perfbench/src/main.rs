//! `appclass-perfbench`: the repository's benchmark of the monitor →
//! classify → schedule loop.
//!
//! ```text
//! appclass-perfbench --workload <relay-batch|fleet-open>
//!                    --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! Prints a human-readable report, then one `RESULT {...}` line with
//! every metric, its unit and sample count, the correctness verdict and
//! the run's provenance. Exits non-zero when any correctness check
//! fails. `perfbench/run.py` builds this binary and turns the result
//! into the benchmark's contract line; see `perfbench/README.md`.

mod affinity;
mod fleet;
mod hostspeed;
mod inputs;
mod layers;
mod openloop;
mod relay;
mod report;
mod serving;
mod spans;
mod stats;
mod traced;

use hostspeed::HostSpeed;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["relay-batch", "fleet-open"];

/// Set-ups made before the measured loop (the last one is measured)
/// and after it; `setup_s` is the median of all of them, so it samples
/// the host across the whole run rather than at one moment.
const SETUPS_BEFORE: usize = 10;
const SETUPS_AFTER: usize = 11;
/// Reference samples timed right after each set-up.
const SETUP_SPEED_SAMPLES: usize = 3;

/// Share of a traced run spent on the workload's own measured loop
/// (the rest goes to the traced legs and the layer pass).
const TRACED_MEASURE_SHARE: f64 = 0.5;

/// Compositions kept for the traced run's cluster layers.
pub const MAX_COMPS: usize = 2000;

/// One run's settings.
pub struct Ctx {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Ctx {
    /// How long the workload's own measured loop runs.
    pub fn measure_budget(&self) -> Duration {
        let share = if self.trace { TRACED_MEASURE_SHARE } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// How long the traced legs and layer pass run.
    pub fn trace_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * (1.0 - TRACED_MEASURE_SHARE))
    }

    /// Where a traced run writes its spans (inside the checkout).
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from("perfbench")
            .join("results")
            .join(format!("{}-seed{}", self.workload, self.seed))
    }
}

/// Times repeated set-ups of one workload.
pub struct Setups {
    host: HostSpeed,
    /// Wall time of each set-up, seconds.
    raw: Vec<f64>,
    /// The same, each restated at the reference speed measured around it.
    normalised: Vec<f64>,
}

impl Setups {
    fn time<T>(&mut self, setup: &mut impl FnMut() -> T) -> T {
        let t = Instant::now();
        let product = setup();
        let secs = t.elapsed().as_secs_f64();
        for _ in 0..SETUP_SPEED_SAMPLES {
            self.host.sample();
        }
        self.raw.push(secs);
        self.normalised.push(secs * self.host.scale());
        product
    }

    /// Sets up [`SETUPS_BEFORE`] times and keeps the last product
    /// (earlier ones are dropped, closing any server they bound).
    pub fn before<T>(mut setup: impl FnMut() -> T) -> (Setups, T) {
        let mut setups = Setups { host: HostSpeed::start(), raw: Vec::new(), normalised: Vec::new() };
        let mut product = setups.time(&mut setup);
        for _ in 1..SETUPS_BEFORE {
            drop(product);
            product = setups.time(&mut setup);
        }
        (setups, product)
    }

    /// Sets up [`SETUPS_AFTER`] more times, discarding the products, and
    /// reports the median of every set-up as `setup_s` (at the reference
    /// speed) and `raw.setup_s` (as measured).
    pub fn after<T>(mut self, report: &mut Report, mut setup: impl FnMut() -> T) {
        for _ in 0..SETUPS_AFTER {
            drop(self.time(&mut setup));
        }
        report.add("setup_s", stats::median(&self.normalised), "s");
        report.add("raw.setup_s", stats::median(&self.raw), "s");
    }
}

/// Palette application and VM seed for each of `n` compositions that
/// came from sessions rather than from planned VMs.
pub fn jobs_for(seed: u64, n: usize) -> Vec<(usize, u64)> {
    (0..n).map(|i| (i, seed.wrapping_mul(7919).wrapping_add(i as u64))).collect()
}

fn parse(args: &[String]) -> Result<(Ctx, String), String> {
    let get = |key: &str| -> Result<String, String> {
        let at = args.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        args.get(at + 1).cloned().ok_or(format!("{key} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or(format!("unknown workload `{name}` (expected one of {WORKLOADS:?})"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let commit = get("--commit").unwrap_or_else(|_| "unknown".to_string());
    Ok((Ctx { workload, seed, seconds, trace }, commit))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, commit) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("appclass-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before pinning, which narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = affinity::pin_to_first_cpu();
    let mut report = Report::default();
    report.provenance("commit", commit);
    report.provenance("workload", ctx.workload.to_string());
    report.provenance("seed", ctx.seed.to_string());
    report.provenance("run_seconds", ctx.seconds.to_string());
    report.provenance("trace", u8::from(ctx.trace).to_string());
    report.provenance("nproc", nproc.to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    report.provenance("build_profile", profile.to_string());
    report.provenance("server_shards", serving::SHARDS.to_string());
    report.provenance("cpu", cpu.map_or("unpinned".to_string(), |c| format!("all threads on {c}")));
    match ctx.workload {
        "relay-batch" => relay::run(&ctx, &mut report),
        _ => fleet::run(&ctx, &mut report),
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
