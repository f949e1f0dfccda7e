//! `relay-batch`: a monitoring relay (the paper's Ganglia-aggregator
//! role) forwarding a many-VM snapshot stream in closed loop.
//!
//! Each round the relay connects, forwards one reporting window of the
//! fleet's snapshots as max-width (128-frame) acknowledged
//! `SnapshotBatch` requests, asks for the verdict over what it sent and
//! leaves. Socket cost is amortised over the batch, so frame decode,
//! guard repair and the classifier do most of the work.

use crate::hostspeed::HostSpeed;
use crate::inputs::{self, base_streams, relay_rounds};
use crate::report::{Report, Timed};
use crate::serving::{self, Verdict};
use crate::stats::{percentile, usage};
use crate::{jobs_for, traced, Ctx, Setups, MAX_COMPS};
use appclass_core::ClassifierPipeline;
use appclass_metrics::wire::MAX_SNAPSHOT_BATCH;
use appclass_metrics::Snapshot;
use appclass_serve::{ClientConfig, ShardServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// VMs behind the relay: one snapshot each per tick fills one batch.
pub const VMS: usize = MAX_SNAPSHOT_BATCH;
/// Sampling ticks forwarded per round (one request per tick).
pub const TICKS: usize = 8;
/// Distinct rounds generated; the relay cycles through them.
pub const POOL: usize = 8;
/// Rounds a run makes at least, so the pooled p99s have a thousand
/// samples to stand on.
const MIN_ROUNDS: u64 = 1100;
/// Rounds between two host-speed reference samples.
const SPEED_EVERY: u64 = 8;
/// A round (connect → verdict in hand) meets its objective within this.
pub const SLO: Duration = Duration::from_millis(25);

struct Setup {
    pipeline: Arc<ClassifierPipeline>,
    server: ShardServer,
    rounds: Vec<Vec<Snapshot>>,
    run_vm: Vec<Duration>,
}

fn setup(seed: u64) -> Setup {
    let pipeline = Arc::new(inputs::train(seed));
    let server = serving::bind(Arc::clone(&pipeline));
    let (base, run_vm) = base_streams(seed);
    let rounds = relay_rounds(seed, &base, VMS, POOL, TICKS);
    Setup { pipeline, server, rounds, run_vm }
}

/// Runs the workload and reports it.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let (setups, s) = Setups::before(|| setup(ctx.seed));
    report.provenance(
        "workload_shape",
        format!("{VMS} VMs x {TICKS} ticks per round, {POOL} distinct rounds, SLO {SLO:?}"),
    );
    let budget = ctx.measure_budget();
    let addr = s.server.local_addr();

    let mut host = HostSpeed::start();
    let start = Instant::now();
    let mut prev_end = start;
    let mut timed = Timed::default();
    let mut lags_ms = Vec::new();
    let mut served: Vec<(usize, Verdict, serving::Dispositions)> = Vec::new();
    let mut comps = Vec::new();
    let mut acked = 0u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut met = 0u64;
    while attempted < MIN_ROUNDS || start.elapsed() < budget {
        let idx = attempted as usize % POOL;
        attempted += 1;
        let t0 = Instant::now();
        lags_ms.push((t0 - prev_end).as_secs_f64() * 1e3);
        match serving::session(addr, ClientConfig::default(), &s.rounds[idx], VMS, None) {
            Ok(out) => {
                let round = out.verdict_at - t0;
                met += u64::from(round <= SLO);
                let scale = host.scale();
                timed.session(round.as_secs_f64() * 1e3, scale);
                timed.requests(&out.requests_us, scale);
                acked += out.dispositions.accepted + out.dispositions.repaired;
                served.push((idx, out.verdict, out.dispositions));
                if comps.len() < MAX_COMPS {
                    comps.push(out.composition);
                }
            }
            Err(_) => failed += 1,
        }
        if attempted.is_multiple_of(SPEED_EVERY) {
            host.sample();
        }
        prev_end = Instant::now();
    }
    let measured = host.finish();
    s.server.shutdown();
    let stats = s.server.join();

    // Correctness: every served round against the in-process reference.
    let references: Vec<_> =
        s.rounds.iter().map(|r| serving::reference(&s.pipeline, r, VMS)).collect();
    let matched = served.iter().filter(|(idx, v, d)| references[*idx] == (*v, *d)).count();
    if matched != served.len() {
        report.fail(format!(
            "{} of {} relay verdicts differ from the reference",
            served.len() - matched,
            served.len()
        ));
    }
    match stats {
        Ok(st) if st.session_errors == 0 && st.sessions_busy == 0 && st.sessions_rejected == 0 => {}
        Ok(st) => report.fail(format!(
            "server reported {} errored, {} busy, {} rejected sessions",
            st.session_errors, st.sessions_busy, st.sessions_rejected
        )),
        Err(e) => report.fail(format!("server did not join cleanly: {e}")),
    }

    report.attempted = attempted;
    report.failed = failed;
    setups.after(report, || setup(ctx.seed));
    report.timed(measured, &timed, acked, &host, true);
    report.add("slo_met_ratio", met as f64 / attempted.max(1) as f64, "ratio");
    report.add("failed_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
    report.add("verdict_match_ratio", matched as f64 / served.len().max(1) as f64, "ratio");
    report.add("peak_rss_mb", usage().max_rss_kib / 1024.0, "MiB");
    report.add_pct("bench.generator_lag_p99_ms", percentile(&lags_ms, 99.0), "ms");

    if ctx.trace {
        let inputs = traced::Inputs {
            sessions: s.rounds.clone(),
            width: VMS,
            jobs: jobs_for(ctx.seed, comps.len()),
            comps,
            run_vm: s.run_vm.clone(),
        };
        traced::run(report, &s.pipeline, &inputs, ctx.trace_budget(), &ctx.out_dir());
    }
}
