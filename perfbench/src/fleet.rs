//! `fleet-open`: many short VM sessions arriving on a fleet schedule,
//! in open loop.
//!
//! Sessions arrive on back-to-back `sim::fleet::FleetPlan` days (diurnal
//! curve plus bursts) at a fixed mean rate, whatever the server does.
//! Each session connects, sends its 24–96 buffered snapshots one at a
//! time as width-1 acknowledged requests, asks for the verdict and
//! leaves. Classification per frame is tiny here, so the serve path
//! dominates: syscalls and poll wake-ups, the handshake, admission and
//! per-session set-up.

use crate::hostspeed::HostSpeed;
use crate::inputs::{self, base_streams, fleet_schedule, FleetSession};
use crate::openloop::{self, WallClock};
use crate::report::{Report, Timed};
use crate::serving::{self, Verdict};
use crate::stats::{percentile, usage};
use crate::{jobs_for, traced, Ctx, Setups, MAX_COMPS};
use appclass_core::ClassifierPipeline;
use appclass_metrics::Snapshot;
use appclass_serve::{ClientConfig, ShardServer};
use appclass_sim::workload::registry::training_specs;
use std::sync::Arc;
use std::time::Duration;

/// Offered load, sessions per second averaged over each fleet day.
///
/// One connection sustains about 400 sessions/s in closed loop on the
/// 2-vCPU guest the benchmark was sized on, and about 250/s in the
/// phases (seconds to minutes long) when other tenants slow that host
/// by a third or more. The diurnal curve peaks at 1.7x the mean outside
/// bursts, so this offer tops out near 150 sessions/s: about 60% of the
/// slowed capacity. Bursts overrun it briefly and the backlog drains
/// between them. An offer sized to 70% of the full-speed capacity melted
/// down whenever the host slowed.
pub const RATE: f64 = 90.0;
/// A session (due → verdict in hand) meets its objective within this.
pub const SLO: Duration = Duration::from_millis(100);
/// Sessions the traced run replays.
const TRACED_SESSIONS: usize = 300;
/// Sessions between two host-speed reference samples (taken after a
/// session's verdict, off its latency).
const SPEED_EVERY: usize = 10;

struct Setup {
    pipeline: Arc<ClassifierPipeline>,
    server: ShardServer,
    base: Vec<Vec<Snapshot>>,
    schedule: Vec<FleetSession>,
    run_vm: Vec<Duration>,
}

fn setup(seed: u64, seconds: f64) -> Setup {
    let pipeline = Arc::new(inputs::train(seed));
    let server = serving::bind(Arc::clone(&pipeline));
    let (base, run_vm) = base_streams(seed);
    let lens: Vec<usize> = base.iter().map(Vec::len).collect();
    let schedule = fleet_schedule(seed, RATE, seconds, &lens);
    Setup { pipeline, server, base, schedule, run_vm }
}

/// Runs the workload and reports it.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let budget = ctx.measure_budget();
    let (setups, s) = Setups::before(|| setup(ctx.seed, budget.as_secs_f64()));
    report.provenance(
        "workload_shape",
        format!(
            "{RATE} sessions/s offered over {:?} fleet days, {} sessions, SLO {SLO:?}",
            inputs::FLEET_DAY,
            s.schedule.len()
        ),
    );
    let addr = s.server.local_addr();
    let due: Vec<Duration> = s.schedule.iter().map(|x| x.due).collect();

    let mut timed = Timed::default();
    let mut served: Vec<(usize, Verdict, serving::Dispositions)> = Vec::new();
    let mut comps = Vec::new();
    let mut acked = 0u64;
    let mut host = HostSpeed::start();
    // The host's speed as each session ended, by dispatch.
    let mut scales = Vec::with_capacity(due.len());
    let mut clock = WallClock::start();
    let dispatches = openloop::run(&due, &mut clock, |i, clock| {
        let snaps = s.schedule[i].stream(&s.base);
        let result = serving::session(addr, ClientConfig::default(), &snaps, 1, None);
        if i % SPEED_EVERY == SPEED_EVERY - 1 {
            host.sample();
        }
        scales.push(host.scale());
        match result {
            Ok(out) => {
                timed.requests(&out.requests_us, host.scale());
                acked += out.dispositions.accepted + out.dispositions.repaired;
                served.push((i, out.verdict, out.dispositions));
                if comps.len() < MAX_COMPS {
                    comps.push(out.composition);
                }
                Some(clock.at(out.verdict_at))
            }
            Err(_) => None,
        }
    });
    let measured = host.finish();
    s.server.shutdown();
    let stats = s.server.join();

    // Correctness: every served session against the in-process
    // reference; and how many verdicts miss the application's
    // ground-truth class.
    let truth: Vec<u8> = training_specs()
        .iter()
        .map(|spec| appclass_cluster::truth_class(spec.expected).index() as u8)
        .collect();
    let mut matched = 0usize;
    let mut misclassified = 0u64;
    for (i, verdict, dispositions) in &served {
        let session = &s.schedule[*i];
        let snaps = session.stream(&s.base);
        if serving::reference(&s.pipeline, &snaps, 1) == (*verdict, *dispositions) {
            matched += 1;
        }
        misclassified += u64::from(verdict.class != truth[session.workload]);
    }
    if matched != served.len() {
        report.fail(format!(
            "{} of {} fleet verdicts differ from the reference",
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

    let attempted = dispatches.len() as u64;
    let failed = dispatches.iter().filter(|d| d.verdict_at.is_none()).count() as u64;
    for (d, scale) in dispatches.iter().zip(scales) {
        if let Some(latency) = d.latency() {
            timed.session(latency.as_secs_f64() * 1e3, scale);
        }
    }
    let lags_ms: Vec<f64> = dispatches.iter().map(|d| d.lag().as_secs_f64() * 1e3).collect();
    report.attempted = attempted;
    report.failed = failed;
    setups.after(report, || setup(ctx.seed, budget.as_secs_f64()));
    report.timed(measured, &timed, acked, &host, false);
    report.add("slo_met_ratio", openloop::slo_met_ratio(&dispatches, SLO), "ratio");
    report.add("failed_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
    report.add("verdict_match_ratio", matched as f64 / served.len().max(1) as f64, "ratio");
    report.add("peak_rss_mb", usage().max_rss_kib / 1024.0, "MiB");
    report.add_pct("bench.generator_lag_p99_ms", percentile(&lags_ms, 99.0), "ms");
    report.add("misclassified_sessions", misclassified as f64, "count");

    if ctx.trace {
        let sessions: Vec<Vec<Snapshot>> =
            s.schedule.iter().take(TRACED_SESSIONS).map(|x| x.stream(&s.base)).collect();
        let inputs = traced::Inputs {
            sessions,
            width: 1,
            jobs: jobs_for(ctx.seed, comps.len()),
            comps,
            run_vm: s.run_vm.clone(),
        };
        traced::run(report, &s.pipeline, &inputs, ctx.trace_budget(), &ctx.out_dir());
    }
}
