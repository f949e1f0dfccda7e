//! Fleet-scale serving: hundreds of simulated VMs replayed from a
//! deterministic diurnal arrival plan against the sharded server, with
//! the shedding machinery doing real work.

mod common;

use appclass::fleet::{run_fleet, workload_streams};
use appclass::serve::{ServerConfig, ShardServer};
use appclass::sim::fleet::{FleetConfig, FleetPlan};
use std::sync::Arc;

/// An under-provisioned shard server meets a compressed arrival herd:
/// the fleet must split exactly into served / busy, every served
/// session must complete (goodput degrades by refusing work at the
/// door, never by corrupting admitted sessions), and the server's own
/// accounting must agree with the fleet's view session for session.
#[test]
fn overloaded_fleet_degrades_gracefully_with_exact_accounting() {
    let config = FleetConfig {
        vms: 240,
        bursts: 2,
        burst_gain: 8.0,
        min_frames: 16,
        max_frames: 48,
        ..FleetConfig::default()
    };
    let plan = FleetPlan::generate(&config, 2024);
    assert!(plan.peak_to_mean(288) > 2.0, "the plan must actually be bursty");

    let server = ShardServer::bind(
        "127.0.0.1:0",
        Arc::new(common::trained_pipeline()),
        ServerConfig {
            max_sessions: 8,
            backlog: 512,
            shed_low_watermark: 4,
            shed_high_watermark: 6,
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A simulated day compressed onto ~0.4 s of wall clock: the diurnal
    // peak plus both bursts land while earlier sessions still drain, so
    // the overload machine gets pushed through its shedding states.
    // Shedding needs `max_sessions + shed_high_watermark` (14) sessions
    // in flight at once, so the herd must be dense relative to how fast
    // a session is served.
    let streams = workload_streams(4242);
    let report = run_fleet(server.local_addr(), &plan, &streams, 200_000.0, 32);

    server.shutdown();
    let stats = server.join().unwrap();

    // Every VM is accounted for, and nothing failed mid-session: the
    // only permitted degradation is a refusal at the door.
    assert_eq!(report.vms, 240);
    assert_eq!(
        report.served + report.busy + report.rejected,
        report.vms,
        "every VM ends served, busy, or rejected:\n{report}"
    );
    assert_eq!(report.failed, 0, "admitted sessions must never fail under overload:\n{report}");
    assert!(report.busy > 0, "an 8-session server under a 240-VM herd must shed:\n{report}");
    assert!(
        report.served >= 8,
        "goodput must not collapse: at least a capacity's worth of sessions serve:\n{report}"
    );

    // Served sessions got *all* their telemetry admitted — shedding is
    // all-or-nothing at the door, so acked frames can't undershoot the
    // served sessions' minimum possible offer.
    assert!(
        report.frames_acked >= (report.served as u64) * config.min_frames as u64,
        "served sessions must stream their full load:\n{report}"
    );
    assert!(report.goodput_fps > 0.0, "{report}");
    assert!(report.p99_session_ms >= report.p50_session_ms, "{report}");

    // The server saw the same fleet the fleet saw.
    assert_eq!(stats.sessions_started, report.served as u64, "{stats}");
    assert_eq!(stats.sessions_finished, report.served as u64, "{stats}");
    assert_eq!(stats.sessions_busy, report.busy as u64, "{stats}");
    assert_eq!(stats.sessions_rejected, report.rejected as u64, "{stats}");
    assert_eq!(stats.session_errors, 0, "{stats}");
}

/// With capacity above the fleet, nothing sheds: the plan replays to
/// 100% goodput and the verdict count matches the fleet size.
#[test]
fn provisioned_fleet_serves_everyone() {
    let config =
        FleetConfig { vms: 60, bursts: 1, min_frames: 8, max_frames: 24, ..FleetConfig::default() };
    let plan = FleetPlan::generate(&config, 7);
    let server = ShardServer::bind(
        "127.0.0.1:0",
        Arc::new(common::trained_pipeline()),
        ServerConfig { max_sessions: 96, backlog: 32, shards: 2, ..ServerConfig::default() },
    )
    .unwrap();

    let streams = workload_streams(99);
    let report = run_fleet(server.local_addr(), &plan, &streams, 100_000.0, 16);

    server.shutdown();
    let stats = server.join().unwrap();

    assert_eq!(report.served, 60, "a provisioned server serves the whole fleet:\n{report}");
    assert_eq!(report.busy + report.rejected + report.failed, 0, "{report}");
    assert_eq!(report.frames_acked, report.frames_offered, "clean streams fully admitted");
    assert!((report.goodput_ratio - 1.0).abs() < 1e-12, "{report}");
    assert_eq!(stats.verdicts, 60, "{stats}");
    assert_eq!(stats.session_errors, 0, "{stats}");
}
