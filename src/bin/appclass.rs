//! `appclass` — command-line interface to the reproduction.
//!
//! ```text
//! appclass list                                  # Table 2 registry
//! appclass train  --out pipeline.json [--seed N] [--store DIR]
//! appclass classify --pipeline pipeline.json --workload CH3D [--seed N] [--db db.log]
//! appclass table3   [--seed N]
//! appclass fig4     [--seed N]
//! appclass fig5     [--seed N]
//! appclass table4   [--seed N]
//! appclass cost     --db db.log [--cpu a --mem b --io c --net d --idle e]
//! appclass serve    --addr 127.0.0.1:0 (--model pipeline.json | --store DIR) [--sessions N]
//! appclass client   --addr HOST:PORT --workload CH3D [--seed N] [--drop-rate R]
//! appclass models   --store DIR
//! appclass swap     --addr HOST:PORT (--model FILE | --store DIR [--id HEX])
//! appclass stats    --addr HOST:PORT
//! ```
//!
//! Everything is seeded and file-based: `train` persists a pipeline as
//! JSON (and optionally commits it to a versioned model store), `classify`
//! loads it, classifies a monitored run of a registry workload, prints the
//! composition and (optionally) appends the run to a crash-recoverable
//! application-database log that `cost` can price. `serve` turns a saved
//! pipeline into a concurrent TCP classification service; `client` replays
//! a simulated workload's monitoring stream against it; `swap` hot-swaps
//! the served model without dropping established sessions.

use appclass::core::appdb::{AppDbWriter, ApplicationDb, RunRecord};
use appclass::core::modelstore::ModelStore;
use appclass::prelude::*;

/// Writes a line to stdout, exiting quietly when the reader went away
/// (`appclass list | head` must not panic on the broken pipe).
fn pout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

macro_rules! out {
    () => { pout(format_args!("\n")) };
    ($($t:tt)*) => { pout(format_args!("{}\n", format_args!($($t)*))) };
}
use appclass::cluster::train_cluster_pipeline;
use appclass::metrics::NodeId;
use appclass::paper::Artefact;
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::{registry, test_specs, training_specs};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "list" => cmd_list(),
        "train" => cmd_train(&args[1..]),
        "classify" => cmd_classify(&args[1..]),
        "export" => cmd_export(&args[1..]),
        "table3" => cmd_paper(Artefact::Table3, &args[1..]),
        "fig4" => cmd_paper(Artefact::Fig4, &args[1..]),
        "fig5" => cmd_paper(Artefact::Fig5, &args[1..]),
        "table4" => cmd_paper(Artefact::Table4, &args[1..]),
        "cost" => cmd_cost(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "fleet" => cmd_fleet(&args[1..]),
        "models" => cmd_models(&args[1..]),
        "swap" => cmd_swap(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "bench-classify" => cmd_bench_classify(&args[1..]),
        "sched-cluster" => cmd_sched_cluster(&args[1..]),
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: appclass <command> [options]

commands:
  list                         print the workload registry (Table 2)
  train --out FILE [--seed N] [--store DIR]
                               train the paper pipeline, save as JSON; with
                               --store also commit it to the versioned model store
  classify --pipeline FILE --workload NAME [--seed N] [--db FILE]
                               classify a monitored run; optionally record it
                               in a crash-recoverable append log
  export --workload NAME --out FILE [--seed N]
                               run a workload and export its metric series as CSV
  table3 [--seed N]            regenerate Table 3 (class compositions)
  fig4 [--seed N]              regenerate Figure 4 (schedule throughput)
  fig5 [--seed N]              regenerate Figure 5 (per-app throughput)
  table4 [--seed N]            regenerate Table 4 (concurrent vs sequential)
  cost --db FILE [--cpu A --mem B --io C --net D --idle E]
                               price recorded runs under a rate card
  serve --addr HOST:PORT (--model FILE | --store DIR) [--max-sessions N] [--sessions N]
        [--window W] [--backlog N] [--shed-high N] [--shed-low N]
        [--retry-after-ms N] [--frame-deadline-ms N] [--shards N]
                               serve the pipeline (or the store's HEAD version)
                               to concurrent TCP clients on --shards event-loop
                               threads (default 2); every admitted session is
                               served at once (--sessions N exits after N
                               sessions drain; admissions beyond --max-sessions
                               are queue depth, capped by --backlog and shed
                               with Busy between the --shed-high/--shed-low
                               watermarks; --frame-deadline-ms sheds snapshot
                               frames older than the budget)
  client --addr HOST:PORT --workload NAME [--seed N] [--drop-rate R] [--model-id H]
         [--batch N] [--retries N] [--backoff-ms N] [--deadline-ms N]
                               replay a workload's monitoring stream and classify
                               (--batch N coalesces N snapshots per frame;
                               --model-id takes 0x-prefixed hex or decimal;
                               --retries enables Busy-aware reconnects with
                               jittered exponential backoff, --deadline-ms bounds
                               the whole retry budget)
  fleet --addr HOST:PORT [--vms N] [--seed N] [--bursts N] [--compression X]
        [--batch N]
                               replay a diurnal+bursty arrival plan of simulated
                               VMs against a running server and report goodput,
                               shedding and session latency (--compression X
                               divides the simulated day onto the wall clock)
  models --store DIR           list the store's model version chain, newest first
  swap --addr HOST:PORT (--model FILE | --store DIR [--id HEX])
                               hot-swap the served model; established sessions
                               drain onto the new version without disconnecting
  stats --addr HOST:PORT [--watch SECS [--count N]]
                               dump a running server's metric exposition
                               (note: the fetch occupies one session slot;
                               --watch polls every SECS seconds over one held
                               session, printing +delta columns for counters;
                               --count stops after N polls)
  bench-classify [--seed N] [--frames N] [--batch N] [--out FILE]
                               measure single vs batched serving throughput over
                               loopback and write the numbers as JSON, including
                               the traced+scraped vs untraced overhead row
                               (default --out BENCH_classify.json)
  sched-cluster [--hosts N] [--seed N] [--trials N] [--energy W] [--out FILE]
                               class-aware vs random vs oracle placement across a
                               simulated fleet; compositions come from the trained
                               pipeline, never ground truth (--trials averages N
                               random-placement draws; --out writes the rows as
                               JSON)";

/// Minimal `--key value` option extraction. A following token that is
/// itself a flag does not count as the value, so `--out --seed 7` reports
/// a missing value instead of writing a file named `--seed`.
fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned()
}

/// True when `key` appears among the args at all — used to distinguish an
/// omitted optional flag (fine, use the default) from a flag whose value
/// is missing (an error, not a silent default).
fn flag_present(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Rejects any `--flag` the subcommand does not know, so a typo like
/// `--drop-rte 0.1` fails loudly instead of silently running lossless.
fn validate_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    for arg in args {
        if arg.starts_with("--") && !allowed.contains(&arg.as_str()) {
            return Err(format!(
                "unknown flag `{arg}` (expected one of: {})\n{USAGE}",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn opt_parsed<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    match opt(args, key) {
        None if !flag_present(args, key) => Ok(None),
        None => Err(format!("{key} requires a value")),
        Some(s) => {
            s.parse().map(Some).map_err(|_| format!("{key} has an invalid value, got `{s}`"))
        }
    }
}

fn opt_seed(args: &[String]) -> Result<u64, String> {
    match opt(args, "--seed") {
        None if !flag_present(args, "--seed") => Ok(42),
        None => Err("--seed requires a value".to_string()),
        Some(s) => s.parse().map_err(|_| format!("--seed must be an integer, got `{s}`")),
    }
}

/// Parses a model fingerprint as printed by `serve`/`models`
/// (`0x`-prefixed hex), as stored in a `HEAD` file (bare hex), or as a
/// plain decimal.
fn parse_model_id(s: &str) -> Result<u64, String> {
    let t = s.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16)
            .map_err(|_| format!("invalid model fingerprint `{s}`"));
    }
    t.parse::<u64>()
        .or_else(|_| u64::from_str_radix(t, 16))
        .map_err(|_| format!("invalid model fingerprint `{s}`"))
}

fn opt_rate(args: &[String], key: &str, default: f64) -> Result<f64, String> {
    match opt(args, key) {
        None if !flag_present(args, key) => Ok(default),
        None => Err(format!("{key} requires a value")),
        Some(s) => s.parse().map_err(|_| format!("{key} must be a number, got `{s}`")),
    }
}

fn cmd_list() -> Result<(), String> {
    out!("{:<18} {:>8} {:<24} description", "name", "training", "expected class");
    for spec in registry() {
        out!(
            "{:<18} {:>8} {:<24} {}",
            spec.name,
            if spec.training { "yes" } else { "" },
            spec.expected.label(),
            spec.description
        );
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    validate_flags(args, &["--out", "--seed", "--store"])?;
    let out = opt(args, "--out").ok_or("train requires --out FILE")?;
    let seed = opt_seed(args)?;
    let pipeline = train_cluster_pipeline(seed).map_err(|e| e.to_string())?;
    let json = pipeline.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    out!(
        "trained pipeline (33 -> {} -> {} dims, {} training snapshots) saved to {out}",
        pipeline.preprocessor().dim(),
        pipeline.n_components(),
        pipeline.knn().n_training()
    );
    if let Some(dir) = opt(args, "--store") {
        let store = ModelStore::open(Path::new(&dir)).map_err(|e| e.to_string())?;
        let meta = store.commit(&pipeline).map_err(|e| e.to_string())?;
        if meta.parent == 0 {
            out!("committed model {:#018x} to {dir} (chain root)", meta.id);
        } else {
            out!("committed model {:#018x} to {dir} (parent {:#018x})", meta.id, meta.parent);
        }
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let pipeline_path = opt(args, "--pipeline").ok_or("classify requires --pipeline FILE")?;
    let workload = opt(args, "--workload").ok_or("classify requires --workload NAME")?;
    let seed = opt_seed(args)?;

    let json = std::fs::read_to_string(&pipeline_path).map_err(|e| e.to_string())?;
    let pipeline = ClassifierPipeline::from_json(&json).map_err(|e| e.to_string())?;

    let specs = test_specs();
    let spec = specs
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(&workload))
        .ok_or_else(|| format!("unknown workload `{workload}` (see `appclass list`)"))?;

    let rec = run_spec(spec, NodeId(1), seed);
    let raw = rec.pool.sample_matrix(rec.node).map_err(|e| e.to_string())?;
    let result = pipeline.classify(&raw).map_err(|e| e.to_string())?;
    out!("workload:    {}", spec.name);
    out!("samples:     {} over {} s", rec.samples, rec.wall_secs);
    out!("class:       {}", result.class);
    out!("composition: {}", result.composition);

    if let Some(db_path) = opt(args, "--db") {
        // The writer recovers whatever the log already holds (including a
        // legacy JSON snapshot, migrated in place) and appends one
        // checksummed record — a crash mid-append costs at most that
        // record, never the database.
        let mut writer = AppDbWriter::open(Path::new(&db_path)).map_err(|e| e.to_string())?;
        writer
            .append(RunRecord {
                app: spec.name.to_string(),
                class: result.class,
                composition: result.composition,
                exec_secs: rec.wall_secs,
                samples: rec.samples,
            })
            .map_err(|e| e.to_string())?;
        out!(
            "recorded run #{} for {} in {db_path}",
            writer.db().runs_of(spec.name).len(),
            spec.name
        );
    }
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let workload = opt(args, "--workload").ok_or("export requires --workload NAME")?;
    let out = opt(args, "--out").ok_or("export requires --out FILE")?;
    let seed = opt_seed(args)?;
    let specs = test_specs();
    let spec = specs
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(&workload))
        .ok_or_else(|| format!("unknown workload `{workload}` (see `appclass list`)"))?;
    let rec = run_spec(spec, NodeId(1), seed);
    let csv = rec.pool.to_csv(rec.node).map_err(|e| e.to_string())?;
    std::fs::write(&out, csv).map_err(|e| e.to_string())?;
    out!("exported {} snapshots of {} to {out}", rec.samples, spec.name);
    Ok(())
}

fn cmd_paper(artefact: Artefact, args: &[String]) -> Result<(), String> {
    let seed = opt_seed(args)?;
    let text = appclass::paper::render(artefact, seed).map_err(|e| e.to_string())?;
    pout(format_args!("{text}"));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use appclass::serve::{ServerConfig, ShardServer};
    validate_flags(
        args,
        &[
            "--addr",
            "--model",
            "--store",
            "--max-sessions",
            "--sessions",
            "--window",
            "--backlog",
            "--shed-high",
            "--shed-low",
            "--retry-after-ms",
            "--frame-deadline-ms",
            "--shards",
        ],
    )?;
    let addr = opt(args, "--addr").ok_or("serve requires --addr HOST:PORT")?;

    // Validate the whole flag set before touching the filesystem, so a
    // bad knob is reported even when the model path is also wrong.
    let mut config = ServerConfig::default();
    if let Some(n) = opt_parsed::<usize>(args, "--max-sessions")? {
        if n == 0 {
            return Err("--max-sessions must be at least 1".to_string());
        }
        config.max_sessions = n;
    }
    config.accept_limit = opt_parsed::<u64>(args, "--sessions")?;
    config.session.window = opt_parsed::<usize>(args, "--window")?;
    if let Some(n) = opt_parsed::<usize>(args, "--backlog")? {
        config.backlog = n;
    }
    if let Some(n) = opt_parsed::<usize>(args, "--shed-high")? {
        if n == 0 {
            return Err("--shed-high must be at least 1".to_string());
        }
        config.shed_high_watermark = n;
    }
    if let Some(n) = opt_parsed::<usize>(args, "--shed-low")? {
        config.shed_low_watermark = n;
    }
    if config.shed_low_watermark >= config.shed_high_watermark {
        return Err(format!(
            "--shed-low ({}) must be below --shed-high ({})",
            config.shed_low_watermark, config.shed_high_watermark
        ));
    }
    if let Some(ms) = opt_parsed::<u64>(args, "--retry-after-ms")? {
        config.busy_retry_after = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = opt_parsed::<u64>(args, "--frame-deadline-ms")? {
        if ms == 0 {
            return Err("--frame-deadline-ms must be at least 1".to_string());
        }
        config.session.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = opt_parsed::<usize>(args, "--shards")? {
        if n == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        config.shards = n;
    }

    let (pipeline, origin) = match (opt(args, "--model"), opt(args, "--store")) {
        (Some(_), Some(_)) => {
            return Err("serve takes --model FILE or --store DIR, not both".to_string());
        }
        (Some(model), None) => {
            let json = std::fs::read_to_string(&model).map_err(|e| e.to_string())?;
            (ClassifierPipeline::from_json(&json).map_err(|e| e.to_string())?, model)
        }
        (None, Some(dir)) => {
            let store = ModelStore::open(Path::new(&dir)).map_err(|e| e.to_string())?;
            let (pipeline, _) = store
                .load_head()
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("model store {dir} holds no versions"))?;
            (pipeline, format!("{dir} (HEAD)"))
        }
        (None, None) => return Err("serve requires --model FILE or --store DIR".to_string()),
    };

    let model_id = pipeline.model_id();
    let pipeline = std::sync::Arc::new(pipeline);
    let announce = |local: std::net::SocketAddr| {
        out!("listening on {local}");
        out!("serving model {model_id:#018x} from {origin}");
        // Line buffering only flushes what printing appended; make the
        // address visible to pollers even through unusual stdout plumbing.
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    };
    let server = ShardServer::bind(addr.as_str(), pipeline, config).map_err(|e| e.to_string())?;
    announce(server.local_addr());
    let stats = server.join().map_err(|e| e.to_string())?;
    out!("{stats}");
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    use appclass::fleet::{run_fleet, workload_streams};
    use appclass::sim::fleet::{FleetConfig, FleetPlan};
    use std::net::ToSocketAddrs;
    validate_flags(args, &["--addr", "--vms", "--seed", "--bursts", "--compression", "--batch"])?;
    let addr = opt(args, "--addr").ok_or("fleet requires --addr HOST:PORT")?;
    let seed = opt_seed(args)?;
    let vms = opt_parsed::<usize>(args, "--vms")?.unwrap_or(200).max(1);
    let bursts = opt_parsed::<usize>(args, "--bursts")?.unwrap_or(3);
    let compression = opt_parsed::<f64>(args, "--compression")?.unwrap_or(50_000.0);
    if !compression.is_finite() || compression <= 0.0 {
        return Err("--compression must be positive".to_string());
    }
    let batch = opt_parsed::<usize>(args, "--batch")?.unwrap_or(32).max(1);

    let target = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))?;
    let plan = FleetPlan::generate(&FleetConfig { vms, bursts, ..FleetConfig::default() }, seed);
    let streams = workload_streams(seed);
    out!("replaying {vms} VMs (seed {seed}, {bursts} bursts, day/{compression:.0}) against {addr}");
    let report = run_fleet(target, &plan, &streams, compression, batch);
    out!("{report}");
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    use appclass::metrics::FaultPlan;
    use appclass::serve::retry::{connect_with_retry, CircuitBreaker, RetryPolicy};
    use appclass::serve::{ClientConfig, ServeClient};
    validate_flags(
        args,
        &[
            "--addr",
            "--workload",
            "--seed",
            "--drop-rate",
            "--model-id",
            "--batch",
            "--retries",
            "--backoff-ms",
            "--deadline-ms",
        ],
    )?;
    let addr = opt(args, "--addr").ok_or("client requires --addr HOST:PORT")?;
    let workload = opt(args, "--workload").ok_or("client requires --workload NAME")?;
    let seed = opt_seed(args)?;
    let drop_rate = opt_rate(args, "--drop-rate", 0.0)?;
    if !(0.0..=1.0).contains(&drop_rate) {
        return Err(format!("--drop-rate must be in [0, 1], got {drop_rate}"));
    }
    let model_id = match opt(args, "--model-id") {
        None if !flag_present(args, "--model-id") => 0,
        None => return Err("--model-id requires a value".to_string()),
        Some(s) => parse_model_id(&s)?,
    };
    let batch = opt_parsed::<usize>(args, "--batch")?;
    if batch == Some(0) {
        return Err("--batch must be at least 1".to_string());
    }
    let retries = opt_parsed::<u32>(args, "--retries")?;
    let backoff_ms = opt_parsed::<u64>(args, "--backoff-ms")?;
    let deadline_ms = opt_parsed::<u64>(args, "--deadline-ms")?;
    if deadline_ms == Some(0) {
        return Err("--deadline-ms must be at least 1".to_string());
    }

    let specs = registry();
    let spec = specs
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(&workload))
        .ok_or_else(|| format!("unknown workload `{workload}` (see `appclass list`)"))?;
    let rec = run_spec(spec, NodeId(1), seed);
    let snapshots: Vec<_> =
        rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect();

    let chaos = (drop_rate > 0.0).then(|| FaultPlan::lossless(seed).with_drop_rate(drop_rate));
    let client_config = ClientConfig { model_id, chaos, tracer: None };
    // Any retry flag switches connect to the Busy-aware retry loop with
    // jittered exponential backoff behind a circuit breaker.
    let with_retry = retries.is_some() || backoff_ms.is_some() || deadline_ms.is_some();
    let mut client = if with_retry {
        let policy = RetryPolicy {
            max_retries: retries.unwrap_or(5),
            base_backoff: std::time::Duration::from_millis(backoff_ms.unwrap_or(50)),
            deadline: deadline_ms.map(std::time::Duration::from_millis),
            seed,
            ..RetryPolicy::default()
        };
        let mut breaker = CircuitBreaker::new(3, std::time::Duration::from_millis(500));
        let (client, report) =
            connect_with_retry(addr.as_str(), &client_config, &policy, &mut breaker)
                .map_err(|e| e.to_string())?;
        if report.attempts > 1 {
            out!(
                "connected after {} attempts ({} busy refusals, {} ms backing off)",
                report.attempts,
                report.busy_refusals,
                report.backoff_ms
            );
        }
        client
    } else {
        ServeClient::connect(addr.as_str(), client_config).map_err(|e| e.to_string())?
    };
    out!("session {} established (model {:#018x})", client.session(), client.model_id());
    match batch {
        Some(n) => {
            let report = client.stream_batch(&snapshots, n).map_err(|e| e.to_string())?;
            out!("batched:     {} items in {} frames (batch {n})", report.sent, report.batches);
        }
        None => client.stream_snapshots(&snapshots).map_err(|e| e.to_string())?,
    }
    let verdict = client.classify().map_err(|e| e.to_string())?;
    let health = client.health().map_err(|e| e.to_string())?;
    let busy_notices = client.busy_notices();
    client.bye().map_err(|e| e.to_string())?;

    out!("workload:    {}", spec.name);
    out!("streamed:    {} snapshots ({} delivered after faults)", snapshots.len(), health.seen);
    out!("class:       {}", verdict.class);
    out!("confidence:  {:.3}", verdict.confidence);
    out!("composition: {}", verdict.composition);
    out!(
        "telemetry:   {} accepted, {} repaired, {} dropped, {} malformed",
        health.accepted,
        health.repaired,
        health.dropped,
        health.malformed
    );
    if busy_notices > 0 {
        out!("shed:        {busy_notices} snapshots refused stale by the server's deadline budget");
    }
    Ok(())
}

fn cmd_models(args: &[String]) -> Result<(), String> {
    validate_flags(args, &["--store"])?;
    let dir = opt(args, "--store").ok_or("models requires --store DIR")?;
    let store = ModelStore::open(Path::new(&dir)).map_err(|e| e.to_string())?;
    let chain = store.versions().map_err(|e| e.to_string())?;
    if chain.is_empty() {
        out!("(no model versions committed in {dir})");
        return Ok(());
    }
    let head = store.head().map_err(|e| e.to_string())?.unwrap_or(0);
    out!("{:<19} {:<19} {:>8} {:>5} {:>3}  features", "model", "parent", "samples", "dims", "k");
    for meta in chain {
        let mark = if meta.id == head { "*" } else { " " };
        let parent =
            if meta.parent == 0 { "-".to_string() } else { format!("{:#018x}", meta.parent) };
        out!(
            "{mark}{:#018x} {:<19} {:>8} {:>5} {:>3}  {}",
            meta.id,
            parent,
            meta.samples,
            meta.n_components,
            meta.k,
            meta.features.join(",")
        );
    }
    Ok(())
}

fn cmd_swap(args: &[String]) -> Result<(), String> {
    use appclass::serve::{ClientConfig, ServeClient};
    validate_flags(args, &["--addr", "--model", "--store", "--id"])?;
    let addr = opt(args, "--addr").ok_or("swap requires --addr HOST:PORT")?;
    let json = match (opt(args, "--model"), opt(args, "--store")) {
        (Some(_), Some(_)) => {
            return Err("swap takes --model FILE or --store DIR, not both".to_string());
        }
        (Some(file), None) => {
            if flag_present(args, "--id") {
                return Err("--id selects a store version; it needs --store DIR".to_string());
            }
            std::fs::read_to_string(&file).map_err(|e| e.to_string())?
        }
        (None, Some(dir)) => {
            let store = ModelStore::open(Path::new(&dir)).map_err(|e| e.to_string())?;
            let id = match opt(args, "--id") {
                Some(s) => parse_model_id(&s)?,
                None if flag_present(args, "--id") => {
                    return Err("--id requires a value".to_string());
                }
                None => store
                    .head()
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| format!("model store {dir} holds no versions"))?,
            };
            let (pipeline, _) = store.load(id).map_err(|e| e.to_string())?;
            pipeline.to_json().map_err(|e| e.to_string())?
        }
        (None, None) => return Err("swap requires --model FILE or --store DIR".to_string()),
    };
    let mut client = ServeClient::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let (old, new) = client.swap_model(&json).map_err(|e| e.to_string())?;
    client.bye().map_err(|e| e.to_string())?;
    if old == new {
        out!("server already serves model {new:#018x} (no-op)");
    } else {
        out!("swapped model {old:#018x} -> {new:#018x}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    use appclass::serve::{ClientConfig, ServeClient};
    validate_flags(args, &["--addr", "--watch", "--count"])?;
    let addr = opt(args, "--addr").ok_or("stats requires --addr HOST:PORT")?;
    let watch = opt_parsed::<u64>(args, "--watch")?;
    if flag_present(args, "--watch") && watch.is_none() {
        return Err("--watch requires a polling interval in seconds".to_string());
    }
    let count = opt_parsed::<usize>(args, "--count")?;
    if flag_present(args, "--count") && count.is_none() {
        return Err("--count requires a value".to_string());
    }
    if count.is_some() && watch.is_none() {
        return Err("--count bounds a watch; it needs --watch SECS".to_string());
    }
    let mut client = ServeClient::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let Some(secs) = watch else {
        let text = client.stats().map_err(|e| e.to_string())?;
        client.bye().map_err(|e| e.to_string())?;
        if text.is_empty() {
            out!("(the server exposes no metrics)");
        } else {
            out!("{}", text.trim_end());
        }
        return Ok(());
    };
    // Watch mode: hold one session open and poll the exposition. Counter
    // lines (the `_total` convention) get a `+delta` column against the
    // previous poll, so a glance shows what moved; gauges print as-is.
    // A counter below its previous sample means the server restarted
    // (or swapped its registry) between polls — the delta would be
    // negative, so print the absolute value flagged as a restart and
    // re-baseline from there.
    let mut prev: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    let rounds = count.unwrap_or(usize::MAX);
    for round in 0..rounds {
        if round > 0 {
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
        let text =
            client.stats().map_err(|e| format!("server at {addr} went away mid-watch: {e}"))?;
        out!("--- poll {n} ---", n = round + 1);
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let (Some(name), Some(value)) = (it.next(), it.next()) else { continue };
            let cur: f64 = value.parse().unwrap_or(f64::NAN);
            match prev.get(name) {
                Some(p) if cur.is_finite() && name.ends_with("_total") => {
                    if cur < *p {
                        out!("{name} {value} (restart)");
                    } else {
                        out!("{name} {value} (+{delta})", delta = (cur - p) as u64);
                    }
                }
                _ => out!("{name} {value}"),
            }
            if cur.is_finite() {
                prev.insert(name.to_string(), cur);
            }
        }
    }
    client.bye().map_err(|e| e.to_string())?;
    Ok(())
}

/// Builds a long, cleanly-cadenced snapshot stream for the serving
/// bench by cycling a simulated training run with rewritten timestamps,
/// so the frame guard sees one uninterrupted session regardless of the
/// requested length.
fn bench_stream(frames: usize, seed: u64) -> Vec<appclass::metrics::Snapshot> {
    let specs = training_specs();
    let rec = run_spec(&specs[0], NodeId(1), seed);
    let base: Vec<_> =
        rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect();
    (0..frames)
        .map(|i| {
            let mut s = base[i % base.len()].clone();
            s.time = 5 * i as u64;
            s
        })
        .collect()
}

/// `p`-th percentile (nearest-rank on the sorted slice) in nanoseconds.
fn percentile_ns(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

fn cmd_bench_classify(args: &[String]) -> Result<(), String> {
    use appclass::serve::retry::{connect_with_retry, CircuitBreaker, RetryPolicy};
    use appclass::serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
    use std::time::{Duration, Instant};
    validate_flags(args, &["--seed", "--frames", "--batch", "--out"])?;
    let seed = opt_seed(args)?;
    let frames = opt_parsed::<usize>(args, "--frames")?.unwrap_or(512).max(1);
    let batch = opt_parsed::<usize>(args, "--batch")?.unwrap_or(32).max(1);
    let out_path = opt(args, "--out").unwrap_or_else(|| "BENCH_classify.json".to_string());

    let pipeline = std::sync::Arc::new(train_cluster_pipeline(seed).map_err(|e| e.to_string())?);
    let server =
        ShardServer::bind("127.0.0.1:0", std::sync::Arc::clone(&pipeline), ServerConfig::default())
            .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let snaps = bench_stream(frames, seed);

    // Single-frame path: one `Snapshot` control frame per sample; the
    // closing `Classify` round trip serializes against the server having
    // processed the whole stream, so the wall clock covers the work.
    let mut client =
        ServeClient::connect(addr, ClientConfig::default()).map_err(|e| e.to_string())?;
    let mut single_lat: Vec<u64> = Vec::with_capacity(frames);
    let t0 = Instant::now();
    for s in &snaps {
        let t = Instant::now();
        client.send_snapshot(s).map_err(|e| e.to_string())?;
        single_lat.push(t.elapsed().as_nanos() as u64);
    }
    let verdict_single = client.classify().map_err(|e| e.to_string())?;
    let single_elapsed = t0.elapsed();
    client.bye().map_err(|e| e.to_string())?;

    // Tracing/tsdb overhead row: the identical single-frame pass, but
    // with a client-side tracer stamping a trace extension on every
    // frame (so the server adopts the trace and records spans) while
    // the server's registry is scraped into a TsStore — the full
    // observability tax on the hot path. Untraced and traced legs are
    // interleaved over several repetitions so clock-speed and cache
    // drift between passes cancels instead of masquerading as
    // overhead; the row compares the pooled p50s.
    let tracer = appclass::obs::Tracer::new(8192);
    let mut store = appclass::obs::TsStore::new(256);
    let server_obs = server.observability().clone();
    let mut untraced_lat: Vec<u64> = Vec::with_capacity(3 * frames);
    let mut traced_lat: Vec<u64> = Vec::with_capacity(3 * frames);
    let mut scrape_t = 0u64;
    let mut verdict_traced = verdict_single.clone();
    for _rep in 0..3 {
        let mut client =
            ServeClient::connect(addr, ClientConfig::default()).map_err(|e| e.to_string())?;
        for s in &snaps {
            let t = Instant::now();
            client.send_snapshot(s).map_err(|e| e.to_string())?;
            untraced_lat.push(t.elapsed().as_nanos() as u64);
        }
        client.classify().map_err(|e| e.to_string())?;
        client.bye().map_err(|e| e.to_string())?;

        let cfg = ClientConfig { tracer: Some(tracer.clone()), ..ClientConfig::default() };
        let mut client = ServeClient::connect(addr, cfg).map_err(|e| e.to_string())?;
        for (i, s) in snaps.iter().enumerate() {
            let t = Instant::now();
            client.send_snapshot(s).map_err(|e| e.to_string())?;
            traced_lat.push(t.elapsed().as_nanos() as u64);
            if i % 64 == 0 {
                scrape_t += 1_000_000;
                store.scrape_at(&server_obs.registry, scrape_t);
            }
        }
        verdict_traced = client.classify().map_err(|e| e.to_string())?;
        client.bye().map_err(|e| e.to_string())?;
    }
    untraced_lat.sort_unstable();
    traced_lat.sort_unstable();

    // Acknowledged passes, one per coalescing width. Latency pass: one
    // `SnapshotBatch` per call means a synchronous round trip through
    // the `VerdictBatch` ack, so the per-item figure is true request
    // latency including the server-side batch processing. Throughput
    // pass: the whole stream in one call, so the client's pipeline
    // window keeps batches in flight while the server works — the
    // steady-state shape a monitoring relay would use. `cap = 1` is the
    // single-frame baseline the batch speedup is measured against
    // (identical protocol and ack semantics, only the coalescing
    // differs).
    let measure_acked = |cap: usize| -> Result<(Vec<u64>, std::time::Duration, _), String> {
        let mut client =
            ServeClient::connect(addr, ClientConfig::default()).map_err(|e| e.to_string())?;
        let mut lat: Vec<u64> = Vec::with_capacity(frames);
        for chunk in snaps.chunks(cap) {
            let t = Instant::now();
            client.stream_batch(chunk, cap).map_err(|e| e.to_string())?;
            let per_item = t.elapsed().as_nanos() as u64 / chunk.len() as u64;
            lat.extend(std::iter::repeat_n(per_item, chunk.len()));
        }
        client.bye().map_err(|e| e.to_string())?;
        let mut client =
            ServeClient::connect(addr, ClientConfig::default()).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        client.stream_batch(&snaps, cap).map_err(|e| e.to_string())?;
        let verdict = client.classify().map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        client.bye().map_err(|e| e.to_string())?;
        lat.sort_unstable();
        Ok((lat, elapsed, verdict))
    };
    let (one_lat, one_elapsed, verdict_one) = measure_acked(1)?;
    let (batch_lat, batch_elapsed, verdict_batch) = measure_acked(batch)?;

    server.shutdown();
    server.join().map_err(|e| e.to_string())?;

    // Overload saturation row: twice as many concurrent retrying
    // sessions as workers, against a deliberately tiny shedding queue.
    // The refused sessions back off on the server's Busy hint and get in
    // as workers drain; goodput is total classified frames over the
    // whole pile-up's wall clock, reported as a ratio against the
    // single-session batched saturation above — the no-collapse number
    // CI regresses against.
    let ov_workers = 2usize;
    let ov_sessions = 2 * ov_workers;
    let ov_config = ServerConfig {
        max_sessions: ov_workers,
        backlog: 2,
        shed_low_watermark: 0,
        shed_high_watermark: 1,
        busy_retry_after: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let ov_server = ShardServer::bind("127.0.0.1:0", std::sync::Arc::clone(&pipeline), ov_config)
        .map_err(|e| e.to_string())?;
    let ov_addr = ov_server.local_addr();
    let snaps_shared = std::sync::Arc::new(snaps);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..ov_sessions)
        .map(|i| {
            let snaps = std::sync::Arc::clone(&snaps_shared);
            std::thread::spawn(move || -> Result<(Vec<u64>, u32, u32), String> {
                let policy = RetryPolicy {
                    max_retries: 1000,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(50),
                    deadline: Some(Duration::from_secs(60)),
                    seed: 0xB05F + i as u64,
                };
                let mut breaker = CircuitBreaker::new(16, Duration::from_millis(100));
                let (mut client, report) =
                    connect_with_retry(ov_addr, &ClientConfig::default(), &policy, &mut breaker)
                        .map_err(|e| format!("overload session {i}: {e}"))?;
                // Chunked acknowledged streaming: each call pipelines a
                // few batches, and its wall clock over the chunk gives
                // the admitted-session per-frame latency samples.
                let mut lat = Vec::with_capacity(snaps.len());
                for chunk in snaps.chunks(batch * 4) {
                    let t = Instant::now();
                    client.stream_batch(chunk, batch).map_err(|e| e.to_string())?;
                    let per_item = t.elapsed().as_nanos() as u64 / chunk.len() as u64;
                    lat.extend(std::iter::repeat_n(per_item, chunk.len()));
                }
                client.classify().map_err(|e| e.to_string())?;
                client.bye().map_err(|e| e.to_string())?;
                Ok((lat, report.attempts, report.busy_refusals))
            })
        })
        .collect();
    let mut ov_lat: Vec<u64> = Vec::with_capacity(ov_sessions * frames);
    let mut ov_busy = 0u64;
    for h in handles {
        let (lat, _attempts, busy) =
            h.join().map_err(|_| "overload session thread panicked".to_string())??;
        ov_lat.extend(lat);
        ov_busy += u64::from(busy);
    }
    let ov_elapsed = t0.elapsed();
    ov_server.shutdown();
    let ov_stats = ov_server.join().map_err(|e| e.to_string())?;
    if ov_stats.sessions_busy != ov_busy {
        return Err(format!(
            "busy accounting mismatch: server refused {} but clients saw {}",
            ov_stats.sessions_busy, ov_busy
        ));
    }
    ov_lat.sort_unstable();
    let ov_goodput = (ov_sessions * frames) as f64 / ov_elapsed.as_secs_f64();

    // Multi-session saturation row: the sharded readiness-loop server
    // driven flat out by concurrent replay sessions at the protocol's
    // maximum batch width. This is the fleet-facing ceiling — aggregate
    // admitted frames per second across all shards — that the overload
    // goodput and future PRs regress against. The stream is long enough
    // that thread spawn and handshake cost amortize out of the figure.
    let sat_sessions = 4usize;
    let sat_shards = 2usize;
    let sat_batch = appclass::metrics::wire::MAX_SNAPSHOT_BATCH;
    let sat_stream = std::sync::Arc::new(bench_stream(frames.max(1024) * 4, seed ^ 0x5A7));
    let sat_server = ShardServer::bind(
        "127.0.0.1:0",
        std::sync::Arc::clone(&pipeline),
        ServerConfig { max_sessions: sat_sessions + 1, shards: sat_shards, ..Default::default() },
    )
    .map_err(|e| e.to_string())?;
    let sat_addr = sat_server.local_addr();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..sat_sessions)
        .map(|i| {
            let snaps = std::sync::Arc::clone(&sat_stream);
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut client = ServeClient::connect(sat_addr, ClientConfig::default())
                    .map_err(|e| format!("saturation session {i}: {e}"))?;
                let mut lat = Vec::with_capacity(snaps.len());
                for chunk in snaps.chunks(sat_batch * 4) {
                    let t = Instant::now();
                    client.stream_batch(chunk, sat_batch).map_err(|e| e.to_string())?;
                    let per_item = t.elapsed().as_nanos() as u64 / chunk.len() as u64;
                    lat.extend(std::iter::repeat_n(per_item, chunk.len()));
                }
                client.classify().map_err(|e| e.to_string())?;
                client.bye().map_err(|e| e.to_string())?;
                Ok(lat)
            })
        })
        .collect();
    let mut sat_lat: Vec<u64> = Vec::with_capacity(sat_sessions * sat_stream.len());
    for h in handles {
        sat_lat.extend(h.join().map_err(|_| "saturation session thread panicked".to_string())??);
    }
    let sat_elapsed = t0.elapsed();
    sat_server.shutdown();
    let sat_stats = sat_server.join().map_err(|e| e.to_string())?;
    if sat_stats.session_errors != 0 {
        return Err(format!(
            "saturation run had {} errored sessions — the figure would be meaningless",
            sat_stats.session_errors
        ));
    }
    sat_lat.sort_unstable();
    let sat_fps = sat_lat.len() as f64 / sat_elapsed.as_secs_f64();

    // The measurement doubles as a correctness check: all sessions saw
    // the identical stream, so the verdicts must be bit-equal.
    for (name, v) in [
        ("single-frame batch", &verdict_one),
        ("batched", &verdict_batch),
        ("traced", &verdict_traced),
    ] {
        if verdict_single.class != v.class
            || verdict_single.confidence.to_bits() != v.confidence.to_bits()
        {
            return Err(format!("{name} verdict diverged from the fire-and-forget verdict"));
        }
    }

    single_lat.sort_unstable();
    let single_fps = frames as f64 / single_elapsed.as_secs_f64();
    let one_fps = frames as f64 / one_elapsed.as_secs_f64();
    let batch_fps = frames as f64 / batch_elapsed.as_secs_f64();
    // Speedup is batch-N over batch-1: identical protocol, ack semantics
    // and pipelining on both sides, so the ratio isolates what coalescing
    // buys (the fire-and-forget "single" row has no acknowledgements at
    // all and is recorded as context, not as the baseline).
    let speedup = batch_fps / one_fps;
    // Goodput under ~2x offered load, relative to the single-session
    // batched saturation throughput. Below 0.5 the server is collapsing
    // under overload instead of shedding it.
    let ov_ratio = ov_goodput / batch_fps;
    // Observability tax: traced+scraped vs untraced single-frame p50.
    // CI asserts this stays under 5%.
    let untraced_p50 = percentile_ns(&untraced_lat, 50);
    let traced_p50 = percentile_ns(&traced_lat, 50);
    let overhead_pct = if untraced_p50 == 0 {
        0.0
    } else {
        (traced_p50 as f64 - untraced_p50 as f64) / untraced_p50 as f64 * 100.0
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"bench_classify/v2\",\n",
            "  \"seed\": {seed},\n",
            "  \"frames\": {frames},\n",
            "  \"batch_size\": {batch},\n",
            "  \"single\": {{ \"frames_per_sec\": {sfps:.1}, \"p50_ns\": {sp50}, \"p99_ns\": {sp99} }},\n",
            "  \"batch1\": {{ \"frames_per_sec\": {ofps:.1}, \"p50_ns\": {op50}, \"p99_ns\": {op99} }},\n",
            "  \"batch\": {{ \"frames_per_sec\": {bfps:.1}, \"p50_ns\": {bp50}, \"p99_ns\": {bp99} }},\n",
            "  \"overload\": {{ \"workers\": {ovw}, \"sessions\": {ovs}, \"goodput_frames_per_sec\": {ovfps:.1}, \"goodput_ratio\": {ovr:.3}, \"p50_ns\": {ovp50}, \"p99_ns\": {ovp99}, \"busy_refusals\": {ovbusy} }},\n",
            "  \"saturation\": {{ \"sessions\": {sats}, \"shards\": {satsh}, \"batch\": {satb}, \"frames_per_sec\": {satfps:.1}, \"p50_ns\": {satp50}, \"p99_ns\": {satp99}, \"speedup_vs_single\": {satx:.2} }},\n",
            "  \"tracing\": {{ \"untraced_p50_ns\": {utp50}, \"traced_p50_ns\": {trp50}, \"overhead_pct\": {ovhd:.2} }},\n",
            "  \"batch_speedup\": {speedup:.2}\n",
            "}}\n"
        ),
        seed = seed,
        frames = frames,
        batch = batch,
        sfps = single_fps,
        sp50 = percentile_ns(&single_lat, 50),
        sp99 = percentile_ns(&single_lat, 99),
        ofps = one_fps,
        op50 = percentile_ns(&one_lat, 50),
        op99 = percentile_ns(&one_lat, 99),
        bfps = batch_fps,
        bp50 = percentile_ns(&batch_lat, 50),
        bp99 = percentile_ns(&batch_lat, 99),
        ovw = ov_workers,
        ovs = ov_sessions,
        ovfps = ov_goodput,
        ovr = ov_ratio,
        ovp50 = percentile_ns(&ov_lat, 50),
        ovp99 = percentile_ns(&ov_lat, 99),
        ovbusy = ov_busy,
        sats = sat_sessions,
        satsh = sat_shards,
        satb = sat_batch,
        satfps = sat_fps,
        satp50 = percentile_ns(&sat_lat, 50),
        satp99 = percentile_ns(&sat_lat, 99),
        satx = sat_fps / single_fps,
        utp50 = untraced_p50,
        trp50 = traced_p50,
        ovhd = overhead_pct,
        speedup = speedup,
    );
    std::fs::write(&out_path, &json).map_err(|e| e.to_string())?;
    out!(
        "single(no-ack): {single_fps:.0} f/s   batch1: {one_fps:.0} f/s   batch{batch}: {batch_fps:.0} f/s   speedup: {speedup:.2}x"
    );
    out!(
        "overload({ovs}x/{ovw}w): {ovfps:.0} f/s goodput ({ovr:.2} of saturation), {ovbusy} busy refusals",
        ovs = ov_sessions,
        ovw = ov_workers,
        ovfps = ov_goodput,
        ovr = ov_ratio,
        ovbusy = ov_busy,
    );
    out!(
        "saturation({sats} sessions x {satsh} shards, batch {satb}): {satfps:.0} f/s ({satx:.1}x single)",
        sats = sat_sessions,
        satsh = sat_shards,
        satb = sat_batch,
        satfps = sat_fps,
        satx = sat_fps / single_fps,
    );
    out!(
        "tracing: {utp50} ns untraced p50 vs {trp50} ns traced+scraped ({ovhd:+.2}%), {pts} tsdb points",
        utp50 = untraced_p50,
        trp50 = traced_p50,
        ovhd = overhead_pct,
        pts = store.series_count(),
    );
    out!("wrote {out_path}");
    Ok(())
}

fn cmd_sched_cluster(args: &[String]) -> Result<(), String> {
    use appclass::cluster::{sched_cluster, ExperimentConfig, PolicyOutcome};
    validate_flags(args, &["--hosts", "--seed", "--trials", "--energy", "--out"])?;
    let seed = opt_seed(args)?;
    let cfg = ExperimentConfig {
        hosts: opt_parsed::<usize>(args, "--hosts")?.unwrap_or(16).max(1),
        seed,
        random_trials: opt_parsed::<usize>(args, "--trials")?.unwrap_or(5).max(1),
        energy_weight: opt_parsed::<f64>(args, "--energy")?.unwrap_or(0.0),
        ..ExperimentConfig::default()
    };
    let out_path = opt(args, "--out");
    if flag_present(args, "--out") && out_path.is_none() {
        return Err("--out requires a value".to_string());
    }

    let pipeline = train_cluster_pipeline(seed).map_err(|e| e.to_string())?;
    let result = sched_cluster(&pipeline, &cfg);

    out!(
        "fleet: {} hosts x {} slots = {} jobs   seed {}   misclassified {}",
        result.hosts,
        cfg.spec.slots,
        result.vms,
        seed,
        result.misclassified
    );
    out!(
        "{:<12} {:>14} {:>14} {:>12} {:>11}",
        "policy",
        "jobs/day",
        "makespan (s)",
        "migrations",
        "unfinished"
    );
    let row = |o: &PolicyOutcome| {
        out!(
            "{:<12} {:>14.1} {:>14} {:>12} {:>11}",
            o.policy,
            o.jobs_per_day,
            o.makespan_secs,
            o.migrations,
            o.unfinished
        );
    };
    row(&result.random);
    row(&result.class_aware);
    row(&result.oracle);
    out!(
        "verdict: class-aware {:.3}x over random, regret {:.3} vs oracle",
        result.gain_over_random,
        result.regret_vs_oracle
    );

    if let Some(path) = out_path {
        let outcome_json = |o: &PolicyOutcome| {
            format!(
                "{{ \"policy\": \"{}\", \"jobs_per_day\": {:.3}, \"makespan_secs\": {}, \"migrations\": {}, \"unfinished\": {} }}",
                o.policy, o.jobs_per_day, o.makespan_secs, o.migrations, o.unfinished
            )
        };
        let json = format!(
            concat!(
                "{{\n",
                "  \"schema\": \"sched_cluster/v1\",\n",
                "  \"seed\": {seed},\n",
                "  \"hosts\": {hosts},\n",
                "  \"vms\": {vms},\n",
                "  \"random_trials\": {trials},\n",
                "  \"misclassified\": {mis},\n",
                "  \"random\": {random},\n",
                "  \"class_aware\": {aware},\n",
                "  \"oracle\": {oracle},\n",
                "  \"gain_over_random\": {gain:.4},\n",
                "  \"regret_vs_oracle\": {regret:.4}\n",
                "}}\n"
            ),
            seed = seed,
            hosts = result.hosts,
            vms = result.vms,
            trials = cfg.random_trials,
            mis = result.misclassified,
            random = outcome_json(&result.random),
            aware = outcome_json(&result.class_aware),
            oracle = outcome_json(&result.oracle),
            gain = result.gain_over_random,
            regret = result.regret_vs_oracle,
        );
        std::fs::write(&path, &json).map_err(|e| e.to_string())?;
        out!("wrote {path}");
    }
    Ok(())
}

fn cmd_cost(args: &[String]) -> Result<(), String> {
    let db_path = opt(args, "--db").ok_or("cost requires --db FILE")?;
    let db = ApplicationDb::open(Path::new(&db_path)).map_err(|e| e.to_string())?;
    let rates = ResourceRates {
        cpu: opt_rate(args, "--cpu", 10.0)?,
        mem: opt_rate(args, "--mem", 8.0)?,
        io: opt_rate(args, "--io", 6.0)?,
        net: opt_rate(args, "--net", 4.0)?,
        idle: opt_rate(args, "--idle", 1.0)?,
    };
    let model = CostModel::new(rates);
    out!(
        "rates: cpu {} mem {} io {} net {} idle {}\n",
        rates.cpu,
        rates.mem,
        rates.io,
        rates.net,
        rates.idle
    );
    out!(
        "{:<18} {:>5} {:>6} {:>10} {:>12}",
        "application",
        "runs",
        "class",
        "mean secs",
        "run cost"
    );
    for app in db.applications() {
        let stats = db.stats(&app).expect("listed app has stats");
        let cost = db.expected_cost(&app, &model).expect("listed app priced");
        out!(
            "{:<18} {:>5} {:>6} {:>10.0} {:>12.1}",
            app,
            stats.runs,
            stats.class.label(),
            stats.mean_exec_secs,
            cost
        );
    }
    Ok(())
}
