//! Integration tests of the `appclass` CLI binary.
//!
//! Drives the compiled binary end to end through its file-based workflow:
//! list → train → classify (recording into a DB) → cost.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_appclass"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("appclass_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_succeeds() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(stdout(&out).contains("commands:"));
}

#[test]
fn list_shows_registry() {
    let out = bin().arg("list").output().unwrap();
    assert!(out.status.success());
    let s = stdout(&out);
    for name in ["SPECseis96_A", "PostMark_NFS", "VMD", "Ettcp-train"] {
        assert!(s.contains(name), "missing {name} in list output");
    }
}

#[test]
fn train_classify_cost_workflow() {
    let dir = tmpdir("workflow");
    let pipe = dir.join("pipeline.json");
    let db = dir.join("db.json");

    // train
    let out = bin().args(["train", "--out", pipe.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(pipe.exists());
    assert!(stdout(&out).contains("trained pipeline"));

    // classify + record
    let out = bin()
        .args([
            "classify",
            "--pipeline",
            pipe.to_str().unwrap(),
            "--workload",
            "CH3D",
            "--db",
            db.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = stdout(&out);
    assert!(s.contains("class:       CPU"), "CH3D must classify CPU:\n{s}");
    assert!(db.exists());

    // cost over the recorded DB
    let out = bin().args(["cost", "--db", db.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("CH3D"));
    assert!(s.contains("CPU"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn classify_requires_existing_pipeline() {
    let out = bin()
        .args(["classify", "--pipeline", "/nonexistent/p.json", "--workload", "CH3D"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn classify_rejects_unknown_workload() {
    let dir = tmpdir("badworkload");
    let pipe = dir.join("pipeline.json");
    assert!(bin().args(["train", "--out", pipe.to_str().unwrap()]).status().unwrap().success());
    let out = bin()
        .args(["classify", "--pipeline", pipe.to_str().unwrap(), "--workload", "NotABenchmark"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn export_writes_csv() {
    let dir = tmpdir("export");
    let csv = dir.join("xspim.csv");
    let out = bin()
        .args(["export", "--workload", "XSpim", "--out", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let content = std::fs::read_to_string(&csv).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert!(lines[0].starts_with("time,cpu_user"));
    assert_eq!(lines.len(), 10, "header + XSpim's 9 samples");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn table4_prints_both_rows() {
    let out = bin().arg("table4").output().unwrap();
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("Concurrent"));
    assert!(s.contains("Sequential"));
}

#[test]
fn bad_seed_rejected() {
    let out = bin().args(["table4", "--seed", "not-a-number"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
}

#[test]
fn every_seed_is_valid_up_to_the_largest() {
    // Sub-seeds are derived with wraparound: `u64::MAX` must not overflow
    // (a panic in a debug build).
    let dir = tmpdir("max_seed");
    let pipe = dir.join("pipeline.json");
    let max = u64::MAX.to_string();
    for args in [
        vec!["table3"],
        vec!["fig4"],
        vec!["fig5"],
        vec!["table4"],
        vec!["train", "--out", pipe.to_str().unwrap()],
    ] {
        let out = bin().args(&args).args(["--seed", &max]).output().unwrap();
        assert!(
            out.status.success(),
            "appclass {} --seed {max} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_mentions_serve_and_client() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let s = stdout(&out);
    assert!(s.contains("serve --addr"), "{s}");
    assert!(s.contains("client --addr"), "{s}");
}

#[test]
fn serve_requires_model_and_addr() {
    let out = bin().args(["serve", "--addr", "127.0.0.1:0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));

    let out = bin().args(["serve", "--model", "/nonexistent/p.json"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"));
}

#[test]
fn serve_rejects_unknown_flag() {
    let out = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--model", "p.json", "--sesions", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag `--sesions`"), "{err}");
    assert!(err.contains("usage"), "unknown flags must re-print usage:\n{err}");
}

#[test]
fn client_rejects_unknown_flag_and_bad_rate() {
    let out = bin()
        .args(["client", "--addr", "x", "--workload", "CH3D", "--drop-rte", "0.1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--drop-rte`"));

    let out = bin()
        .args(["client", "--addr", "x", "--workload", "CH3D", "--drop-rate", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--drop-rate"));
}

#[test]
fn client_rejects_bad_batch() {
    // --batch 0 can never coalesce anything; reject it before connecting.
    let out = bin()
        .args(["client", "--addr", "127.0.0.1:1", "--workload", "CH3D", "--batch", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--batch"));

    let out = bin()
        .args(["client", "--addr", "127.0.0.1:1", "--workload", "CH3D", "--bacth", "8"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--bacth`"));
}

#[test]
fn client_validates_retry_flags() {
    // --deadline-ms 0 would make every retry budget already expired.
    let out = bin()
        .args(["client", "--addr", "127.0.0.1:1", "--workload", "CH3D", "--deadline-ms", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline-ms"));

    // A typo'd retry flag fails loudly instead of being ignored.
    let out = bin()
        .args(["client", "--addr", "127.0.0.1:1", "--workload", "CH3D", "--retrys", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag `--retrys`"), "{err}");
    assert!(err.contains("usage"), "unknown flags must re-print usage:\n{err}");

    let out = bin()
        .args(["client", "--addr", "127.0.0.1:1", "--workload", "CH3D", "--backoff-ms", "x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--backoff-ms"));
}

#[test]
fn serve_validates_shedding_flags() {
    // Inverted watermarks can never drain: rejected before binding.
    let out = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:1",
            "--model",
            "x",
            "--shed-low",
            "9",
            "--shed-high",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--shed-low (9) must be below --shed-high (2)"), "{err}");

    // A zero high watermark would shed every connection.
    let out = bin()
        .args(["serve", "--addr", "127.0.0.1:1", "--model", "x", "--shed-high", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shed-high"));

    // A zero frame deadline would shed every snapshot.
    let out = bin()
        .args(["serve", "--addr", "127.0.0.1:1", "--model", "x", "--frame-deadline-ms", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--frame-deadline-ms"));

    let out = bin()
        .args(["serve", "--addr", "127.0.0.1:1", "--model", "x", "--retry-after", "10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--retry-after`"));
}

#[test]
fn bench_classify_writes_validated_json() {
    let dir = tmpdir("bench_classify");
    let out_path = dir.join("BENCH_classify.json");
    let out = bin()
        .args(["bench-classify", "--frames", "64", "--batch", "8"])
        .arg("--out")
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&out_path).unwrap();
    for key in [
        "\"schema\"",
        "\"single\"",
        "\"batch1\"",
        "\"batch\"",
        "\"batch_speedup\"",
        "\"p99_ns\"",
        "\"overload\"",
        "\"goodput_ratio\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let out = bin().args(["bench-classify", "--frames", "0x"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--frames"));
}

#[test]
fn sched_cluster_validates_flags() {
    // A typo'd flag fails loudly with the usual usage reminder.
    let out = bin().args(["sched-cluster", "--host", "4"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--host`"), "{err}");
    assert!(err.contains("usage"), "unknown flags must re-print usage:\n{err}");

    // Flags with missing or unparseable values are errors, not defaults.
    let out = bin().args(["sched-cluster", "--hosts"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--hosts"));

    let out = bin().args(["sched-cluster", "--hosts", "many"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--hosts"));

    let out = bin().args(["sched-cluster", "--trials", "-3"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trials"));

    let out = bin().args(["sched-cluster", "--energy", "warm"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--energy"));

    let out = bin().args(["sched-cluster", "--seed", "7.5"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));

    // `--out --seed 7` is a missing value, not a file named `--seed`.
    let out = bin().args(["sched-cluster", "--out", "--seed", "7"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out requires a value"));
}

#[test]
fn sched_cluster_runs_a_small_fleet_and_writes_json() {
    let dir = tmpdir("sched_cluster");
    let out_path = dir.join("sched.json");
    let out = bin()
        .args(["sched-cluster", "--hosts", "2", "--trials", "2", "--seed", "7"])
        .arg("--out")
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let s = stdout(&out);
    for needle in ["policy", "random", "class-aware", "oracle", "verdict:"] {
        assert!(s.contains(needle), "missing {needle} in:\n{s}");
    }
    let json = std::fs::read_to_string(&out_path).unwrap();
    for key in [
        "\"schema\": \"sched_cluster/v1\"",
        "\"random\"",
        "\"class_aware\"",
        "\"oracle\"",
        "\"gain_over_random\"",
        "\"regret_vs_oracle\"",
        "\"misclassified\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn stats_rejects_unknown_flag() {
    let out = bin().args(["stats", "--addr", "127.0.0.1:1", "--verbose"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--verbose`"), "{err}");
    assert!(err.contains("usage"), "unknown flags must re-print usage:\n{err}");

    let out = bin().arg("stats").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stats requires --addr"));
}

#[test]
fn models_and_swap_validate_flags() {
    // models: a typo'd flag fails loudly, and --store is required.
    let out = bin().args(["models", "--stor", "/tmp/x"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag `--stor`"), "{err}");
    assert!(err.contains("usage"), "unknown flags must re-print usage:\n{err}");

    let out = bin().arg("models").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("models requires --store"));

    // swap: unknown flag, missing --addr, source conflicts, orphan --id.
    let out = bin().args(["swap", "--addr", "x", "--model", "p.json", "--force"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--force`"));

    let out = bin().args(["swap", "--model", "p.json"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("swap requires --addr"));

    let out = bin().args(["swap", "--addr", "x"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model FILE or --store DIR"));

    let out = bin()
        .args(["swap", "--addr", "x", "--model", "p.json", "--store", "/tmp/s"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not both"));

    let out =
        bin().args(["swap", "--addr", "x", "--model", "p.json", "--id", "12ab"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--id"), "orphan --id must be rejected");

    // train grew --store, so its flag validation must catch typos too.
    let out = bin().args(["train", "--oot", "p.json"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--oot`"));
}

/// `train --store` commits versions; `models` walks the chain newest
/// first with the head starred and parents linked.
#[test]
fn train_store_builds_a_version_chain_models_can_list() {
    let dir = tmpdir("store_chain");
    let store = dir.join("store");
    let pipe_a = dir.join("a.json");
    let pipe_b = dir.join("b.json");

    let out = bin()
        .args(["train", "--out", pipe_a.to_str().unwrap(), "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = stdout(&out);
    assert!(s.contains("committed model 0x"), "{s}");
    assert!(s.contains("chain root"), "first commit parents on nothing:\n{s}");

    let out = bin()
        .args(["train", "--out", pipe_b.to_str().unwrap(), "--seed", "1042"])
        .args(["--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("parent 0x"), "second commit links its parent");

    let out = bin().args(["models", "--store", store.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = stdout(&out);
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(lines.len(), 3, "header + two versions:\n{s}");
    assert!(lines[1].starts_with('*'), "the head is starred:\n{s}");
    assert!(lines[2].trim_start().starts_with("0x"), "ancestors are unstarred:\n{s}");
    assert!(lines[2].contains(" - "), "the chain root has no parent:\n{s}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `appclass stats` against a dead port must exit with a typed
/// connection error on stderr — not a panic, not a hang.
#[test]
fn stats_on_dead_port_is_a_typed_error() {
    // Bind-then-drop an ephemeral port so nothing is listening on it.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let out = bin().args(["stats", "--addr", &dead.to_string()]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot reach"), "error must be typed, got:\n{err}");
    assert!(!err.contains("panicked"), "a dead port must not panic the CLI:\n{err}");
}

/// End-to-end over a real socket: train, serve on an ephemeral port,
/// replay one clean and one lossy client, then let the server drain.
#[test]
fn serve_and_client_roundtrip() {
    use std::io::{BufRead, BufReader};

    let dir = tmpdir("serve");
    let pipe = dir.join("pipeline.json");
    assert!(bin().args(["train", "--out", pipe.to_str().unwrap()]).status().unwrap().success());

    let mut server = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--model", pipe.to_str().unwrap()])
        .args(["--sessions", "2", "--max-sessions", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut server_out = BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    server_out.read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect("first line announces the address");

    let out = bin()
        .args(["client", "--addr", addr, "--workload", "CH3D", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = stdout(&out);
    assert!(s.contains("class:       CPU"), "CH3D must classify CPU over the wire:\n{s}");

    let out = bin()
        .args(["client", "--addr", addr, "--workload", "PostMark-train"])
        .args(["--seed", "9", "--drop-rate", "0.10"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = stdout(&out);
    assert!(s.contains("class:       IO"), "lossy PostMark must still classify IO:\n{s}");

    assert!(server.wait().unwrap().success(), "server must drain cleanly after 2 sessions");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server_out, &mut rest).unwrap();
    assert!(rest.contains("verdicts: 2"), "aggregate stats must count both verdicts:\n{rest}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_validates_watch_flags() {
    // --watch with a missing interval is an error, not a silent one-shot.
    let out = bin().args(["stats", "--addr", "127.0.0.1:1", "--watch"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--watch requires"), "{err}");

    // --count only makes sense as a bound on a watch.
    let out = bin().args(["stats", "--addr", "127.0.0.1:1", "--count", "3"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--count") && err.contains("--watch"), "{err}");

    // --count needs a value.
    let out =
        bin().args(["stats", "--addr", "127.0.0.1:1", "--watch", "1", "--count"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--count requires"));

    // A typo'd watch flag fails loudly instead of being ignored.
    let out = bin().args(["stats", "--addr", "127.0.0.1:1", "--wach", "2"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag `--wach`"), "{err}");
    assert!(err.contains("usage"), "unknown flags must re-print usage:\n{err}");
}

/// A scripted control-protocol endpoint: answers the handshake, then
/// serves one canned exposition per `Stats` poll, so watch-mode output
/// is deterministic — including a counter reset between polls, which is
/// what a server restart looks like to the client.
fn scripted_stats_server(
    replies: Vec<&'static str>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use appclass::metrics::wire::{decode_control, encode_control};
    use appclass::metrics::{ByeReason, ControlFrame};
    use std::io::{Read, Write};

    fn send(stream: &mut std::net::TcpStream, frame: &ControlFrame) {
        let body = encode_control(frame);
        stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(&body).unwrap();
    }

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut replies = replies.into_iter();
        loop {
            let mut len = [0u8; 4];
            if stream.read_exact(&mut len).is_err() {
                return;
            }
            let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
            stream.read_exact(&mut body).unwrap();
            match decode_control(&body).unwrap() {
                ControlFrame::Hello { model_id, .. } => {
                    send(&mut stream, &ControlFrame::Hello { session: 7, model_id });
                }
                ControlFrame::Stats { .. } => {
                    let text = replies.next().expect("more Stats polls than scripted replies");
                    send(&mut stream, &ControlFrame::Stats { text: text.to_string() });
                }
                ControlFrame::Bye { .. } => {
                    send(&mut stream, &ControlFrame::Bye { reason: ByeReason::Normal });
                    return;
                }
                other => panic!("scripted server got unexpected frame {other:?}"),
            }
        }
    });
    (addr, handle)
}

/// Watch mode across a counter reset: a `_total` value dropping below
/// its previous sample is a server restart, not a negative delta — the
/// line must print the new absolute value flagged `(restart)` and the
/// next poll must delta against the post-restart baseline.
#[test]
fn stats_watch_flags_counter_resets_as_restarts() {
    let (addr, server) = scripted_stats_server(vec![
        "serve_frames_in_total 100\nserve_overload_state 1",
        "serve_frames_in_total 3\nserve_overload_state 0",
        "serve_frames_in_total 10\nserve_overload_state 0",
    ]);
    let out = bin()
        .args(["stats", "--addr", &addr.to_string(), "--watch", "1", "--count", "3"])
        .output()
        .unwrap();
    server.join().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let s = stdout(&out);

    // Poll 1 establishes the baseline: no delta column yet.
    assert!(s.contains("--- poll 1 ---"), "{s}");
    assert!(s.contains("serve_frames_in_total 100\n"), "first sample has no delta:\n{s}");
    // Poll 2: 3 < 100 is a reset — absolute value, flagged, no bogus +0.
    assert!(s.contains("serve_frames_in_total 3 (restart)"), "reset must be flagged:\n{s}");
    assert!(!s.contains("(+0)"), "a reset must not masquerade as a zero delta:\n{s}");
    // Poll 3 deltas against the post-restart baseline, not the old one.
    assert!(s.contains("serve_frames_in_total 10 (+7)"), "re-baseline after restart:\n{s}");
    // Gauges never grow delta or restart annotations.
    assert!(s.contains("serve_overload_state 1\n"), "{s}");
    assert!(s.contains("serve_overload_state 0\n"), "{s}");
    assert!(!s.contains("serve_overload_state 0 ("), "gauges stay unannotated:\n{s}");
}
