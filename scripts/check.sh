#!/usr/bin/env sh
# Pre-PR gate: build, test, lint, format — run this before every commit.
#
#   ./scripts/check.sh
#
# Any failure (including a clippy warning or unformatted file) fails the
# whole script.
set -eu

cd "$(dirname "$0")/.."

# Every root-workspace step runs `--locked`: a Cargo.lock that no longer
# matches the manifests fails the gate instead of being rewritten.
echo "== cargo build --release =="
cargo build --release --locked

echo "== cargo test --workspace -q =="
# Every crate's tests, not only the root package's: the codec, serving,
# core and vendored-shim suites live under crates/*.
cargo test --workspace -q --locked

echo "== perfbench tests =="
# The benchmark (perfbench/, a Cargo package of its own) builds the crates
# by path against their public APIs: a removal that breaks it must fail
# here, not in a later benchmark run.
cargo test --release --manifest-path perfbench/Cargo.toml

# Lint and format right after the tests, ahead of the smoke and timing
# steps, so their verdict is reported even when a timing gate fails.
# Every target: tests, benches and examples as well as the libraries
# and binaries.
echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets --locked -- -D warnings

echo "== cargo doc --workspace --no-deps (warnings denied) =="
# Broken or ambiguous intra-doc links fail here, so a deleted item
# cannot leave links to it behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

echo "== cargo fmt --check =="
cargo fmt --check

echo "== compile the criterion benches =="
# clippy above type-checks crates/bench/benches/*; this step also builds
# and links them in the bench profile, exactly as `cargo bench` runs
# them.
cargo bench --workspace --no-run --locked

# Prints the address a server announced in its log ($1), waiting up to
# 10 s for the "listening on" line; fails if it never appears.
wait_addr() {
    j=0
    while [ "$j" -lt 100 ]; do
        a=$(sed -n 's/^listening on //p' "$1")
        [ -n "$a" ] && { echo "$a"; return 0; }
        sleep 0.1
        j=$((j + 1))
    done
    return 1
}

echo "== server smoke test =="
# Train a model, serve it on an ephemeral port, classify one workload
# over TCP, and require a clean drain with a nonzero verdict count.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
./target/release/appclass train --out "$tmp/pipeline.json" --seed 42 > /dev/null
./target/release/appclass serve --addr 127.0.0.1:0 --model "$tmp/pipeline.json" \
    --sessions 1 > "$tmp/serve.log" &
serve_pid=$!
addr=$(wait_addr "$tmp/serve.log") \
    || { echo "server never announced its address"; kill "$serve_pid"; exit 1; }
./target/release/appclass client --addr "$addr" --workload CH3D --seed 7 > "$tmp/client.log"
wait "$serve_pid"
grep -q "class:       CPU" "$tmp/client.log"
grep -q "verdicts: [1-9]" "$tmp/serve.log"
echo "server smoke OK ($addr, one session, clean drain)"

echo "== observability smoke test =="
# Serve again with two session slots: one real classify session, then a
# stats fetch over the Stats control frame (the fetch occupies the
# second slot). The exposition must be parseable "name value" lines and
# count the classify that just happened.
./target/release/appclass serve --addr 127.0.0.1:0 --model "$tmp/pipeline.json" \
    --sessions 2 > "$tmp/obs_serve.log" &
obs_pid=$!
addr=$(wait_addr "$tmp/obs_serve.log") \
    || { echo "observability server never announced its address"; kill "$obs_pid"; exit 1; }
./target/release/appclass client --addr "$addr" --workload CH3D --seed 7 > /dev/null
./target/release/appclass stats --addr "$addr" > "$tmp/stats.log"
wait "$obs_pid"
grep -q "^serve_classify_total [1-9]" "$tmp/stats.log"
awk 'NF != 2 { print "unparseable exposition line: " $0; bad = 1 } END { exit bad }' "$tmp/stats.log"
echo "observability smoke OK ($addr, nonzero classify_total, parseable dump)"

echo "== persistence & hot-swap smoke test =="
# Commit a trained model to the version store, serve it, classify, then
# restart the server from disk: the fingerprint must be identical and a
# client pinned to the old fingerprint must still be admitted. Finally
# retrain, hot-swap the running server, and require the swap in the
# stats exposition with zero errored sessions.
./target/release/appclass train --out "$tmp/v1.json" --seed 42 --store "$tmp/store" > /dev/null
./target/release/appclass models --store "$tmp/store" | grep -q '^\*0x'

# First lifetime: serve the store's HEAD and classify once.
./target/release/appclass serve --addr 127.0.0.1:0 --store "$tmp/store" \
    --sessions 1 > "$tmp/persist_a.log" &
pa_pid=$!
addr=$(wait_addr "$tmp/persist_a.log") \
    || { echo "store-backed server never announced its address"; kill "$pa_pid"; exit 1; }
fp1=$(sed -n 's/^serving model \(0x[0-9a-f]*\) from.*/\1/p' "$tmp/persist_a.log")
[ -n "$fp1" ] || { echo "server never printed its model fingerprint"; kill "$pa_pid"; exit 1; }
./target/release/appclass client --addr "$addr" --workload CH3D --seed 7 > /dev/null
wait "$pa_pid"

# Second lifetime: restart from disk. Same fingerprint, and a client
# pinned to the pre-restart fingerprint is still admitted.
./target/release/appclass serve --addr 127.0.0.1:0 --store "$tmp/store" \
    --sessions 4 > "$tmp/persist_b.log" &
pb_pid=$!
addr=$(wait_addr "$tmp/persist_b.log") \
    || { echo "restarted server never announced its address"; kill "$pb_pid"; exit 1; }
fp2=$(sed -n 's/^serving model \(0x[0-9a-f]*\) from.*/\1/p' "$tmp/persist_b.log")
[ "$fp1" = "$fp2" ] \
    || { echo "restart changed the model fingerprint: $fp1 -> $fp2"; kill "$pb_pid"; exit 1; }
./target/release/appclass client --addr "$addr" --workload CH3D --seed 7 \
    --model-id "$fp1" > "$tmp/pinned.log"
grep -q "class:       CPU" "$tmp/pinned.log"

# Hot swap: retrain under another seed, install on the running server,
# and keep classifying.
./target/release/appclass train --out "$tmp/v2.json" --seed 1042 --store "$tmp/store" > /dev/null
./target/release/appclass swap --addr "$addr" --store "$tmp/store" > "$tmp/swap.log"
grep -q "swapped model $fp1 -> 0x" "$tmp/swap.log"
./target/release/appclass client --addr "$addr" --workload CH3D --seed 7 > /dev/null
./target/release/appclass stats --addr "$addr" > "$tmp/swap_stats.log"
grep -q "^serve_model_swap_total 1" "$tmp/swap_stats.log"
wait "$pb_pid"
grep -q ", 0 errored" "$tmp/persist_b.log"
echo "persistence smoke OK ($fp1 restored, hot swap observed, zero errored sessions)"

echo "== overload shedding smoke test =="
# A server that expects one session at a time (--max-sessions 1), with
# a tiny shedding queue, flooded by four concurrent Busy-aware clients.
# Every admitted client is served at once; while two are admitted, the
# next connection is queue depth past --shed-high and must be
# soft-refused (serve_shed_total > 0 in the exposition, which must stay
# parseable), and every refused client must still classify successfully
# after backing off. The generous --frame-deadline-ms exercises the
# deadline plumbing without shedding anything over loopback.
./target/release/appclass serve --addr 127.0.0.1:0 --model "$tmp/pipeline.json" \
    --sessions 5 --max-sessions 1 --backlog 4 --shed-high 1 --shed-low 0 \
    --retry-after-ms 25 --frame-deadline-ms 5000 > "$tmp/overload_serve.log" &
ov_pid=$!
addr=$(wait_addr "$tmp/overload_serve.log") \
    || { echo "overload server never announced its address"; kill "$ov_pid"; exit 1; }
cpids=""
for i in 1 2 3 4; do
    ./target/release/appclass client --addr "$addr" --workload CH3D --seed 7 \
        --retries 50 --backoff-ms 20 > "$tmp/overload_c$i.log" &
    cpids="$cpids $!"
done
for pid in $cpids; do
    wait "$pid" || { echo "a flooded client failed instead of retrying"; kill "$ov_pid"; exit 1; }
done
./target/release/appclass stats --addr "$addr" > "$tmp/overload_stats.log"
wait "$ov_pid"
grep -q "^serve_shed_total [1-9]" "$tmp/overload_stats.log" \
    || { echo "flood never tripped the shedder (serve_shed_total == 0)"; exit 1; }
awk 'NF != 2 { print "unparseable exposition line: " $0; bad = 1 } END { exit bad }' \
    "$tmp/overload_stats.log"
for i in 1 2 3 4; do grep -q "class:       CPU" "$tmp/overload_c$i.log"; done
shed=$(sed -n 's/^serve_shed_total //p' "$tmp/overload_stats.log")
echo "overload smoke OK ($shed connections shed, all four clients classified)"

echo "== trace assembly smoke test =="
# One end-to-end trace from a live serve session: the example runs a
# traced client against a loopback server and prints the assembled
# cross-process tree. Both processes must appear under one trace id,
# the Verdict must echo it, and the server's stage spans must graft
# below the client's classify span (depth > 0).
cargo run --release --quiet --example trace_assembly > "$tmp/trace.log"
grep -q "^trace=0x" "$tmp/trace.log" \
    || { echo "traced client never printed its trace id"; exit 1; }
grep -q "echo ok" "$tmp/trace.log" \
    || { echo "Verdict did not echo the request's trace id"; exit 1; }
grep -q '"process":"client"' "$tmp/trace.log" \
    || { echo "assembled trace lacks client spans"; exit 1; }
grep -q '"process":"server".*"name":"classify_frame"' "$tmp/trace.log" \
    || { echo "assembled trace lacks server classify spans"; exit 1; }
if grep '"process":"server"' "$tmp/trace.log" | grep -q '"depth":0'; then
    echo "server spans failed to graft under the client span"
    exit 1
fi
spans=$(grep -c '"process":' "$tmp/trace.log")
echo "trace smoke OK ($spans spans assembled across both processes)"

echo "== sharded fleet smoke test =="
# The sharded readiness-loop server fronting a compressed fleet replay:
# 40 simulated VMs from a diurnal+bursty arrival plan, all of which must
# be served (capacity is provisioned above the herd), with the server
# draining cleanly after exactly that many sessions.
./target/release/appclass serve --addr 127.0.0.1:0 --model "$tmp/pipeline.json" \
    --shards 2 --max-sessions 64 --sessions 40 > "$tmp/fleet_serve.log" &
fl_pid=$!
addr=$(wait_addr "$tmp/fleet_serve.log") \
    || { echo "sharded server never announced its address"; kill "$fl_pid"; exit 1; }
./target/release/appclass fleet --addr "$addr" --vms 40 --seed 42 \
    --compression 100000 > "$tmp/fleet.log"
wait "$fl_pid"
grep -q "fleet: 40 VMs -> 40 served, 0 busy, 0 rejected, 0 failed" "$tmp/fleet.log" \
    || { echo "fleet replay did not serve every VM:"; cat "$tmp/fleet.log"; exit 1; }
grep -q "(100.0% goodput ratio)" "$tmp/fleet.log"
grep -q ", 0 errored" "$tmp/fleet_serve.log"
echo "sharded fleet smoke OK (40 VMs served across 2 shards, clean drain)"

echo "== idle server smoke test =="
# An idle sharded server parks every thread until work arrives, so over
# 2 s its CPU time (utime + stime, fields 14 and 15 of /proc/<pid>/stat,
# in clock ticks) may grow by at most one tick. A server that wakes on a
# timer reads several.
if [ -r /proc/self/stat ]; then
    ./target/release/appclass serve --addr 127.0.0.1:0 --model "$tmp/pipeline.json" \
        --shards 2 > "$tmp/idle_serve.log" &
    idle_pid=$!
    wait_addr "$tmp/idle_serve.log" > /dev/null \
        || { echo "idle server never announced its address"; kill "$idle_pid"; exit 1; }
    t0=$(awk '{ print $14 + $15 }' "/proc/$idle_pid/stat")
    sleep 2
    t1=$(awk '{ print $14 + $15 }' "/proc/$idle_pid/stat")
    kill "$idle_pid"
    wait "$idle_pid" 2> /dev/null || true
    [ $((t1 - t0)) -le 1 ] \
        || { echo "idle server used $((t1 - t0)) clock ticks of CPU in 2 s"; exit 1; }
    echo "idle server smoke OK ($((t1 - t0)) clock ticks of CPU in 2 s)"
else
    echo "idle server smoke skipped: no /proc to read CPU time from"
fi

echo "== cluster scheduling smoke test =="
# Class-aware placement across a 16-host fleet, driven entirely by
# pipeline-observed compositions: it must not lose to the averaged
# random baseline.
./target/release/appclass sched-cluster --hosts 16 --seed 42 \
    --out "$tmp/sched.json" > "$tmp/sched.log"
grep -q "verdict: class-aware" "$tmp/sched.log"
gain=$(sed -n 's/.*"gain_over_random": \([0-9.]*\).*/\1/p' "$tmp/sched.json")
[ -n "$gain" ] || { echo "sched-cluster JSON lacks gain_over_random"; exit 1; }
awk "BEGIN { exit !($gain >= 1.0) }" \
    || { echo "class-aware placement lost to random (gain $gain < 1.0)"; exit 1; }
echo "cluster smoke OK (16 hosts, class-aware ${gain}x over random)"

echo "== bench smoke (BENCH_classify.json) =="
# Short calibrated measurement of the single-frame vs batched serving
# paths; fails if BENCH_classify.json is missing or non-parseable.
BENCH_FRAMES="${BENCH_FRAMES:-512}" ./scripts/bench_smoke.sh

echo "All checks passed."
