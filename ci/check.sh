#!/usr/bin/env bash
# Tier-1 gate: everything CI requires, runnable locally with one command.
#
# Usage: ci/check.sh [MODE]
#
#   lint   — fmt + clippy + rustdoc (all deny-warnings, deprecated APIs denied)
#   test   — release build + full workspace test suite
#   smoke  — faulted-determinism + OpenMetrics-golden console smokes
#   replay — checkpoint/kill/resume gate: an interrupted checkpointing
#            run resumed in a fresh process must byte-match the
#            uninterrupted run's artifacts, and a snapshot's checksum
#            must match xz's CRC-64 of its body (needs `xz`)
#   fleet  — fleet-scale smoke (release): 1k-host wall-clock budget +
#            thread-invariance, 8-thread sharding speedup gate, 10k-host
#            smoke. `fleet --threads N` runs the wall-clock gates with N
#            engine threads (exported as BAAT_ENGINE_THREADS)
#   perf   — perf regression gate against the committed baseline
#   all    — every mode above, in order (the default)
#
# CI runs one mode per matrix job so lint, tests, the fleet smoke and
# the perf gate fail independently and cache independently; `all`
# reproduces the full gate locally.
#
# Runs fully offline — CARGO_NET_OFFLINE forces cargo to fail loudly if
# anything tries to reach a registry instead of hanging or silently
# fetching. Pair with ci/hermetic.sh, which checks the manifests
# themselves.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

MODE="${1:-all}"
if [[ $# -gt 0 ]]; then shift; fi
while [[ $# -gt 0 ]]; do
    case "$1" in
    --threads)
        # Engine worker threads for the fleet wall-clock gates (intra-step
        # sharding; distinct from BAAT_RUNNER_THREADS scenario fan-out).
        export BAAT_ENGINE_THREADS="${2:?--threads needs a count}"
        shift 2
        ;;
    *)
        echo "error: unknown argument '$1' (supported: --threads N)" >&2
        exit 2
        ;;
    esac
done

# Temp dirs registered here are removed on exit, whichever modes ran.
CLEANUP_DIRS=()
cleanup() {
    if ((${#CLEANUP_DIRS[@]})); then
        rm -rf "${CLEANUP_DIRS[@]}"
    fi
}
trap cleanup EXIT

run_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (deny warnings + deprecated)"
    # -D deprecated keeps callers off any API marked #[deprecated] for
    # removal, even where the deprecation warning would otherwise be
    # allowed.
    cargo clippy --workspace --all-targets -- -D warnings -D deprecated

    echo "==> cargo doc (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

run_test() {
    echo "==> cargo build --release"
    cargo build --workspace --release

    echo "==> cargo test"
    cargo test --workspace -q

    echo "==> allocation budgets (counting allocator)"
    # The inline routing path must not allocate: a faulted day stays
    # under its per-step budget at 1 and at 4 engine threads.
    cargo test --release -p baat-bench --features count-allocs --test alloc_counts -- --nocapture
}

run_smoke() {
    echo "==> faulted-scenario determinism smoke"
    # Two identical faulted console runs must emit byte-identical event
    # logs, the faulted log must actually carry fault events, and a clean
    # run must carry none.
    SMOKE_DIR="$(mktemp -d)"
    CLEANUP_DIRS+=("$SMOKE_DIR")
    CONSOLE=(cargo run --release -q -p baat-bench --bin console --)
    "${CONSOLE[@]}" --scheme baat --weather cloudy --seed 7 \
        --faults heavy --jsonl "$SMOKE_DIR/a" >/dev/null
    "${CONSOLE[@]}" --scheme baat --weather cloudy --seed 7 \
        --faults heavy --jsonl "$SMOKE_DIR/b" >/dev/null
    cmp "$SMOKE_DIR/a/events.jsonl" "$SMOKE_DIR/b/events.jsonl"
    grep -q '"kind":"fault_injected"' "$SMOKE_DIR/a/events.jsonl"
    "${CONSOLE[@]}" --scheme baat --weather cloudy --seed 7 \
        --jsonl "$SMOKE_DIR/clean" >/dev/null
    if grep -q '"kind":"fault_injected"' "$SMOKE_DIR/clean/events.jsonl"; then
        echo "error: clean run emitted fault events" >&2
        exit 1
    fi

    echo "==> OpenMetrics golden + trace schema"
    # The faulted run's OpenMetrics snapshot is a golden: byte-compare it
    # against the checked-in reference (regenerate by copying the fresh
    # snapshot over ci/golden/metrics.om after an intended change). The
    # span export must satisfy the trace schema, and `console diff` must
    # agree the two identical runs are identical.
    cmp "$SMOKE_DIR/a/metrics.om" ci/golden/metrics.om
    "${CONSOLE[@]}" trace-check "$SMOKE_DIR/a/spans.jsonl"
    "${CONSOLE[@]}" diff "$SMOKE_DIR/a/events.jsonl" "$SMOKE_DIR/b/events.jsonl" >/dev/null

    echo "==> live scrape endpoint smoke"
    # `console serve` must print its bound address before stepping,
    # answer /healthz and /run while the run progresses, expose a
    # schema-valid OpenMetrics snapshot on /metrics that carries the
    # exec.* pool-introspection family (the scenario is a sharded fleet
    # run), keep serving under --linger after the run completes, and
    # shut down cleanly when a client requests /quit. Probes use bash's
    # /dev/tcp so the smoke stays dependency-free.
    SERVE_LOG="$SMOKE_DIR/serve.log"
    "${CONSOLE[@]}" serve --linger --scheme baat --weather cloudy --seed 7 \
        --fleet 1000 --threads 4 >"$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    PORT=""
    for _ in $(seq 1 600); do
        PORT="$(sed -n 's|^serving http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' "$SERVE_LOG")"
        [ -n "$PORT" ] && break
        sleep 0.05
    done
    if [ -z "$PORT" ]; then
        echo "error: console serve never printed its bound address" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    http_get() {
        # One HTTP/1.0 exchange against the serving console; body only.
        exec 3<>"/dev/tcp/127.0.0.1/$PORT"
        printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
        sed '1,/^\r*$/d' <&3 >"$2"
        exec 3<&- 3>&-
    }
    http_get /healthz "$SMOKE_DIR/healthz.body"
    grep -q '^ok' "$SMOKE_DIR/healthz.body"
    http_get /run "$SMOKE_DIR/run.body"
    grep -q '"seed":7' "$SMOKE_DIR/run.body"
    # A scrape taken while the run is still stepping must already be
    # schema-valid (the exporter snapshots atomically).
    http_get /metrics "$SMOKE_DIR/scrape.om"
    grep -q '# EOF' "$SMOKE_DIR/scrape.om"
    "${CONSOLE[@]}" trace-check "$SMOKE_DIR/scrape.om"
    # Wait for the run to finish lingering, then take a final scrape:
    # it must still validate and now carry the full exec.* family.
    for _ in $(seq 1 2400); do
        grep -q 'run complete' "$SERVE_LOG" && break
        sleep 0.05
    done
    grep -q 'run complete' "$SERVE_LOG"
    http_get /metrics "$SMOKE_DIR/scrape-final.om"
    grep -q '^exec_pool_threads' "$SMOKE_DIR/scrape-final.om"
    grep -q '^exec_worker_0_busy_ns' "$SMOKE_DIR/scrape-final.om"
    grep -q '^exec_merge_wait_' "$SMOKE_DIR/scrape-final.om"
    "${CONSOLE[@]}" trace-check "$SMOKE_DIR/scrape-final.om"
    http_get /quit "$SMOKE_DIR/quit.body"
    grep -q '^bye' "$SMOKE_DIR/quit.body"
    wait "$SERVE_PID"

    echo "==> chemistry ablation smoke"
    # Both chemistries run the same short day. An explicit
    # --chemistry lead-acid run must stay byte-identical to the default
    # run (the flag only adds run metadata and the run.chemistry gauge),
    # while the li-ion run must actually diverge — a real ablation, not a
    # relabelled rerun. Run metadata records the chemistry either way.
    "${CONSOLE[@]}" --scheme baat --weather cloudy --seed 7 \
        --chemistry lead-acid --jsonl "$SMOKE_DIR/pb" >/dev/null
    "${CONSOLE[@]}" --scheme baat --weather cloudy --seed 7 \
        --chemistry li-ion --jsonl "$SMOKE_DIR/li" >/dev/null
    cmp "$SMOKE_DIR/pb/events.jsonl" "$SMOKE_DIR/clean/events.jsonl"
    grep -q '"chemistry":"lead-acid"' "$SMOKE_DIR/pb/run.jsonl"
    grep -q '"chemistry":"li-ion"' "$SMOKE_DIR/li/run.jsonl"
    grep -q 'run_chemistry\|run\.chemistry' "$SMOKE_DIR/li/metrics.om"
    if cmp -s "$SMOKE_DIR/li/events.jsonl" "$SMOKE_DIR/clean/events.jsonl"; then
        echo "error: li-ion run replayed the lead-acid event stream" >&2
        exit 1
    fi
    "${CONSOLE[@]}" trace-check "$SMOKE_DIR/li/spans.jsonl"
}

run_replay() {
    echo "==> checkpoint / kill / resume replay gate"
    # An interrupted checkpointing run, resumed from its last complete
    # snapshot in a fresh process, must rebuild byte-identical run
    # artifacts to the same scenario run uninterrupted — and `replay`
    # must land on the same state hash from two different checkpoints.
    # The console binary is invoked directly (not through `cargo run`)
    # so the kill below hits the simulation process itself.
    cargo build --release -q -p baat-bench --bin console
    CONSOLE_BIN=target/release/console
    REPLAY_DIR="$(mktemp -d)"
    CLEANUP_DIRS+=("$REPLAY_DIR")
    SCENARIO=(--scheme baat --weather cloudy,rainy,cloudy --seed 11 --faults light)

    "$CONSOLE_BIN" checkpoint --dir "$REPLAY_DIR/full" --every 400 \
        "${SCENARIO[@]}" >/dev/null

    "$CONSOLE_BIN" checkpoint --dir "$REPLAY_DIR/cut" --every 400 \
        "${SCENARIO[@]}" >/dev/null &
    CUT_PID=$!
    for _ in $(seq 1 600); do
        if [ "$(ls "$REPLAY_DIR/cut"/step-*.snap 2>/dev/null | wc -l)" -ge 3 ]; then
            break
        fi
        sleep 0.05
    done
    kill -9 "$CUT_PID" 2>/dev/null || true
    wait "$CUT_PID" 2>/dev/null || true

    # Snapshots are sunk sequentially, so every file except the
    # lexically-newest is complete; drop the newest (the kill may have
    # cut it off mid-write) and resume from the survivor in a fresh
    # process. A resumed run rewrites events/trace/result from step 0,
    # so the artifacts must byte-match the uninterrupted run's.
    rm -f "$REPLAY_DIR/cut"/events.jsonl "$REPLAY_DIR/cut"/trace.jsonl \
        "$REPLAY_DIR/cut"/result.jsonl
    NEWEST="$(ls "$REPLAY_DIR/cut"/step-*.snap | sort | tail -1)"
    rm -f "$NEWEST"
    LAST="$(ls "$REPLAY_DIR/cut"/step-*.snap | sort | tail -1)"
    "$CONSOLE_BIN" resume "$LAST" >/dev/null
    cmp "$REPLAY_DIR/full/events.jsonl" "$REPLAY_DIR/cut/events.jsonl"
    cmp "$REPLAY_DIR/full/trace.jsonl" "$REPLAY_DIR/cut/trace.jsonl"
    cmp "$REPLAY_DIR/full/result.jsonl" "$REPLAY_DIR/cut/result.jsonl"

    # The scenario must leave jobs queued overnight (each is logged as a
    # placement_failed event when the next day starts), so the gate
    # above covers checkpoints that carry a pending queue through the
    # per-kind queue's restore.
    QUEUED_OVERNIGHT="$(grep -c '"kind":"placement_failed"' "$REPLAY_DIR/full/events.jsonl" || true)"
    if [ "$QUEUED_OVERNIGHT" -eq 0 ]; then
        echo "error: the replay scenario never carried a queued job over a day" >&2
        exit 1
    fi
    echo "    $QUEUED_OVERNIGHT queued jobs carried over a day"

    # Every snapshot trailer must be the CRC-64/XZ of its body, as an
    # independent implementation computes it: cut the body out by the
    # header's length field (bytes 21..29), let xz checksum it as a
    # single block, and compare `xz -lvv`'s CheckVal with the trailer
    # read as a little-endian u64. Every snapshot left in the cut run's
    # directory is checked: their bodies differ in length, so the
    # oracle sees the four-stream CRC at several lane and tail sizes.
    if ! command -v xz >/dev/null; then
        echo "error: xz not found; the replay gate needs it to cross-check snapshot checksums" >&2
        exit 1
    fi
    CHECKED=0
    for SNAP in "$REPLAY_DIR/cut"/step-*.snap; do
        BODY_LEN="$(od -An --endian=little -t u8 -j 21 -N 8 "$SNAP" | tr -d ' ')"
        if [ "$((29 + BODY_LEN + 8))" != "$(stat -c %s "$SNAP")" ]; then
            echo "error: $SNAP: header body length $BODY_LEN does not match the file size" >&2
            exit 1
        fi
        TRAILER="$(od -An --endian=little -t x8 -j "$((29 + BODY_LEN))" -N 8 "$SNAP" | tr -d ' ')"
        tail -c "+30" "$SNAP" | head -c "$BODY_LEN" |
            xz --check=crc64 -T1 -0 >"$REPLAY_DIR/body.xz"
        CHECKVALS="$(xz --robot -lvv "$REPLAY_DIR/body.xz" | awk -F'\t' '$1 == "block" { print $11 }')"
        if [ "$CHECKVALS" != "$TRAILER" ]; then
            echo "error: snapshot trailer $TRAILER != xz CRC-64 '$CHECKVALS' of $SNAP's body" >&2
            exit 1
        fi
        CHECKED=$((CHECKED + 1))
    done
    if [ "$CHECKED" -lt 3 ]; then
        echo "error: only $CHECKED snapshots cross-checked against xz" >&2
        exit 1
    fi
    echo "    $CHECKED snapshot trailers match xz's CRC-64"

    # Replaying to one step from two different checkpoints — the full
    # run's snapshot at the target (zero re-steps) vs the cut run's
    # earlier one (400 re-steps) — must print the same state hash.
    TARGET="$(basename "$LAST" .snap)"
    TARGET="$((10#${TARGET#step-} + 400))"
    HASH_FULL="$("$CONSOLE_BIN" replay --dir "$REPLAY_DIR/full" --to "$TARGET" |
        grep -oE 'state hash [0-9a-f]+')"
    HASH_CUT="$("$CONSOLE_BIN" replay --dir "$REPLAY_DIR/cut" --to "$TARGET" |
        grep -oE 'state hash [0-9a-f]+')"
    [ -n "$HASH_FULL" ] && [ "$HASH_FULL" = "$HASH_CUT" ]

    # A second target past step 8,192 (the 3-day scenario has 8,640
    # steps), where both history limits have evicted: the power table's
    # 8,192 rows per node and the telemetry history's 4,096 samples per
    # bank. From the cut run's early checkpoint the replay restores and
    # re-steps thousands of steps through eviction; the full run's
    # nearest checkpoint is 200 steps back. Both must land on the same
    # state hash.
    LATE=8600
    HASH_FULL="$("$CONSOLE_BIN" replay --dir "$REPLAY_DIR/full" --to "$LATE" |
        grep -oE 'state hash [0-9a-f]+')"
    HASH_CUT="$("$CONSOLE_BIN" replay --dir "$REPLAY_DIR/cut" --to "$LATE" |
        grep -oE 'state hash [0-9a-f]+')"
    [ -n "$HASH_FULL" ] && [ "$HASH_FULL" = "$HASH_CUT" ]
    echo "    replay to step $LATE: $HASH_CUT from both checkpoints"

    # `replay --event` resolves a recorded event's line index to the
    # first state containing it and must land there cleanly.
    FAULT_LINE="$(grep -n '"kind":"fault_injected"' "$REPLAY_DIR/full/events.jsonl" |
        head -1 | cut -d: -f1)"
    "$CONSOLE_BIN" replay --dir "$REPLAY_DIR/full" --event "$((FAULT_LINE - 1))" |
        grep -qE 'state hash [0-9a-f]+'
}

run_fleet() {
    echo "==> fleet-scale smoke (1k + 10k hosts, release, ${BAAT_ENGINE_THREADS:-1} engine threads)"
    # A seeded 1,000-host window must fit the wall-clock budget at the
    # requested engine thread count, the 8-thread sharded engine must be
    # >=4x faster than sequential (skipped below 8 CPUs), a 10k-host
    # window must fit its own budget, and a full 1k-host day must be
    # byte-identical between 1 and 8 runner threads. `--ignored` selects
    # the release-only fleet gates; the small always-on test rides along.
    cargo test --release -p baat-bench --test fleet -- --include-ignored
}

run_perf() {
    if [[ "${BAAT_SKIP_PERF:-0}" != "1" ]]; then
        echo "==> perf regression smoke (set BAAT_SKIP_PERF=1 to skip)"
        # Re-measures the hot paths and fails when best-case throughput
        # falls >20% below the committed BENCH_10.json baseline, or when
        # tracing+health overhead on a faulted day exceeds 1µs/step.
        # Each run is also appended to the registry named by
        # BAAT_PERF_HISTORY (if set), so CI can feed `console perf-trend`.
        cargo bench -p baat-bench --bench perf -- --check
    else
        echo "==> perf regression smoke skipped (BAAT_SKIP_PERF=1)"
    fi
}

case "$MODE" in
lint) run_lint ;;
test) run_test ;;
smoke) run_smoke ;;
replay) run_replay ;;
fleet) run_fleet ;;
perf) run_perf ;;
all)
    run_lint
    run_test
    run_smoke
    run_replay
    run_fleet
    run_perf
    ;;
*)
    echo "error: unknown mode '$MODE' (lint|test|smoke|replay|fleet|perf|all)" >&2
    exit 2
    ;;
esac

echo "ok: ci/check.sh $MODE passed"
