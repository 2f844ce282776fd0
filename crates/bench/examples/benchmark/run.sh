#!/usr/bin/env bash
# Builds the benchmark once, runs two full sets of it and compares them
# the way a regression check would: per workload and end-to-end metric,
# each set's median and quartiles, the spread against the metric's
# bound, and the second median against the first. Counts, bytes and
# final hashes of the same workload and seed must be exactly equal.
#
#   crates/bench/examples/benchmark/run.sh            # 2 sets x 10 seeds x 4 workloads
#   crates/bench/examples/benchmark/run.sh --runs 3   # fewer seeds per set
#   crates/bench/examples/benchmark/run.sh --smoke    # 24-host fleets, quick figures, 1 rep
#
# A set runs every workload once per seed (1..RUNS) untraced, then once
# traced at the default seed. Results land in
# ${CARGO_TARGET_DIR:-target}/benchmark-sets/<set>/..., one result.json
# per run. Exits non-zero on any failed check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../.." && pwd)"
cd "$root"

runs=10
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        *) echo "usage: $0 [--runs N] [--smoke]" >&2; exit 2 ;;
    esac
done

workloads=(paper_figures fleet_baat_day fleet_ebuff_morning checkpoint_baath_day)
seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
target="${CARGO_TARGET_DIR:-target}"
out="$target/benchmark-sets"
bin="$target/release/benchmark"

CARGO_TARGET_DIR="$target" cargo build --release --quiet --offline \
    --manifest-path crates/bench/examples/benchmark/Cargo.toml
rm -rf "$out"

run() { # set workload seed trace
    local dir="$out/$1/$2/$3-trace$4"
    local last
    last="$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" \
        --out "$dir" "${smoke[@]}" | tail -n 1)"
    printf '%-6s %-22s seed %-3s trace %s  %s\n' "$1" "$2" "$3" "$4" "${last:0:96}"
}

if [ ${#smoke[@]} -gt 0 ]; then
    started=$SECONDS
    for w in "${workloads[@]}"; do
        run smoke "$w" 7 0
        run smoke "$w" 7 1
    done
    echo "smoke: every workload correct, untraced and traced, in $((SECONDS - started)) s"
    exit 0
fi

for set in a b; do
    for seed in $(seq 1 "$runs"); do
        for w in "${workloads[@]}"; do
            run "$set" "$w" "$seed" 0
        done
    done
    for w in "${workloads[@]}"; do
        run "$set" "$w" 7 1
    done
done
"$bin" --compare "$out/a" "$out/b"
