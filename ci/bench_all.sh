#!/usr/bin/env bash
# The timing benches and loadgen runs behind the perf trajectory, run
# or diffed as one list, so the weekly bench-full job names each once.
#
#   ci/bench_all.sh run <out_dir> [<manifest>]
#       Runs every bench and loadgen mode and writes
#       <out_dir>/BENCH_<name>.json. With <manifest>, builds and runs
#       those of the checkout whose Cargo.toml that is (for example a
#       baseline worktree).
#   ci/bench_all.sh diff <baseline_dir> <candidate_dir>
#       Runs ci/compare_bench.sh over each pair of reports and fails if
#       any regressed past its 15% median gate.
#
# Sample settings come from the criterion shim's environment
# (CRITERION_SAMPLE_MS, CRITERION_SAMPLES).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(batch_query flat_query stream_ingest stream_window fig7a_build_time fig8_dim_sweep)
# The loadgen modes bench-smoke and stream-soak run, as
# "<report name>:<arguments>".
LOADGEN=(
  "serve:--queries 1000 --batch 100 --clients 2"
  "serve_bin:--queries 1000 --batch 100 --clients 2 --format bin"
  "stream_soak:--stream --ingest-total 2500 --epoch-points 500 --ingest-batch 300"
  "stream_soak_window:--stream --ingest-total 2500 --epoch-points 500 --ingest-batch 300 --window 2 --user-cap 1"
)
REPORTS=("${BENCHES[@]}" "${LOADGEN[@]%%:*}")

usage() {
  echo "usage: $0 run <out_dir> [<manifest>]" >&2
  echo "       $0 diff <baseline_dir> <candidate_dir>" >&2
  exit 2
}

case "${1:-}" in
  run)
    [ "$#" -ge 2 ] && [ "$#" -le 3 ] || usage
    mkdir -p "$2"
    # Absolute: cargo runs each bench binary from its package root.
    out=$(cd "$2" && pwd)
    manifest=()
    if [ "$#" -eq 3 ]; then
      manifest=(--manifest-path "$3")
    fi
    for bench in "${BENCHES[@]}"; do
      CRITERION_JSON="$out/BENCH_${bench}.json" \
        cargo bench "${manifest[@]}" -p dpsd-bench --bench "$bench"
    done
    for run in "${LOADGEN[@]}"; do
      read -ra args <<< "${run#*:}"
      cargo run --release "${manifest[@]}" -p dpsd-serve --bin loadgen -- \
        "${args[@]}" --json "$out/BENCH_${run%%:*}.json"
    done
    ;;
  diff)
    [ "$#" -eq 3 ] || usage
    failed=()
    for report in "${REPORTS[@]}"; do
      if ! ci/compare_bench.sh "$2/BENCH_${report}.json" "$3/BENCH_${report}.json"; then
        failed+=("$report")
      fi
    done
    if [ "${#failed[@]}" -gt 0 ]; then
      echo "regressed: ${failed[*]}" >&2
      exit 1
    fi
    ;;
  *)
    usage
    ;;
esac
