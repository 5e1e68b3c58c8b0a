#!/usr/bin/env bash
# The timing benches behind the perf trajectory, run or diffed as one
# list, so the weekly bench-full job names each bench once.
#
#   ci/bench_all.sh run <out_dir> [<manifest>]
#       Runs every bench and writes <out_dir>/BENCH_<bench>.json. With
#       <manifest>, builds and runs the benches of the checkout whose
#       Cargo.toml that is (for example a baseline worktree).
#   ci/bench_all.sh diff <baseline_dir> <candidate_dir>
#       Runs ci/compare_bench.sh over each pair of reports and fails if
#       any bench regressed past its 15% median gate.
#
# Sample settings come from the criterion shim's environment
# (CRITERION_SAMPLE_MS, CRITERION_SAMPLES).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(batch_query flat_query stream_ingest stream_window fig7a_build_time fig8_dim_sweep)

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
    ;;
  diff)
    [ "$#" -eq 3 ] || usage
    failed=()
    for bench in "${BENCHES[@]}"; do
      if ! ci/compare_bench.sh "$2/BENCH_${bench}.json" "$3/BENCH_${bench}.json"; then
        failed+=("$bench")
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
