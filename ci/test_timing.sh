#!/usr/bin/env bash
# Per-suite test-timing summary for the tier-1 CI job.
#
# Runs every integration-test suite in the workspace one binary at a
# time, prints a wall-clock summary table, and fails if any single
# suite exceeds the cap (default 60 s, override with
# DPSD_TEST_TIME_CAP_SECS). This keeps the smoke-profile discipline
# honest: a suite that quietly grows past the budget (e.g. the fig8
# sweep losing its smoke profile) fails CI instead of slowly rotting
# the feedback loop.
#
# Compile time is excluded: everything is built (--no-run) before the
# clock starts on any suite.
#
# Suites named in EXPECTED_SUITES below are load-bearing: if any of
# them fails to produce a timing row (renamed, deleted, or silently
# dropped from discovery), the script exits 2 — a vanished gate must
# read as a CI failure, not as a shorter table.

set -euo pipefail
cd "$(dirname "$0")/.."

CAP="${DPSD_TEST_TIME_CAP_SECS:-60}"

# "<package> <suite>" pairs that must each produce a timing row.
EXPECTED_SUITES=(
  "dpsd bit_identity"
  "dpsd dim_generic"
  "dpsd end_to_end"
  "dpsd flat_decode_memory"
  "dpsd flat_golden"
  "dpsd paper_properties"
  "dpsd parallel"
  "dpsd proptests"
  "dpsd serve_http"
  "dpsd serve_stress"
  "dpsd serve_wire_golden"
  "dpsd stream_identity"
  "dpsd tenant_budget"
  "dpsd user_bounding"
  "dpsd window_identity"
  "dpsd-analyze fixtures"
  "dpsd-analyze self_check"
  "dpsd-hilbert nd_proptests"
  "dpsd-hilbert proptests"
  "dpsd-serve cache_proptests"
)

# Build all test binaries first so timings measure tests, not rustc.
cargo test --workspace --no-run --quiet

# Discover integration-test suites: <package> <suite> pairs.
suites=()
for f in tests/*.rs; do
  [ -e "$f" ] || continue
  suites+=("dpsd $(basename "$f" .rs)")
done
for dir in crates/*/; do
  pkg=$(basename "$dir")
  for f in "$dir"tests/*.rs; do
    [ -e "$f" ] || continue
    suites+=("$pkg $(basename "$f" .rs)")
  done
done

status=0
printf '%-16s %-28s %10s   %s\n' "package" "suite" "seconds" "verdict"
printf '%-16s %-28s %10s   %s\n' "-------" "-----" "-------" "-------"

# The invariant linter gets its own row ahead of the suites: a rule
# violation (or malformed/unused dpsd-allow) fails this gate exactly
# like a failing test would.
start=$(date +%s%N)
if cargo run -q -p dpsd-analyze -- --workspace --quiet >/tmp/suite_out 2>&1; then
  elapsed=$(( ($(date +%s%N) - start) / 1000000 ))
  secs=$(awk "BEGIN {printf \"%.2f\", $elapsed / 1000.0}")
  printf '%-16s %-28s %10s   %s\n' "dpsd-analyze" "(workspace lint)" "$secs" "ok"
else
  elapsed=$(( ($(date +%s%N) - start) / 1000000 ))
  secs=$(awk "BEGIN {printf \"%.2f\", $elapsed / 1000.0}")
  printf '%-16s %-28s %10s   FAILED\n' "dpsd-analyze" "(workspace lint)" "$secs"
  cargo run -q -p dpsd-analyze -- --workspace 2>&1 | tail -40
  status=1
fi
timed=()
for entry in "${suites[@]}"; do
  pkg=${entry%% *}
  suite=${entry#* }
  timed+=("$entry")
  start=$(date +%s%N)
  if ! timeout "${CAP}s" cargo test -q -p "$pkg" --test "$suite" >/tmp/suite_out 2>&1; then
    elapsed=$(( ($(date +%s%N) - start) / 1000000 ))
    secs=$(awk "BEGIN {printf \"%.2f\", $elapsed / 1000.0}")
    if awk "BEGIN {exit !($secs >= $CAP)}"; then
      printf '%-16s %-28s %10s   TIMED OUT (> %ss)\n' "$pkg" "$suite" "$secs" "$CAP"
    else
      printf '%-16s %-28s %10s   FAILED\n' "$pkg" "$suite" "$secs"
      tail -40 /tmp/suite_out
    fi
    status=1
    continue
  fi
  elapsed=$(( ($(date +%s%N) - start) / 1000000 ))
  secs=$(awk "BEGIN {printf \"%.2f\", $elapsed / 1000.0}")
  verdict=ok
  if awk "BEGIN {exit !($secs > $CAP)}"; then
    verdict="TOO SLOW (> ${CAP}s)"
    status=1
  fi
  printf '%-16s %-28s %10s   %s\n' "$pkg" "$suite" "$secs" "$verdict"
done

# Fail loudly (exit 2) if any expected suite never produced a timing
# row: a suite that vanishes from discovery is a gate that vanished.
missing=0
for want in "${EXPECTED_SUITES[@]}"; do
  found=0
  for have in "${timed[@]}"; do
    if [ "$want" = "$have" ]; then
      found=1
      break
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "test-timing gate: expected suite \`$want\` produced no timing row" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "test-timing gate failed: expected suite(s) missing from the table" >&2
  exit 2
fi

if [ "$status" -ne 0 ]; then
  echo "test-timing gate failed: a suite exceeded ${CAP}s (or failed)" >&2
fi
exit "$status"
