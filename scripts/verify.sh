#!/usr/bin/env bash
# Verify the tree: configure, build, and run a test tier.
#
# Usage: scripts/verify.sh [--smoke | --golden | --bench] [build-dir]
#
#   (default)  tier-1 verify: the full CTest suite (unit + integration +
#              smoke) — the gate every commit must pass.
#   --smoke    only the smoke tier: fast pass/fail figure benches, the
#              tool_sweep demo grid, and the sweep determinism tests.
#   --golden   the figures gate CI runs on every commit: every golden
#              preset executed on 1 thread and on all cores, the two CSVs
#              byte-compared, and the result diffed against the committed
#              goldens/ snapshot where one exists; plus the cohort/discrete
#              engine-equivalence tests and the distributed path —
#              sweep_demo as two --shard halves, --merge, cmp.
#   --bench    the three self-gating performance benches CI runs at full
#              scale: bench_store_smoke (streaming-RSS gates),
#              bench_cohort_smoke (10M-viewer day), bench_discrete_smoke
#              (events per viewer <= the pinned figure + RSS cap). Each
#              writes its BENCH_*.json under <build-dir>/artifacts/.
#
# The selected tier's exit code is the script's exit code.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
}

MODE=full
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --smoke) MODE=smoke ;;
    --golden) MODE=golden ;;
    --bench) MODE=bench ;;
    -h|--help) usage; exit 0 ;;
    -*) echo "verify.sh: unknown option '$arg'" >&2; usage >&2; exit 2 ;;
    *)
      if [ -n "$BUILD_DIR" ]; then
        echo "verify.sh: more than one build dir given" >&2; exit 2
      fi
      BUILD_DIR="$arg" ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

JOBS="$(nproc 2>/dev/null || echo 4)"
rc=0
case "$MODE" in
  full)
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" || rc=$?
    ;;
  smoke)
    ctest --test-dir "$BUILD_DIR" -L smoke --output-on-failure -j "$JOBS" \
      || rc=$?
    ;;
  golden)
    TOOL="$BUILD_DIR/tools/tool_sweep"
    OUT="$BUILD_DIR/artifacts/figures"
    mkdir -p "$OUT"
    for name in $("$TOOL" --list-goldens); do
      echo "== $name =="
      if ! "$TOOL" --golden="$name" --dump-profile \
             | cmp -s - "profiles/${name}.json"; then
        echo "verify.sh: $name: profiles/${name}.json is not the canonical" \
             "--dump-profile output" >&2
        rc=1
      fi
      "$TOOL" --golden="$name" --threads=1 --out="$OUT/${name}_t1" >/dev/null
      "$TOOL" --golden="$name" --threads="$JOBS" --out="$OUT/${name}_tn" \
        >/dev/null
      if ! cmp "$OUT/${name}_t1.csv" "$OUT/${name}_tn.csv"; then
        echo "verify.sh: $name: CSV depends on the thread count" >&2
        rc=1
      fi
      if [ -f "goldens/${name}.json" ]; then
        if ! "$TOOL" --diff "$OUT/${name}_t1.json" "goldens/${name}.json" \
               --out="$OUT/${name}_diff.json" >/dev/null; then
          echo "verify.sh: $name: differs from committed goldens/${name}.json" \
               "(report: $OUT/${name}_diff.json)" >&2
          rc=1
        fi
      else
        echo "   (no committed snapshot — thread check only)"
      fi
    done
    # Engine equivalence: the golden snapshots are only trustworthy if
    # engine=auto keeps routing small populations to the discrete core
    # bit for bit (and the cohort core itself stays deterministic).
    echo "== cohort/discrete equivalence =="
    ctest --test-dir "$BUILD_DIR" -R '[Cc]ohort' --output-on-failure \
      -j "$JOBS" || rc=1
    # Distributed path: the demo preset as two --shard halves, stitched
    # with --merge, must be byte-identical to the committed golden.
    echo "== sweep_demo (2 shards + merge) =="
    "$TOOL" --golden=sweep_demo --shard=0/2 --threads=2 \
      --out="$OUT/sweep_demo_shard0" >/dev/null
    "$TOOL" --golden=sweep_demo --shard=1/2 --threads=2 \
      --out="$OUT/sweep_demo_shard1" >/dev/null
    "$TOOL" --merge "$OUT/sweep_demo_merged" \
      "$OUT/sweep_demo_shard0.json" "$OUT/sweep_demo_shard1.json" >/dev/null
    for ext in csv json; do
      if ! cmp "$OUT/sweep_demo_merged.$ext" "goldens/sweep_demo.$ext"; then
        echo "verify.sh: sharded sweep_demo merge is not byte-identical" \
             "to goldens/sweep_demo.$ext" >&2
        rc=1
      fi
    done
    ;;
  bench)
    # Same binaries and gates as the CI bench steps: each one exits
    # non-zero when its own regression gate trips (sanitizer builds skip
    # the RSS gates but still exercise the paths).
    OUT="$BUILD_DIR/artifacts"
    mkdir -p "$OUT"
    echo "== bench_store_smoke (streaming vs buffered RSS) =="
    "$BUILD_DIR/bench/bench_store_smoke" \
      --out="$OUT/BENCH_store.json" \
      --store-out="$OUT/store_full/run" || rc=1
    echo "== bench_cohort_smoke (10M-viewer day) =="
    "$BUILD_DIR/bench/bench_cohort_smoke" \
      --out="$OUT/BENCH_cohort.json" || rc=1
    echo "== bench_discrete_smoke (events/viewer <= pinned figure) =="
    "$BUILD_DIR/bench/bench_discrete_smoke" \
      --out="$OUT/BENCH_discrete.json" || rc=1
    ;;
esac

if [ "$rc" -ne 0 ]; then
  echo "verify.sh: $MODE tier FAILED (exit $rc)" >&2
else
  echo "verify.sh: $MODE tier passed"
fi
exit "$rc"
