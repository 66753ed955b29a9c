#!/usr/bin/env sh
# bench.sh — run the simulator's guard benchmarks and distill them into
# BENCH_simcore.json (docs/PERFORMANCE.md).
#
# Emits two artifacts under $OUT (default results/bench):
#   bench.txt           raw `go test -bench` output, benchstat-comparable:
#                         ./scripts/bench.sh && mv results/bench/bench.txt old.txt
#                         ... change code ...
#                         ./scripts/bench.sh
#                         benchstat old.txt results/bench/bench.txt
#   BENCH_simcore.json  headline numbers: simulated cycles/sec, golden-core
#                         clones/sec (deep and arena), allocations per
#                         injection, and sustained injections/sec.
#
# Environment:
#   OUT              output directory            (default results/bench)
#   BENCHTIME        go test -benchtime argument (default 1s)
#   COUNT            go test -count argument     (default 1; use >=5 for benchstat)
#   BENCH_TOLERANCE  when set, gate the fresh numbers against the
#                    committed BENCH_simcore.json via `fhreport bench`
#                    and exit non-zero on a regression beyond this
#                    relative tolerance (e.g. 0.10)
#   BENCH_REF        reference file for the gate (default the committed
#                    results/bench/BENCH_simcore.json)
set -eu

OUT=${OUT:-results/bench}
BENCHTIME=${BENCHTIME:-1s}
COUNT=${COUNT:-1}
GO=${GO:-go}

mkdir -p "$OUT"
raw="$OUT/bench.txt"

{
  $GO test -run xxx -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
    -bench 'BenchmarkSimCyclesPerSecond$|BenchmarkClone$|BenchmarkSnapshot$|BenchmarkArchHash$' \
    ./internal/pipeline/
  $GO test -run xxx -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
    -bench 'BenchmarkRunOne$|BenchmarkPreparedParallel$' \
    ./internal/fault/
} | tee "$raw"

# Fold the raw output into the headline JSON. Multiple -count runs of
# one benchmark are averaged.
awk '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF - 1; i++) {
      v = $i; u = $(i + 1)
      if (u == "ns/op")     { ns[name] += v;  n[name]++ }
      if (u == "allocs/op") { al[name] += v;  na[name]++ }
      if (u == "B/op")      { by[name] += v;  nb[name]++ }
      if (u == "inj/s")     { inj[name] += v; ni[name]++ }
      if (u == "early-exit-frac") { ee[name] += v; ne[name]++ }
      if (u == "fork-saved-frac") { fs[name] += v; nf[name]++ }
    }
  }
  function avg(sum, cnt, nm) { return cnt[nm] ? sum[nm] / cnt[nm] : 0 }
  END {
    sim   = avg(ns, n, "BenchmarkSimCyclesPerSecond")
    snap  = avg(ns, n, "BenchmarkSnapshot")
    clone = avg(ns, n, "BenchmarkClone")
    printf "{\n"
    printf "  \"sim_cycles_per_sec\": %.0f,\n",      sim  ? 1e9 / sim  : 0
    printf "  \"clones_per_sec_arena\": %.0f,\n",    snap ? 1e9 / snap : 0
    printf "  \"clones_per_sec_deep\": %.0f,\n",     clone ? 1e9 / clone : 0
    printf "  \"snapshot_allocs_per_op\": %.1f,\n",  avg(al, na, "BenchmarkSnapshot")
    printf "  \"allocs_per_injection\": %.1f,\n",    avg(al, na, "BenchmarkRunOne")
    printf "  \"bytes_per_injection\": %.0f,\n",     avg(by, nb, "BenchmarkRunOne")
    printf "  \"injections_per_sec\": %.1f,\n",      avg(inj, ni, "BenchmarkPreparedParallel")
    printf "  \"early_exit_frac\": %.3f,\n",         avg(ee, ne, "BenchmarkPreparedParallel")
    printf "  \"checkpoint_fork_cycles_saved_frac\": %.3f\n", avg(fs, nf, "BenchmarkPreparedParallel")
    printf "}\n"
  }
' "$raw" > "$OUT/BENCH_simcore.json"

echo "wrote $raw"
echo "wrote $OUT/BENCH_simcore.json:"
cat "$OUT/BENCH_simcore.json"

# Optional regression gate: with BENCH_TOLERANCE set (e.g. 0.10), the
# fresh numbers are compared against the committed guard file and the
# script exits non-zero when a gated throughput metric
# (injections_per_sec, sim_cycles_per_sec) regresses beyond the
# tolerance (fhreport bench; docs/CONTRACTS.md). BENCH_REF overrides
# the reference file.
if [ -n "${BENCH_TOLERANCE:-}" ]; then
  ref=${BENCH_REF:-results/bench/BENCH_simcore.json}
  if [ "$ref" -ef "$OUT/BENCH_simcore.json" ]; then
    # The run just overwrote the committed guard file in place; gate
    # against the committed version instead.
    committed=$(mktemp)
    trap 'rm -f "$committed"' EXIT
    git show HEAD:results/bench/BENCH_simcore.json > "$committed"
    ref=$committed
  fi
  echo "gating against $ref (tolerance $BENCH_TOLERANCE)"
  $GO run ./cmd/fhreport bench -tolerance "$BENCH_TOLERANCE" "$OUT/BENCH_simcore.json" "$ref"
fi
