#!/bin/sh
# Pareto-search round trip (docs/OPTIMIZE.md): run a small seeded
# fhcampaign -optimize twice at different worker counts and require
# byte-identical artifacts, validate them against the pareto/v1
# contract, then run the same search as a daemon job through
# fhcampaign -optimize -addr, require its pareto.csv to match the local
# run byte for byte, and require a repeat submission to be a cache hit.
# Exits non-zero on any failure. (-f: $SEARCH is word-split on purpose
# and carries a literal 'gen?seg=16k' that must not glob.)
set -euf

ADDR="${SMOKE_ADDR:-127.0.0.1:18421}"
TMP="$(mktemp -d)"
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM
SERVED_PID=""

echo "== building =="
go build -o "$TMP" ./cmd/fhcampaign ./cmd/fhserved ./cmd/fhreport

SEARCH="-optimize -quick -workloads gen?seg=16k -schemes faulthound?tcam=8 \
    -injections 48 -budget 3 -seed 7 -opt-params tcam -runid smoke"

echo "== local search, -workers 4 =="
"$TMP/fhcampaign" $SEARCH -workers 4 -out "$TMP/opt-w4"

echo "== local search, -workers 1 (must be byte-identical) =="
"$TMP/fhcampaign" $SEARCH -workers 1 -out "$TMP/opt-w1"
for f in pareto.csv pareto.json pareto.md; do
    cmp "$TMP/opt-w4/$f" "$TMP/opt-w1/$f" \
        || { echo "$f differs between -workers 4 and 1"; exit 1; }
done

echo "== front is non-trivial =="
FRONT="$(grep -c ',true,' "$TMP/opt-w4/pareto.csv" || true)"
[ "$FRONT" -ge 1 ] || { echo "empty Pareto front"; cat "$TMP/opt-w4/pareto.csv"; exit 1; }

echo "== contract validation =="
"$TMP/fhreport" validate "$TMP/opt-w4" "$TMP/opt-w4/pareto.csv"

echo "== starting fhserved on $ADDR =="
"$TMP/fhserved" -addr "$ADDR" -data "$TMP/data" -quick -v >"$TMP/served.log" 2>&1 &
SERVED_PID=$!
for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    [ "$i" = 50 ] && { echo "daemon never became healthy"; cat "$TMP/served.log"; exit 1; }
    sleep 0.1
done

echo "== daemon job: fhcampaign -optimize -addr =="
"$TMP/fhcampaign" $SEARCH -addr "$ADDR" -out "$TMP/opt-daemon"
cmp "$TMP/opt-daemon/pareto.csv" "$TMP/opt-w1/pareto.csv" \
    || { echo "daemon pareto.csv differs from the local -workers 1 run"; exit 1; }
grep -q '"run_id": "opt-' "$TMP/opt-daemon/pareto.json" \
    || { echo "daemon pareto.json has no opt- run ID"; head "$TMP/opt-daemon/pareto.json"; exit 1; }

echo "== repeat (must be a cache hit) =="
REQ='{"benchmarks":["gen?seg=16k"],"schemes":["faulthound?tcam=8"],"budget":3,"seed":7,"params":["tcam"],"injections":48}'
curl -sf -d "$REQ" "http://$ADDR/v1/optimize" >"$TMP/repeat.json"
grep -q '"cache_hit": *true' "$TMP/repeat.json" \
    || { echo "repeat was not a cache hit"; cat "$TMP/repeat.json"; exit 1; }

echo "== draining =="
kill -TERM "$SERVED_PID"
for i in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    sleep 0.1
done
SERVED_PID=""

echo "smoke_optimize: ok"
