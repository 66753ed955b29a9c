#!/bin/sh
# Daemon round trip: build fhserved + fhcampaign, start the daemon on
# a scratch data root, check that a campaign or optimize job past the
# injection ceiling is rejected without taking the daemon down, submit a small campaign
# over HTTP twice (the second must be a cache hit), verify the bundle
# artifacts, and drain with SIGTERM. Exits non-zero on any failure.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:18419}"
TMP="$(mktemp -d)"
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "== building =="
go build -o "$TMP" ./cmd/fhserved ./cmd/fhcampaign

echo "== starting fhserved on $ADDR =="
"$TMP/fhserved" -addr "$ADDR" -data "$TMP/data" -quick -v >"$TMP/served.log" 2>&1 &
SERVED_PID=$!

for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    [ "$i" = 50 ] && { echo "daemon never became healthy"; cat "$TMP/served.log"; exit 1; }
    sleep 0.1
done

echo "== oversized jobs are rejected and leave the daemon up =="
for bad in \
    'campaigns {"benchmarks":["bzip2"],"schemes":["faulthound"],"fault":{"Injections":4611686018427387904}}' \
    'optimize {"benchmarks":["bzip2"],"schemes":["faulthound"],"injections":4611686018427387904}' \
; do
    route="${bad%% *}"
    code="$(curl -s -o /dev/null -w '%{http_code}' -d "${bad#* }" "http://$ADDR/v1/$route" || true)"
    [ "$code" = 400 ] || { echo "oversized POST /v1/$route answered HTTP $code, want 400"; cat "$TMP/served.log"; exit 1; }
    curl -sf "http://$ADDR/healthz" >/dev/null \
        || { echo "daemon died after an oversized POST /v1/$route"; cat "$TMP/served.log"; exit 1; }
done

echo "== submitting campaign =="
"$TMP/fhcampaign" -addr "$ADDR" -quick -bench bzip2 -schemes faulthound -injections 10

echo "== resubmitting (must be a cache hit) =="
"$TMP/fhcampaign" -addr "$ADDR" -quick -bench bzip2 -schemes faulthound -injections 10 \
    2>&1 | grep -q "attaching" || { echo "second submission was not a cache hit"; exit 1; }

echo "== verifying bundle over HTTP =="
ID="$(curl -sf "http://$ADDR/v1/campaigns" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)"
[ -n "$ID" ] || { echo "no job listed"; exit 1; }
for f in manifest.json results.csv summary.json report.md; do
    curl -sf "http://$ADDR/v1/campaigns/$ID/bundle/$f" >/dev/null \
        || { echo "bundle file $f not served"; exit 1; }
done
echo "== scraping /metrics =="
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt"
# Counters, gauges, and the instrumentation layer's histograms
# (docs/OBSERVABILITY.md) must all render after one round trip.
for series in \
    "fhserved_jobs_done_total 1" \
    "fhserved_cache_hits_total 1" \
    "fhserved_injection_outcomes_total" \
    "fhserved_injection_duration_seconds_bucket" \
    "fhserved_detection_latency_cycles_bucket" \
    "fhserved_job_queue_wait_seconds_bucket" \
    "fhserved_prepared_cache_misses_total" \
    "fhserved_injections_inflight" \
; do
    grep -q "$series" "$TMP/metrics.txt" \
        || { echo "metrics missing series: $series"; cat "$TMP/metrics.txt"; exit 1; }
done

echo "== draining =="
kill -TERM "$SERVED_PID"
for i in $(seq 1 100); do
    kill -0 "$SERVED_PID" 2>/dev/null || break
    [ "$i" = 100 ] && { echo "daemon did not drain"; exit 1; }
    sleep 0.1
done

echo "smoke-server: OK"
