#!/bin/sh
# Cluster fabric round trip (docs/CLUSTER.md): run a campaign locally
# for the golden results.csv, then start a coordinator with two joined
# workers, check that a malformed shard (a zero spread, an injection
# count past the ceiling) is rejected without taking a worker down,
# submit the same spec sharded, SIGKILL one worker mid-run,
# and verify the re-leased merge still produced a byte-identical
# results.csv plus the expected cluster metrics and /healthz roles.
# Exits non-zero on any failure.
set -eu

CADDR="${SMOKE_CLUSTER_ADDR:-127.0.0.1:18428}"
W1ADDR="${SMOKE_CLUSTER_W1:-127.0.0.1:18429}"
W2ADDR="${SMOKE_CLUSTER_W2:-127.0.0.1:18430}"
TMP="$(mktemp -d)"
trap 'kill "$COORD_PID" "$W1_PID" "$W2_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

# Same spec both times: enough injections that the sharded run stays
# in flight long enough to lose a worker while it holds a lease.
SPEC="-quick -bench bzip2,mcf -schemes faulthound -injections 500 -seed 42"

echo "== building =="
go build -o "$TMP" ./cmd/fhserved ./cmd/fhcampaign

echo "== golden single-node run =="
"$TMP/fhcampaign" $SPEC -runid smoke-cluster -out "$TMP/golden" >/dev/null 2>&1

echo "== starting coordinator on $CADDR, workers on $W1ADDR $W2ADDR =="
"$TMP/fhserved" -coordinator -addr "$CADDR" -data "$TMP/coord" -quick -range-size 16 -v \
    >"$TMP/coord.log" 2>&1 &
COORD_PID=$!
"$TMP/fhserved" -join "$CADDR" -addr "$W1ADDR" -data "$TMP/w1" -quick -slots 1 \
    >"$TMP/w1.log" 2>&1 &
W1_PID=$!
"$TMP/fhserved" -join "$CADDR" -addr "$W2ADDR" -data "$TMP/w2" -quick -slots 1 \
    >"$TMP/w2.log" 2>&1 &
W2_PID=$!

# The coordinator's /healthz flips ready once a worker joins; wait for
# both so the kill below cannot starve the campaign.
for i in $(seq 1 100); do
    alive="$(curl -sf "http://$CADDR/v1/cluster/workers" 2>/dev/null | grep -o '"alive": *true' | wc -l)"
    [ "$alive" = 2 ] && break
    [ "$i" = 100 ] && { echo "workers never joined"; cat "$TMP/coord.log"; exit 1; }
    sleep 0.1
done
curl -sf "http://$CADDR/healthz" | grep -q '"role": *"coordinator"' \
    || { echo "coordinator healthz lacks its role"; exit 1; }
curl -sf "http://$W2ADDR/healthz" | grep -q '"role": *"worker"' \
    || { echo "worker healthz lacks its role"; exit 1; }

echo "== malformed shards are rejected and leave the worker up =="
for bad in \
    'zero-spread {"lease_id":"smoke","bench":"bzip2","scheme":"faulthound","from":0,"to":1,"fault":{"Injections":1,"SpreadCycles":0}}' \
    'oversized {"lease_id":"smoke","bench":"bzip2","scheme":"faulthound","from":0,"to":1,"fault":{"Injections":4611686018427387904,"SpreadCycles":500}}' \
; do
    name="${bad%% *}"
    code="$(curl -s -o /dev/null -w '%{http_code}' -d "${bad#* }" "http://$W2ADDR/v1/cluster/run" || true)"
    [ "$code" = 400 ] || { echo "$name shard answered HTTP $code, want 400"; cat "$TMP/w2.log"; exit 1; }
    curl -sf "http://$W2ADDR/healthz" >/dev/null \
        || { echo "worker 2 died after a $name shard"; cat "$TMP/w2.log"; exit 1; }
done

echo "== submitting sharded campaign =="
"$TMP/fhcampaign" -addr "$CADDR" $SPEC >"$TMP/submit.log" 2>&1 &
SUBMIT_PID=$!

echo "== killing worker 1 mid-run =="
killed=""
for i in $(seq 1 2000); do
    status="$(curl -sf "http://$CADDR/v1/campaigns" 2>/dev/null || true)"
    case "$status" in
    *'"state": "done"'*) break ;;
    esac
    done_n="$(printf '%s' "$status" | sed -n 's/.*"done": *\([0-9]*\).*/\1/p' | head -1)"
    if [ -n "$done_n" ] && [ "$done_n" -gt 0 ]; then
        kill -9 "$W1_PID"
        killed=yes
        break
    fi
done
[ -n "$killed" ] || { echo "campaign finished before the worker kill; raise -injections"; exit 1; }

wait "$SUBMIT_PID" || { echo "sharded submission failed"; cat "$TMP/submit.log"; exit 1; }

echo "== verifying byte-identical merge =="
ID="$(curl -sf "http://$CADDR/v1/campaigns" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)"
[ -n "$ID" ] || { echo "no job listed"; exit 1; }
curl -sf "http://$CADDR/v1/campaigns/$ID/bundle/results.csv" >"$TMP/sharded.csv"
cmp "$TMP/golden/results.csv" "$TMP/sharded.csv" \
    || { echo "sharded results.csv differs from the single-node run"; exit 1; }

echo "== scraping cluster metrics =="
curl -sf "http://$CADDR/metrics" >"$TMP/metrics.txt"
for series in \
    "fh_cluster_workers_alive" \
    "fh_cluster_leases_granted_total" \
    "fh_cluster_records_merged_total" \
    "fh_cluster_merge_seconds" \
    "fh_admission_rejects_total" \
; do
    grep -q "$series" "$TMP/metrics.txt" \
        || { echo "metrics missing series: $series"; cat "$TMP/metrics.txt"; exit 1; }
done
expired="$(sed -n 's/^fh_cluster_leases_expired_total \([0-9]*\).*/\1/p' "$TMP/metrics.txt")"
[ -n "$expired" ] && [ "$expired" -ge 1 ] \
    || { echo "no lease expired after the worker kill (got '$expired')"; cat "$TMP/coord.log"; exit 1; }

echo "== draining =="
kill -TERM "$COORD_PID" "$W2_PID"
for i in $(seq 1 100); do
    if ! kill -0 "$COORD_PID" 2>/dev/null && ! kill -0 "$W2_PID" 2>/dev/null; then break; fi
    [ "$i" = 100 ] && { echo "daemons did not drain"; exit 1; }
    sleep 0.1
done

echo "smoke-cluster: OK"
