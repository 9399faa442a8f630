#!/bin/sh
# dist-smoke.sh: end-to-end distributed-sweep smoke test (the CI job).
#
# Builds bashsim once, runs a small sweep serially, then re-runs it through
# the hardened distributed path — a shared-secret coordinator with batched
# leases (-lease-batch 4) and one co-execution slot, plus two separate
# single-slot worker processes over the job protocol — and asserts:
#
#   * a worker started with the WRONG secret exits non-zero with nothing
#     published to its cell store;
#   * the authed sweep's TSV is byte-identical to the serial one;
#   * batching collapsed protocol round-trips: the coordinator's final
#     /dist/status shows at least 4x fewer leases than completed cells;
#   * wire frames flowed (frames_in > 0 in the final status).
#
# Then a byte measurement: the same sweep against a fresh cache with
# co-execution off (every cell crosses the wire). It must complete cells,
# match the serial TSV, and report non-zero coordinator socket bytes; the
# status is archived so the per-cell byte cost is trackable.
#
# Then a peer-cell-exchange phase: a warm holder-only worker (populated
# store, no executable kinds) serving its store on -peer-addr, plus a cold
# worker against a coordinator with a fresh cache. The cold worker must
# complete the sweep by fetching published cells worker-to-worker —
# "simulated 0 cells" in its exit line, at least half the sweep fetched —
# while the coordinator answers no fetch at all (fetches == 0,
# fetch_served == 0) and fetch_direct equals the cells fetched; the TSV
# stays byte-identical and the advertisement bytes stay under the
# -advert-budget cap. Archived as BENCH_peer_fetch.json.
#
# Then kills the workers and re-runs the coordinator against the populated
# cell store: the sweep must complete from published cells alone — zero
# workers, zero co-execution, zero simulations — and still match byte for
# byte.
#
# Then a service-mode phase: a long-lived `bashsim -serve` (no -exp) takes
# two concurrent `bashsim -submit` sweeps from separate processes; a
# mid-run /metrics scrape must show bashsim_leases_total moving and the
# peer-exchange families exposed; both /sweeps/{id}/result.tsv downloads
# must be byte-identical to serial runs; and SIGTERM must drain — exit 0,
# "draining" logged, the final status JSON persisted with completed > 0.
#
# The coordinator status JSONs, the final service /metrics scrape, and the
# cell store's manifest.json are copied to $DIST_SMOKE_ARTIFACTS (default
# ./dist-smoke-artifacts) for CI to upload.
#
# The same binary must serve every role: cell cache keys embed the binary
# fingerprint, so a rebuilt binary deliberately misses the old store.
set -eu

PORT="${DIST_SMOKE_PORT:-8497}"
SECRET="dist-smoke-$$"
WORK="$(mktemp -d)"
ART="${DIST_SMOKE_ARTIFACTS:-dist-smoke-artifacts}"

# Kill every background worker we spawned (the whole group, not just the
# ones a happy path would reach) even when an assertion aborts the script
# mid-way; before this trap, a failed `cmp` leaked two polling workers.
PIDS=""
cleanup() {
    [ -z "$PIDS" ] || kill $PIDS 2>/dev/null || true
    [ -z "$PIDS" ] || wait $PIDS 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# status_field FILE NAME: first (top-level) occurrence of a numeric field.
status_field() {
    sed -n 's/.*"'"$2"'": *\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

# wait_until SECS DESC CMD...: poll CMD (output silenced) every 0.1s until
# it succeeds or SECS of wall clock elapse. Deadline-based rather than
# iteration-counted, so a slow CI runner whose probes each take hundreds of
# milliseconds still gets the full window instead of flaking early.
wait_until() {
    wu_deadline=$(($(date +%s) + $1))
    wu_desc="$2"
    shift 2
    until "$@" >/dev/null 2>&1; do
        if [ "$(date +%s)" -gt "$wu_deadline" ]; then
            echo "FAIL: timed out waiting for $wu_desc" >&2
            return 1
        fi
        sleep 0.1
    done
}

# proc_gone PID: true once the process no longer exists.
proc_gone() {
    ! kill -0 "$1" 2>/dev/null
}

echo "==> building bashsim"
go build -o "$WORK/bashsim" ./cmd/bashsim

echo "==> serial reference sweep"
"$WORK/bashsim" -exp fig1 -parallel 1 -no-cache -out "$WORK/serial.tsv"

echo "==> starting two authed workers and one wrong-secret worker"
"$WORK/bashsim" -worker "http://127.0.0.1:$PORT" -dist-secret "$SECRET" -parallel 1 \
    -poll 50ms -cache-dir "$WORK/cache" >"$WORK/w1.log" 2>&1 &
W1=$!
"$WORK/bashsim" -worker "http://127.0.0.1:$PORT" -dist-secret "$SECRET" -parallel 1 \
    -poll 50ms -cache-dir "$WORK/cache" >"$WORK/w2.log" 2>&1 &
W2=$!
"$WORK/bashsim" -worker "http://127.0.0.1:$PORT" -dist-secret "wrong-$SECRET" -parallel 1 \
    -poll 50ms -cache-dir "$WORK/badcache" >"$WORK/bad.log" 2>&1 &
BAD=$!
PIDS="$W1 $W2 $BAD"

echo "==> hardened distributed sweep (authed coordinator, -lease-batch 4, co-execution, 2 workers)"
"$WORK/bashsim" -exp fig1 -serve "127.0.0.1:$PORT" -dist-secret "$SECRET" \
    -lease-batch 4 -co-execute 1 -cache-dir "$WORK/cache" \
    -dist-status "$WORK/status.json" -timeout 120s -out "$WORK/dist.tsv" 2>"$WORK/serve.log"
grep '^dist:' "$WORK/serve.log" || true
cmp "$WORK/serial.tsv" "$WORK/dist.tsv"
echo "OK: hardened distributed TSV is byte-identical to serial"

echo "==> wrong-secret worker must have been rejected"
wait_until 30 "wrong-secret worker to exit" proc_gone "$BAD"
BADRC=0
wait "$BAD" || BADRC=$?
if [ "$BADRC" -eq 0 ]; then
    echo "FAIL: wrong-secret worker exited 0" >&2
    exit 1
fi
grep -q 'rejected this worker' "$WORK/bad.log"
if [ "$(find "$WORK/badcache" -type f | wc -l)" -ne 0 ]; then
    echo "FAIL: wrong-secret worker published cells:" >&2
    find "$WORK/badcache" -type f >&2
    exit 1
fi
echo "OK: wrong-secret worker exited $BADRC with no cells published"

echo "==> batching must collapse lease round-trips (>= 4x fewer leases than cells)"
leases="$(sed -n 's/.*"leases": *\([0-9][0-9]*\).*/\1/p' "$WORK/status.json")"
completed="$(sed -n 's/.*"completed": *\([0-9][0-9]*\).*/\1/p' "$WORK/status.json")"
[ -n "$leases" ] && [ -n "$completed" ] && [ "$completed" -gt 0 ]
if [ "$completed" -lt $((4 * leases)) ]; then
    echo "FAIL: $leases leases for $completed cells (want >= 4x fewer)" >&2
    cat "$WORK/status.json" >&2
    exit 1
fi
echo "OK: $leases leases for $completed cells"

echo "==> wire frames must have flowed"
frames="$(sed -n 's/.*"frames_in": *\([0-9][0-9]*\).*/\1/p' "$WORK/status.json" | head -n 1)"
if [ -z "$frames" ] || [ "$frames" -eq 0 ]; then
    echo "FAIL: frames_in = ${frames:-missing}: no wire frames flowed" >&2
    cat "$WORK/status.json" >&2
    exit 1
fi
echo "OK: $frames wire frames received"

echo "==> killing workers; resuming from the shared cell store"
kill $W1 $W2
wait $W1 2>/dev/null || true
wait $W2 2>/dev/null || true
PIDS=""
"$WORK/bashsim" -exp fig1 -serve "127.0.0.1:$((PORT + 1))" -dist-secret "$SECRET" \
    -co-execute 0 -cache-dir "$WORK/cache" \
    -timeout 60s -out "$WORK/resume.tsv" 2>"$WORK/resume.log"
cmp "$WORK/serial.tsv" "$WORK/resume.tsv"
grep -q ' 0 cells simulated' "$WORK/resume.log"
echo "OK: resume completed from the store with zero simulations and no workers"

echo "==> peer cell exchange: cold worker fetches worker-to-worker instead of simulating"
# A warm holder-only worker (its kind list matches no job, so it only
# advertises its populated store and serves it on -peer-addr) plus a cold
# executing worker with a fresh store. The coordinator's own cache is fresh
# too, so every cell is dispatched to the cold worker, every grant carries
# the holder's peer address, and every fetch goes direct: the cold worker
# completes the sweep simulating nothing, the coordinator never answers a
# fetch, and the TSV still matches serial byte for byte.
COLD_BUDGET=8192
COLD_T0="$(date +%s)"
"$WORK/bashsim" -worker "http://127.0.0.1:$((PORT + 6))" -dist-secret "$SECRET" -parallel 1 \
    -poll 250ms -worker-kinds exchange.holder-only \
    -peer-addr "127.0.0.1:$((PORT + 7))" \
    -advert-budget "$COLD_BUDGET" -cache-dir "$WORK/cache" >"$WORK/peerwarm.log" 2>&1 &
WARM=$!
"$WORK/bashsim" -worker "http://127.0.0.1:$((PORT + 6))" -dist-secret "$SECRET" -parallel 1 \
    -poll 50ms \
    -advert-budget "$COLD_BUDGET" -cache-dir "$WORK/directcache" >"$WORK/directworker.log" 2>&1 &
DIRECT=$!
PIDS="$WARM $DIRECT"
"$WORK/bashsim" -exp fig1 -serve "127.0.0.1:$((PORT + 6))" -dist-secret "$SECRET" \
    -co-execute 0 -wait-workers 2 -advert-budget "$COLD_BUDGET" -cache-dir "$WORK/coorddirect" \
    -dist-status "$WORK/status-direct.json" -timeout 120s -out "$WORK/dist-direct.tsv" 2>"$WORK/serve-direct.log"
COLD_T1="$(date +%s)"
kill $WARM $DIRECT 2>/dev/null || true
wait $WARM 2>/dev/null || true
wait $DIRECT 2>/dev/null || true
PIDS=""
cmp "$WORK/serial.tsv" "$WORK/dist-direct.tsv"

grep 'worker stopped' "$WORK/directworker.log"
if ! grep -q 'simulated 0 cells' "$WORK/directworker.log"; then
    echo "FAIL: the cold worker simulated published cells:" >&2
    cat "$WORK/directworker.log" >&2
    exit 1
fi
fetched="$(sed -n 's/.*fetched \([0-9][0-9]*\) from peers.*/\1/p' "$WORK/directworker.log")"
if [ -z "$fetched" ] || [ "$fetched" -lt 8 ]; then
    echo "FAIL: cold worker fetched ${fetched:-0} cells, want >= 8 (half the sweep)" >&2
    exit 1
fi
direct="$(status_field "$WORK/status-direct.json" fetch_direct)"
fetches="$(status_field "$WORK/status-direct.json" fetches)"
served="$(status_field "$WORK/status-direct.json" fetch_served)"
adverts="$(status_field "$WORK/status-direct.json" adverts)"
if [ "${direct:-0}" -ne "$fetched" ] || [ "${fetches:-1}" -ne 0 ] || [ "${served:-1}" -ne 0 ] || [ "${adverts:-0}" -eq 0 ]; then
    echo "FAIL: exchange counters: fetch_direct=$direct (want $fetched, the cells fetched), fetches=$fetches fetch_served=$served (want 0: the coordinator must answer no fetch), adverts=$adverts (want > 0)" >&2
    cat "$WORK/status-direct.json" >&2
    exit 1
fi
advert_bytes="$(status_field "$WORK/status-direct.json" advert_bytes)"
advert_cap=$((COLD_BUDGET * (COLD_T1 - COLD_T0 + 5)))
if [ "${advert_bytes:-0}" -gt "$advert_cap" ]; then
    echo "FAIL: $advert_bytes advert bytes over ~$((COLD_T1 - COLD_T0))s exceeds 1 advertising worker x ${COLD_BUDGET}B/s (cap $advert_cap)" >&2
    exit 1
fi
direct_bytes=$(($(status_field "$WORK/status-direct.json" bytes_in) + $(status_field "$WORK/status-direct.json" bytes_out)))
if [ "$direct_bytes" -le 0 ]; then
    echo "FAIL: byte counters missing (direct=$direct_bytes)" >&2
    exit 1
fi
echo "OK: cold worker fetched $fetched cells worker-to-worker (simulated 0, 0 coordinator fetches); coordinator moved $direct_bytes bytes, $advert_bytes advert bytes under budget"

echo "==> cache-gc on the populated store"
"$WORK/bashsim" -cache-gc -cache-dir "$WORK/cache"

echo "==> byte measurement (fresh cache, no co-execution, two workers)"
BYTEPORT=$((PORT + 2))
"$WORK/bashsim" -worker "http://127.0.0.1:$BYTEPORT" -dist-secret "$SECRET" -parallel 1 \
    -poll 50ms -cache-dir "$WORK/cache-bin" >"$WORK/mw1-bin.log" 2>&1 &
M1=$!
"$WORK/bashsim" -worker "http://127.0.0.1:$BYTEPORT" -dist-secret "$SECRET" -parallel 1 \
    -poll 50ms -cache-dir "$WORK/cache-bin" >"$WORK/mw2-bin.log" 2>&1 &
M2=$!
PIDS="$M1 $M2"
"$WORK/bashsim" -exp fig1 -serve "127.0.0.1:$BYTEPORT" -dist-secret "$SECRET" \
    -lease-batch 4 -co-execute 0 -cache-dir "$WORK/cache-bin" \
    -dist-status "$WORK/status-bin.json" -timeout 120s -out "$WORK/dist-bin.tsv" 2>"$WORK/serve-bin.log"
kill $M1 $M2 2>/dev/null || true
wait $M1 2>/dev/null || true
wait $M2 2>/dev/null || true
PIDS=""
cmp "$WORK/serial.tsv" "$WORK/dist-bin.tsv"

bin_done="$(status_field "$WORK/status-bin.json" completed)"
if [ -z "$bin_done" ] || [ "$bin_done" -eq 0 ]; then
    echo "FAIL: completed = ${bin_done:-missing}" >&2
    exit 1
fi
bin_bytes=$(($(status_field "$WORK/status-bin.json" bytes_in) + $(status_field "$WORK/status-bin.json" bytes_out)))
if [ "$bin_bytes" -le 0 ]; then
    echo "FAIL: byte counters missing (bytes=$bin_bytes)" >&2
    exit 1
fi
echo "OK: $bin_done cells took $bin_bytes coordinator bytes"

echo "==> service mode: long-lived coordinator, two concurrent submits, /metrics, SIGTERM drain"
"$WORK/bashsim" -exp fig2 -parallel 1 -no-cache -out "$WORK/serial-fig2.tsv"
SVCPORT=$((PORT + 5))
"$WORK/bashsim" -serve "127.0.0.1:$SVCPORT" -dist-secret "$SECRET" \
    -co-execute 2 -cache-dir "$WORK/svccache" \
    -dist-status "$WORK/status-svc.json" >"$WORK/svc.log" 2>&1 &
SVC=$!
PIDS="$SVC"

wait_until 30 "sweep service to come up" \
    curl -sf "http://127.0.0.1:$SVCPORT/sweeps" || {
    cat "$WORK/svc.log" >&2
    exit 1
}

# Two named submissions from separate concurrent processes.
"$WORK/bashsim" -submit "http://127.0.0.1:$SVCPORT" -exp fig1 \
    -dist-secret "$SECRET" >"$WORK/submit1.log" 2>&1 &
S1=$!
"$WORK/bashsim" -submit "http://127.0.0.1:$SVCPORT" -exp fig2 \
    -dist-secret "$SECRET" >"$WORK/submit2.log" 2>&1 &
S2=$!
wait "$S1"
wait "$S2"
ID1="$(sed -n 's/^queued \(s[0-9][0-9]*\):.*/\1/p' "$WORK/submit1.log")"
ID2="$(sed -n 's/^queued \(s[0-9][0-9]*\):.*/\1/p' "$WORK/submit2.log")"
if [ -z "$ID1" ] || [ -z "$ID2" ]; then
    echo "FAIL: concurrent submissions not both accepted" >&2
    cat "$WORK/submit1.log" "$WORK/submit2.log" >&2
    exit 1
fi
echo "OK: accepted $ID1 (fig1) and $ID2 (fig2) concurrently"

# Mid-run scrape: the fleet counters must already be moving while the
# sweeps execute, and the exchange family must be exposed.
leases_moving() {
    curl -sf "http://127.0.0.1:$SVCPORT/metrics" >"$WORK/metrics-mid.txt" || return 1
    svc_leases="$(sed -n 's/^bashsim_leases_total \([0-9][0-9]*\).*/\1/p' "$WORK/metrics-mid.txt")"
    [ "${svc_leases:-0}" -gt 0 ]
}
wait_until 60 "bashsim_leases_total to move mid-run" leases_moving || {
    cat "$WORK/metrics-mid.txt" >&2
    exit 1
}
grep -q '^bashsim_fetch_false_positive_total ' "$WORK/metrics-mid.txt"
echo "OK: mid-run scrape shows bashsim_leases_total=$svc_leases and the exchange counters"

# Both results must appear and match the serial references byte for byte.
svc_result() {
    wait_until 180 "sweep $1 result" \
        curl -sf "http://127.0.0.1:$SVCPORT/sweeps/$1/result.tsv" -o "$2" || {
        curl -s "http://127.0.0.1:$SVCPORT/sweeps/$1" >&2 || true
        exit 1
    }
}
svc_result "$ID1" "$WORK/svc-fig1.tsv"
svc_result "$ID2" "$WORK/svc-fig2.tsv"
cmp "$WORK/serial.tsv" "$WORK/svc-fig1.tsv"
cmp "$WORK/serial-fig2.tsv" "$WORK/svc-fig2.tsv"
echo "OK: both service results byte-identical to serial"

"$WORK/bashsim" -status "http://127.0.0.1:$SVCPORT" -dist-secret "$SECRET" >"$WORK/svc-status.txt"
grep -qi 'workers' "$WORK/svc-status.txt"
curl -sf "http://127.0.0.1:$SVCPORT/metrics" >"$WORK/metrics-final.txt"

kill -TERM "$SVC"
wait_until 60 "service to drain after SIGTERM" proc_gone "$SVC" || {
    cat "$WORK/svc.log" >&2
    exit 1
}
SVCRC=0
wait "$SVC" || SVCRC=$?
PIDS=""
if [ "$SVCRC" -ne 0 ]; then
    echo "FAIL: service exited $SVCRC after SIGTERM drain" >&2
    cat "$WORK/svc.log" >&2
    exit 1
fi
grep -q 'draining' "$WORK/svc.log"
[ -s "$WORK/status-svc.json" ]
grep -q '"draining": *true' "$WORK/status-svc.json"
svc_completed="$(status_field "$WORK/status-svc.json" completed)"
if [ "${svc_completed:-0}" -eq 0 ]; then
    echo "FAIL: drained service persisted zero completed jobs" >&2
    cat "$WORK/status-svc.json" >&2
    exit 1
fi
echo "OK: SIGTERM drained cleanly; persisted status shows $svc_completed completed jobs"

echo "==> exporting artifacts to $ART"
mkdir -p "$ART"
cp "$WORK/status.json" "$ART/dist-status.json"
cp "$WORK/status-direct.json" "$ART/dist-status-direct-fetch.json"
cat >"$ART/BENCH_peer_fetch.json" <<EOF
{
  "bench": "peer_fetch_warmup",
  "cells": $completed,
  "fetch_direct": $direct,
  "direct_coordinator_bytes": $direct_bytes
}
EOF
cat "$ART/BENCH_peer_fetch.json"
cp "$WORK/status-bin.json" "$ART/dist-status-binary.json"
cp "$WORK/cache/manifest.json" "$ART/manifest.json"
cp "$WORK/status-svc.json" "$ART/service-status.json"
cp "$WORK/metrics-final.txt" "$ART/service-metrics-scrape.txt"
echo "dist smoke passed"
