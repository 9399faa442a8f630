#!/bin/sh
# bench-cell-exchange.sh: run BenchmarkCellFetchVsSimulate (download one
# published 16-node cell as a FETCH frame on the wire + fail-closed decode +
# raw install, vs re-simulating the same cell) and convert the output into
# a small JSON artifact, so the exchange's headline speedup is trackable per
# commit. The fetch arm lives in internal/dist and the simulate arm in
# internal/experiments; both run under the one benchmark name.
#
# Usage: bench-cell-exchange.sh [output.json]  (default BENCH_cell_exchange.json)
#
# It also asserts the tentpole claim so a regression fails the CI step
# instead of silently shipping: fetching must be at least 10x faster than
# simulating the cell.
set -eu

OUT="${1:-BENCH_cell_exchange.json}"
COUNT="${BENCH_EXCHANGE_ITERS:-30x}"
TXT="$(mktemp)"
trap 'rm -f "$TXT"' EXIT INT TERM

go test -run '^$' -bench BenchmarkCellFetchVsSimulate -benchtime "$COUNT" ./internal/dist/ ./internal/experiments/ | tee "$TXT"

awk -v out="$OUT" '
    / ns\/op/ {
        split($1, parts, "/")
        mode = parts[length(parts)]
        sub(/-[0-9]+$/, "", mode)
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op") ns[mode] = $(i - 1)
        }
    }
    END {
        if (!("fetch" in ns) || !("simulate" in ns)) {
            print "FAIL: benchmark output missing fetch or simulate results" > "/dev/stderr"
            exit 1
        }
        printf "{\n" > out
        printf "  \"fetch\": {\"ns_per_op\": %s},\n", ns["fetch"] > out
        printf "  \"simulate\": {\"ns_per_op\": %s},\n", ns["simulate"] > out
        printf "  \"speedup\": %.1f\n", ns["simulate"] / ns["fetch"] > out
        printf "}\n" > out
        if (ns["fetch"] * 10 > ns["simulate"] + 0) {
            printf "FAIL: fetch %s ns/op vs simulate %s ns/op (want >= 10x speedup)\n", ns["fetch"], ns["simulate"] > "/dev/stderr"
            exit 1
        }
        printf "OK: fetch %s ns/op vs simulate %s ns/op (%.1fx)\n", ns["fetch"], ns["simulate"], ns["simulate"] / ns["fetch"]
    }
' "$TXT"
echo "wrote $OUT"
