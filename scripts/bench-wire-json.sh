#!/bin/sh
# bench-wire-json.sh: run BenchmarkWireRoundTrip (one lease->execute->result
# cycle per op over the wire transport) and convert the output into a small
# JSON artifact, so the per-commit transport latency and
# coordinator-bytes-per-op are trackable without parsing bench text.
#
# Usage: bench-wire-json.sh [output.json]   (default BENCH_dist_wire.json)
#
# It fails only when the benchmark produced no numbers; the figures are
# archived, not gated.
set -eu

OUT="${1:-BENCH_dist_wire.json}"
COUNT="${BENCH_WIRE_ITERS:-2000x}"
TXT="$(mktemp)"
trap 'rm -f "$TXT"' EXIT INT TERM

go test -run '^$' -bench BenchmarkWireRoundTrip -benchtime "$COUNT" ./internal/dist/ | tee "$TXT"

awk -v out="$OUT" '
    / ns\/op/ {
        split($1, parts, "/")
        mode = parts[length(parts)]
        sub(/-[0-9]+$/, "", mode)
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op") ns[mode] = $(i - 1)
            if ($(i) == "coordB/op") bytes[mode] = $(i - 1)
        }
    }
    END {
        if (!("binary" in ns) || !("binary" in bytes)) {
            print "FAIL: benchmark output missing binary results" > "/dev/stderr"
            exit 1
        }
        printf "{\n" > out
        printf "  \"binary\": {\"ns_per_op\": %s, \"coord_bytes_per_op\": %s}\n", ns["binary"], bytes["binary"] > out
        printf "}\n" > out
        printf "OK: binary %s B/op, %s ns/op\n", bytes["binary"], ns["binary"]
    }
' "$TXT"
echo "wrote $OUT"
