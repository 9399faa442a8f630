#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# "--workload all" as the first two arguments runs the three workloads one
# after another, each in a process of its own, and fails if any fails.
#
# The build cache, the binary, the run's cell stores and trace files all
# live under .bench_build/ at the root of the checkout; nothing is written
# elsewhere and nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
	shift 2
	status=0
	for w in sweep-cold sweep-warm fleet-fetch; do
		"$out/perfbench" --workload "$w" "$@" || status=1
	done
	exit "$status"
fi
exec "$out/perfbench" "$@"
