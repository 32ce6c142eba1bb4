#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given flags. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload fig9-synth --seed 1 --seconds 12 --trace 0
#
# The Go build cache, GOPATH, temporary files and the Go configuration
# directory (where the toolchain keeps its telemetry counters) live under
# .bench_build/ as well, so a run writes nothing outside the checkout. The
# first run in a fresh checkout compiles the standard library into that
# cache (under a minute on two cores); later runs reuse it.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench: run from the repository root (go.mod, internal/ and bench/ must all be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
