#!/bin/sh
# Build the benchmark and run it with the given arguments, from the
# repository root:
#
#   sh bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1]
#   sh bench/run.sh -compare A.json B.json
#
# Everything the build and the runs write stays in .bench_build: the Go
# build cache, Go's config and telemetry directory, the binary, profiles,
# spill files and result files.
set -eu
if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$out/telegraphos-bench" .)
exec "$out/telegraphos-bench" "$@"
