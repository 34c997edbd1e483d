#!/usr/bin/env bash
# Builds the sladed benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash sladeperf/run.sh --workload decompose-hot --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache and configuration, the binary,
# temporary data directories and the result files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -buildvcs=false -o "$out/sladeperf" .)
SLADEPERF_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || true)" \
	exec "$out/sladeperf" "$@"
