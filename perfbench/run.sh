#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build at the checkout root. Run it from that root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
