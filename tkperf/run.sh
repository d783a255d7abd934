#!/usr/bin/env bash
# Builds the benchmark driver and the tkserve, tkexp and tksim binaries
# from the checkout's sources, then runs the driver. Every build artefact, the Go build cache
# and the benchmark's scratch files stay under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
#
#   bash tkperf/run.sh --workload sweep|sampled|serve --seed N --seconds S --trace 0|1
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/work" "$build/bin"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C tkperf -o "$build/tkperf" . >&2
go build -o "$build/bin/" ./cmd/tkserve ./cmd/tkexp ./cmd/tksim >&2

exec "$build/tkperf" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
