#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run from
# the repository root. Build outputs, the Go build cache and the Go
# tool's own config and telemetry files stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
