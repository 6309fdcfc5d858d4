#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload explore|session|history --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, the binary, trace spans) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C perfbench build -o "$out/perfbench" . >&2
# Outside a git checkout, name the sources by their digest instead.
commit=$(git rev-parse --short=12 HEAD 2>/dev/null) ||
	commit=src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
exec "$out/perfbench" --commit "$commit" "$@"
