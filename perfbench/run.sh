#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload colocate --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache and temporary files, the
# binary and the span files live under $CARGO_TARGET_DIR (default
# .bench_build), so a run reads and writes nothing outside the checkout and
# fetches nothing.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
(cd "$root/perfbench" && env GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
