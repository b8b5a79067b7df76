#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the serve part's state directories
# and the span dumps all live under .bench_build/, so a run writes nothing
# outside the checkout. The build needs the repository around perfbench/
# (go.mod replaces the turnstile module with ../) and fails without it.
set -euo pipefail
mkdir -p .bench_build
out="$(cd .bench_build && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
# The benchmark collects only between timed stretches (see quiet in
# main.go). With MADV_FREE the heap the runtime hands back between them
# stays mapped unless the kernel needs it, so the next stretch does not
# fault it in again page by page.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$out/perfbench" --out "$out" "$@"
