#!/usr/bin/env bash
# Builds the bench program from this checkout and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload score-small --seed 1 --seconds 20 --trace 0
#
# Every build output and scratch file stays under .bench_build/ in the
# repository root; the Go build cache lives there too.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
export GOMAXPROCS="$(nproc)"
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
