#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash _perfbench/run.sh --workload threshold-sweep --seed 1 --seconds 20 --trace 0
#
# Builds questbench, questsim and the benchmark program (perfbench) from
# this checkout, then runs it. Every build output and Go cache lives under
# .bench_build, so the benchmark reads and writes only inside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off CGO_ENABLED=0
mkdir -p "$GOTMPDIR" "$out/bin"
go build -o "$out/bin/" ./cmd/questbench ./cmd/questsim
go build -C _perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
