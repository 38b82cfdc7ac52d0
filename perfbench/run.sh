#!/usr/bin/env bash
# Builds mqdp-server and the perfbench program from the source tree in the
# current directory (the repository root), then runs perfbench with the
# given arguments:
#
#   bash perfbench/run.sh --workload firehose --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOTMPDIR="$build/tmp" GOTELEMETRY=off
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" TMPDIR="$build/tmp"
export CGO_ENABLED=0

if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mqdp-server" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/mqdp-server not found)" >&2
	exit 2
fi

go build -o "$build/bin/mqdp-server" ./cmd/mqdp-server >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -server "$build/bin/mqdp-server" -workdir "$build/tmp" "$@"
