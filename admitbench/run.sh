#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass
# through (--workload, --seed, --seconds, --trace). Every build and run
# artefact stays under .bench_build in the directory it is started from.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/admitbench" && go build -o "$out/admitbench" .)
exec "$out/admitbench" "$@"
