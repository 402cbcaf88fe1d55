#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in, then runs it
# with the given arguments.  Run from the repository root:
#
#   bash servebench/run.sh --workload lp-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and the traced runs' span files go under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOMODCACHE="$out/go-mod"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

# The module replaces pfcache with the checkout's root module; outside a
# checkout holding that module the build fails and nothing is run.
go -C "$bench" build -trimpath -o "$out/servebench" .
exec "$out/servebench" "$@"
