#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload. Run it from the repository root:
#
#   bash ohmbench/run.sh --workload des-hetero --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache, binary, the service's temporary
# directories) goes under .bench_build/ in the root. It never downloads:
# outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

(cd "$root/ohmbench" && go build -o "$build/ohmbench" .) >&2
exec "$build/ohmbench" "$@"
