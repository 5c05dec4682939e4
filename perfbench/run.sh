#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload edge_hit --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# benchmark's data directories all stay under .bench_build in the working
# directory. The build fails, and so does this script, when the repository
# sources are not beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
