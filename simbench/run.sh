#!/usr/bin/env bash
# Builds the simulator benchmark with the committed PGO profile
# (cmd/ndpsim/default.pgo, the profile ndpsim ships with) and runs it.
# Run from the repository root:
#
#   bash simbench/run.sh --workload ndpage-bfs --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# under .bench_build/ in the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
pgo="$root/cmd/ndpsim/default.pgo"
if [ ! -f "$root/go.mod" ] || [ ! -f "$pgo" ]; then
	echo "simbench: $root is not a checkout of the simulator (no go.mod or default.pgo)" >&2
	exit 1
fi

out="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -pgo="$pgo" -o "$out/simbench" .)
exec "$out/simbench" "$@"
