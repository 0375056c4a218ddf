#!/usr/bin/env bash
# pgo-inlines.sh — list the hot-budget inline decisions of the simbench
# PGO build.
#
# Go's PGO raises the inlining budget only for call sites the profile
# marks hot, and it finds those sites by their line offset within the
# calling function. An edit that moves a hot call to another line drops
# its inline with no error. This script builds simbench with the
# committed profile (cmd/ndpsim/default.pgo, as simbench/run.sh does)
# under -d=pgodebug=1 and prints each hot-budget inline as one sorted
# "caller ← callee" line, without costs or line numbers, so the output
# of two checkouts compares with comm. A caller that inlines the same
# callee at two call sites gets two equal lines, so losing one of them
# shows too.
#
# Usage:
#   scripts/pgo-inlines.sh [CHECKOUT]     # default: this checkout
#
# What an edit lost and gained against a parent checkout:
#   scripts/pgo-inlines.sh /path/to/parent > parent.txt
#   scripts/pgo-inlines.sh > change.txt
#   comm -23 parent.txt change.txt        # lost
#   comm -13 parent.txt change.txt        # gained
set -euo pipefail

root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
pgo="$root/cmd/ndpsim/default.pgo"
if [ ! -f "$root/simbench/go.mod" ] || [ ! -f "$pgo" ]; then
	echo "pgo-inlines: $root is not a checkout of the simulator" >&2
	exit 1
fi

export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
if ! out="$(cd "$root/simbench" &&
	go build -o /dev/null -pgo="$pgo" -gcflags='ndpage/...=-d=pgodebug=1' . 2>&1)"; then
	printf '%s\n' "$out" >&2
	exit 1
fi
# The compiler reports some decisions more than once: keep one line per
# call site (position included), then drop the position.
printf '%s\n' "$out" |
	grep '^hot-budget check allows inlining for call ' |
	LC_ALL=C sort -u |
	sed 's/^hot-budget check allows inlining for call \(.*\) (cost [0-9]*) at .* in function \(.*\)$/\2 ← \1/' |
	LC_ALL=C sort
