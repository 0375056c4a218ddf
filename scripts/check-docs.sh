#!/usr/bin/env bash
# check-docs.sh — the CI docs job: (1) every relative markdown link in
# the documentation set resolves to a file in the repo; (2) every CLI
# flag the docs mention next to a tool name actually exists in that
# tool's main.go. Pure grep/sed, no network.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md EXPERIMENTS.md WORKLOADS.md"
fail=0

# --- 1. Relative link check -------------------------------------------------
for doc in $DOCS; do
  [ -f "$doc" ] || { echo "FAIL: $doc missing"; fail=1; continue; }
  # Extract markdown link targets: [text](target). Skip absolute URLs
  # and intra-page anchors; strip #anchor suffixes from file targets.
  targets=$(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' || true)
  for target in $targets; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$path" ]; then
      echo "FAIL: $doc links to missing path: $target"
      fail=1
    fi
  done
done

# --- 2. CLI flag check ------------------------------------------------------
# Defined flags of a tool: the first string literal of each
# flag.X("name", ...) / fs.XVar(&v, "name", ...) call in its main.go.
defined_flags() {
  {
    sed -nE 's/.*(String|Bool|Int64|Int|Uint64|Duration)\("([a-z][a-z-]*)".*/\2/p' "cmd/$1/main.go"
    sed -nE 's/.*(String|Bool|Int64|Int|Uint64|Duration)Var\([^,]+, *"([a-z][a-z-]*)".*/\2/p' "cmd/$1/main.go"
  } | sort -u
}

# Per docs line: union the defined flags of every tool the line
# mentions; every -flag token on the line must be in that union.
while IFS= read -r line; do
  tools=""
  for tool in ndpsim ndpexp ndptrace ndpserve; do
    if echo "$line" | grep -qE "(^|[^a-z])$tool([^a-z]|\$)"; then
      tools="$tools $tool"
    fi
  done
  [ -n "$tools" ] || continue
  defined="h help"
  for tool in $tools; do
    defined="$defined $(defined_flags "$tool" | tr '\n' ' ')"
  done
  flags=$(echo "$line" | grep -oE '(^|[ `(])-[a-z][a-z-]*' | sed -E 's/^[ `(]*-//' | sort -u || true)
  for f in $flags; do
    if ! echo "$defined" | tr ' ' '\n' | grep -qx "$f"; then
      echo "FAIL: docs mention flag -$f next to$tools, which defines no such flag: $line"
      fail=1
    fi
  done
done < <(cat $DOCS)

# --- 3. Mechanism surface documented ----------------------------------------
# The mechanism zoo is user-facing through two CLIs: every selectable
# mechanism name, the comparison figure, and ndpsim's mechanism knobs
# must appear both in the tool (flag help / extras list) and in the
# docs, so neither side can drift silently.
for name in Radix ECH HugePage NDPage Ideal FlattenOnly BypassOnly Victima NMT PCAX; do
  if ! grep -q "$name" cmd/ndpsim/main.go; then
    echo "FAIL: mechanism $name missing from ndpsim's -mech help"
    fail=1
  fi
  if ! grep -qw "$name" $DOCS; then
    echo "FAIL: mechanism $name undocumented in $DOCS"
    fail=1
  fi
done
if ! grep -q 'mechanism-comparison' cmd/ndpexp/main.go; then
  echo "FAIL: ndpexp does not list the mechanism-comparison figure"
  fail=1
fi
if ! grep -q 'mechanism-comparison' $DOCS; then
  echo "FAIL: ndpexp -figs mechanism-comparison undocumented in $DOCS"
  fail=1
fi
for f in victima-gate identity-promote pcx-entries; do
  if ! grep -q "\"$f\"" cmd/ndpsim/main.go; then
    echo "FAIL: ndpsim defines no -$f flag"
    fail=1
  fi
  if ! grep -q -- "-$f" $DOCS; then
    echo "FAIL: ndpsim -$f undocumented in $DOCS"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check failed"
  exit 1
fi
echo "docs check ok: links resolve, mentioned CLI flags exist"
