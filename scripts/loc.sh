#!/usr/bin/env bash
# loc.sh — prints the non-test Go line count (wc -l) of every internal/*
# package, of the root package, of cmd/ and of examples/, and their total:
# all of the module's non-test Go, the code-size metric the ROADMAP tracks.
# perfbench/ is a separate module and is not counted.
# Informational only: it always exits 0 unless the tree cannot be read.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
# row LABEL FIND-ARGS... prints one row for the non-test Go files find
# selects and adds them to the total; an empty selection prints nothing.
row() {
  local label=$1 files lines
  shift
  files=$(find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*')
  if [ -z "$files" ]; then
    return
  fi
  # shellcheck disable=SC2086 # one word per file path is intended
  lines=$(cat $files | wc -l)
  printf '%-24s %6d\n' "$label" "$lines"
  total=$((total + lines))
}

for dir in internal/*/; do
  row "${dir%/}" "$dir"
done
row "root package" . -maxdepth 1
row "cmd" cmd
row "examples" examples
printf '%-24s %6d\n' "total" "$total"
