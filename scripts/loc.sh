#!/usr/bin/env bash
# loc.sh — prints the non-test Go line count (wc -l) of every internal/*
# package and their total, the code-size metric the ROADMAP tracks.
# Informational only: it always exits 0 unless the tree cannot be read.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in internal/*/; do
  pkg=${dir%/}
  files=$(find "$pkg" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*')
  if [ -z "$files" ]; then
    continue
  fi
  # shellcheck disable=SC2086 # one word per file path is intended
  lines=$(cat $files | wc -l)
  printf '%-24s %6d\n' "$pkg" "$lines"
  total=$((total + lines))
done
printf '%-24s %6d\n' "total" "$total"
