#!/usr/bin/env sh
# Prints the two size figures ROADMAP item 6 tracks, so CHANGES.md and
# ROADMAP.md copy them instead of recomputing them by hand: lines of
# non-test Go outside bench/, and lines of the committed API golden.
set -eu
cd "$(dirname "$0")/.."
go_lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l)
echo "non-test Go outside bench/: $go_lines lines"
echo "api_surface.txt: $(wc -l <api_surface.txt) lines"
