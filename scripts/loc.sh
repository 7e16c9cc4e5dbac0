#!/usr/bin/env bash
# Prints the non-test Go line count outside bench/ — the number ROADMAP's
# "one way to do each thing" line asks every PR to report before and after.
# Raw lines: comments and blanks count, so reformatting cannot move it.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 |
	xargs -0 cat | wc -l
