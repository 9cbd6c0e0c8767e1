#!/usr/bin/env bash
# Fails unless a test-name pattern selects at least one test or fuzz
# target in every package given:
#
#   bash scripts/require-tests.sh PATTERN PKG...
#   bash scripts/require-tests.sh '^FuzzDeltas$' ./internal/trace/
#
# `go test -run P` prints "[no tests to run]" and `go test -fuzz P`
# prints PASS, both exiting 0, when P matches nothing, so a renamed or
# deleted test would drop out of a CI step without a failure. Run this
# before any step that selects tests by name. It lists the matches with
# `go test -list`, which only compiles the package's tests.
set -euo pipefail

if [ "$#" -lt 2 ]; then
	echo "usage: $0 PATTERN PKG..." >&2
	exit 2
fi
pattern=$1
shift
status=0
for pkg in "$@"; do
	matches=$(go test -list "$pattern" "$pkg" | grep -E '^(Test|Fuzz)' || true)
	if [ -z "$matches" ]; then
		echo "require-tests: no test or fuzz target in $pkg matches $pattern" >&2
		status=1
	else
		echo "$pkg: ${matches//$'\n'/ }"
	fi
done
exit "$status"
