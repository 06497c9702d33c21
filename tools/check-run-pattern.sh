#!/usr/bin/env bash
# Fails when a name in a `go test -run` pattern is not a test, fuzz target,
# benchmark or example of the given packages. go test passes a pattern that
# matches nothing with "no tests to run", so a smoke naming a deleted or
# renamed test would otherwise go on passing while it runs nothing. The
# pattern must be plain names joined by '|'.
#
# usage: tools/check-run-pattern.sh 'TestA|TestB' ./pkg/a ./pkg/b
set -euo pipefail
pattern=$1
shift
listed=$("${GO:-go}" test -list . "$@")
status=0
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
	if ! grep -qxF -- "$name" <<<"$listed"; then
		echo "go test -run '$pattern': $* define no $name" >&2
		status=1
	fi
done
exit $status
