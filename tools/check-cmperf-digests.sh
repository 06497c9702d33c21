#!/usr/bin/env bash
# Fails when a cmperf result file does not hold exactly the workloads of
# tools/cmperf-digests.txt, each with its listed sim_digest. The result must be
# a -seed 1 run (cmperf's default), the seed the list was taken at.
#
# usage: tools/check-cmperf-digests.sh [result.json [digests.txt]]
#	(defaults: bench/out/ci.json and tools/cmperf-digests.txt)
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
result=${1:-$root/bench/out/ci.json}
list=${2:-$root/tools/cmperf-digests.txt}

# cmperf writes indented JSON: a workload's "name" line, then its
# "sim_digest" line; the top-level "seed" comes before them.
if ! grep -qE '^ "seed": 1,$' "$result"; then
	echo "$result: not a -seed 1 run" >&2
	exit 1
fi
got=$(awk -F'"' '$2 == "name" { name = $4 } $2 == "sim_digest" { print name, $4 }' "$result" | sort)
want=$(grep -v '^#' "$list" | sort)
if [ "$got" != "$want" ]; then
	echo "sim_digest differs from $list (< listed, > $result):" >&2
	diff <(echo "$want") <(echo "$got") >&2 || true
	exit 1
fi
echo "sim_digest of $(wc -l <<<"$got") workloads equal to $list"
