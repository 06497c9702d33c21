#!/usr/bin/env bash
# Judges a change against its parent with cmperf, the way the choosing-metrics
# guide and bench/README.md describe: parent and change are exported into two
# fresh directories, each builds its own cmperf from source, and N pairs of
# end-to-end runs (-trace 0) alternate which side goes first; pair i uses seed
# i. Both lists of result files then go to `cmperf -compare`, whose exit
# status (non-zero on a regression) is this script's.
#
#	tools/cmperf-compare.sh <parent-rev> [pairs] [cmperf flags...]
#	make cmperf-compare PARENT=HEAD~1 PAIRS=10 ARGS='-workload grid64_cm'
#
# The change is the working tree (tracked files plus untracked ones git does
# not ignore), so a change can be judged before it is committed. Result files
# land in bench/out/ (ignored by git) as cmp-parent-<i>.json and
# cmp-change-<i>.json. Ten pairs of all seven workloads take about 35 minutes.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
parent=${1:?usage: tools/cmperf-compare.sh <parent-rev> [pairs] [cmperf flags...]}
pairs=${2:-10}
shift
[ $# -gt 0 ] && shift

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/change" "$root/bench/out"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"
(
	cd "$root"
	git ls-files -z -co --exclude-standard |
		while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
		tar --null -T - -cf -
) | tar -x -C "$work/change"

run() { # side pair
	bash "$work/$1/bench/run.sh" -trace 0 -seed "$2" -out "$root/bench/out/cmp-$1-$2.json" "${@:3}"
}
parents=() changes=()
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i" "$@"
		run change "$i" "$@"
	else
		run change "$i" "$@"
		run parent "$i" "$@"
	fi
	parents+=("$root/bench/out/cmp-parent-$i.json")
	changes+=("$root/bench/out/cmp-change-$i.json")
done
join() { local IFS=,; echo "$*"; }
bash "$work/change/bench/run.sh" -compare "$(join "${parents[@]}")" "$(join "${changes[@]}")"
