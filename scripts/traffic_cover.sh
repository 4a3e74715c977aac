#!/usr/bin/env bash
# Lists the functions that the repository's own traffic never reaches,
# and fails on any of them that scripts/traffic_allow.txt does not name.
#
# Builds every command and example, and the perfbench benchmark, with
# coverage over the whole module (-cover -coverpkg=repro/...), runs the
# traffic below in a temporary directory with GOCOVERDIR set, merges
# the counters and prints every function at 0.0 %.  perfbench's own
# lines are dropped first: the root module cannot resolve that package.
#
# The traffic:
#   - perfbench's three workloads at --seed 1 --seconds 2 --trace 1;
#   - tables -scale 0.06 -which all,ix,x, and tables -which fig3 -md
#     (the markdown writer);
#   - dmopt -scale 0.06 as a plain QP, -qcp -dosepl, -qcp -both,
#     -actuators joint and -qcp -actuators bias, and once more as a
#     plain QP with -stats -bench-json (the report writers);
#   - dosesweep -scale 0.05 plain, -bias, -wafer and -workers 1 (the
#     serial sweep's incremental Timer);
#   - charlib -tables -master NAND2X1;
#   - scripts/serve_smoke.sh against the dmopt-serve binary: a
#     synchronous solve, a wafer job, an asynchronous job canceled at
#     once, the job list and a malformed body;
#   - the four examples.
#
# Any entry point that fails fails the script.  So does a function at
# 0.0 % that scripts/traffic_allow.txt lacks: the list names each
# function allowed there by file and function name (not line number)
# with its reason, and the script names every function it lacks.  A
# listed function that the traffic now reaches is reported, not failed.
# Run it from the repository root:
#
#   scripts/traffic_cover.sh [OUT]
#
# OUT (default zero-coverage.txt) receives the 0.0 % list.
set -euo pipefail

root=$(pwd)
out=${1:-zero-coverage.txt}
case $out in /*) ;; *) out="$root/$out" ;; esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
cov="$tmp/cov"
mkdir -p "$bin" "$cov"

go build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/...
(cd perfbench && go build -cover -coverpkg=repro/... -o "$bin/perfbench" .)

# run executes one entry point quietly, with its output shown only
# when it fails.
run() {
	echo "traffic-cover: $*" >&2
	if ! GOCOVERDIR="$cov" "$@" >"$tmp/log" 2>&1; then
		cat "$tmp/log" >&2
		echo "traffic-cover: failed: $*" >&2
		exit 1
	fi
}

cd "$tmp"
for w in tables flows serve-mix; do
	run "$bin/perfbench" --workload "$w" --seed 1 --seconds 2 --trace 1
done
run "$bin/tables" -scale 0.06 -which all,ix,x
run "$bin/tables" -which fig3 -md
run "$bin/dmopt" -scale 0.06
run "$bin/dmopt" -scale 0.06 -qcp -dosepl
run "$bin/dmopt" -scale 0.06 -qcp -both
run "$bin/dmopt" -scale 0.06 -actuators joint
run "$bin/dmopt" -scale 0.06 -qcp -actuators bias
run "$bin/dmopt" -scale 0.06 -stats -bench-json "$tmp/bench.json"
run "$bin/dosesweep" -scale 0.05
run "$bin/dosesweep" -scale 0.05 -bias
run "$bin/dosesweep" -scale 0.05 -wafer
run "$bin/dosesweep" -scale 0.05 -workers 1
run "$bin/charlib" -tables -master NAND2X1
run "$root/scripts/serve_smoke.sh" "$bin/dmopt-serve"
for ex in equipment leakagerecovery quickstart timingspeedup; do
	run "$bin/$ex"
done

cd "$root"
go tool covdata textfmt -i="$cov" -o "$tmp/cov.txt"
grep -v '^repro/perfbench/' "$tmp/cov.txt" >"$tmp/root.txt"
go tool cover -func "$tmp/root.txt" | awk '$NF == "0.0%"' >"$out"
cat "$out"
echo "traffic-cover: $(wc -l <"$out") functions at 0.0 % (list in $out)" >&2

# keys prints "file function" for each 0.0 % line of the cover report
# (file:line: function pct) or each entry of the allow list (file
# function reason), skipping the list's comments and blank lines.
keys() {
	awk '$0 !~ /^[[:space:]]*(#|$)/ { f = $1; sub(/:[0-9]+:$/, "", f); print f, $2 }' "$1" | LC_ALL=C sort -u
}
allow="$root/scripts/traffic_allow.txt"
keys "$out" >"$tmp/zero.keys"
keys "$allow" >"$tmp/allow.keys"
stale=$(LC_ALL=C comm -13 "$tmp/zero.keys" "$tmp/allow.keys")
if [ -n "$stale" ]; then
	echo "traffic-cover: listed in $allow but reached now:" >&2
	echo "$stale" | sed 's/^/  /' >&2
fi
missing=$(LC_ALL=C comm -23 "$tmp/zero.keys" "$tmp/allow.keys")
if [ -n "$missing" ]; then
	echo "traffic-cover: reached by no entry point and missing from $allow:" >&2
	echo "$missing" | sed 's/^/  /' >&2
	exit 1
fi
