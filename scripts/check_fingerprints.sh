#!/bin/sh
# Compare the fingerprints a perfbench run prints (its "# fingerprint"
# line and the fingerprint of its "# held-out pass" line) with the
# workload's recorded line in a fingerprints file, and fail naming the
# workload on any mismatch.
#
# Usage: scripts/check_fingerprints.sh FILE WORKLOAD RUN-OUTPUT
#   e.g. bash perfbench/run.sh --workload tables --seed 1 --seconds 2 --trace 0 >run.txt
#        scripts/check_fingerprints.sh scripts/fingerprints.txt tables run.txt
set -eu

FILE=${1:?usage: check_fingerprints.sh FILE WORKLOAD RUN-OUTPUT}
W=${2:?usage: check_fingerprints.sh FILE WORKLOAD RUN-OUTPUT}
RUN=${3:?usage: check_fingerprints.sh FILE WORKLOAD RUN-OUTPUT}

want=$(awk -v w="$W" '$1 == w { print $2, $3 }' "$FILE")
if [ -z "$want" ]; then
	echo "fingerprints: no line for workload $W in $FILE" >&2
	exit 1
fi
fp=$(sed -n 's/^# fingerprint \([0-9a-f]*\)$/\1/p' "$RUN")
held=$(sed -n 's/^# held-out pass: .*fingerprint \([0-9a-f]*\)$/\1/p' "$RUN")
got="${fp:-none} ${held:--}"
if [ "$got" != "$want" ]; then
	echo "fingerprints: workload $W printed $got, $FILE records $want" >&2
	exit 1
fi
echo "fingerprints: workload $W matches ($got)"
