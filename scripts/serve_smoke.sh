#!/bin/sh
# Smoke-test the dmopt-serve daemon: boot it on an ephemeral port and
# drive every endpoint once:
#   - a scale-0.15 AES-65 job through the synchronous endpoint (200 with
#     a dmopt-job/v1 result and a solver status);
#   - a scale-0.05 AES-65 wafer job through the same endpoint (200 with
#     a wafer summary);
#   - an asynchronous full-size JPEG-90 QCP, canceled at once (state
#     canceled), then the job list (which must show it);
#   - a malformed body (400);
# then require a dmopt-bench/v1 /metrics report with exactly two jobs
# done, one canceled and one rejected (the malformed body), and shut the
# daemon down cleanly.
#
# Usage: scripts/serve_smoke.sh path/to/dmopt-serve
set -eu

BIN=${1:?usage: serve_smoke.sh path/to/dmopt-serve}

# Bind port 0 so the kernel picks a free port; the daemon prints the
# resolved address on stderr, which we parse to find the server.
LOG=$(mktemp)
BODY=$(mktemp)
"$BIN" -addr 127.0.0.1:0 -max-running 1 -cache-mb 64 2>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG" "$BODY"' EXIT

# Wait for the resolved listen address, then for liveness (up to ~10 s).
i=0
ADDR=
while [ -z "$ADDR" ]; do
    ADDR=$(sed -n 's/^dmopt-serve: listening on \([^ ]*\).*/\1/p' "$LOG")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never announced its address" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
BASE=http://$ADDR

until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon never became healthy" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

# req METHOD PATH [JSON]: one request; the status lands in CODE and the
# response body in $BODY.
req() {
    if [ $# -ge 3 ]; then
        CODE=$(curl -s -o "$BODY" -w '%{http_code}' -X "$1" "$BASE$2" -d "$3")
    else
        CODE=$(curl -s -o "$BODY" -w '%{http_code}' -X "$1" "$BASE$2")
    fi
}

# expect STATUS WHAT: fail unless the last request answered STATUS.
expect() {
    if [ "$CODE" != "$1" ]; then
        echo "serve-smoke: $2 returned $CODE, want $1:" >&2
        cat "$BODY" >&2
        exit 1
    fi
}

# has PATTERN WHAT: fail unless the last response body matches PATTERN.
has() {
    grep -q "$1" "$BODY" || {
        echo "serve-smoke: $2:" >&2
        cat "$BODY" >&2
        exit 1
    }
}

req POST /v1/solve '{"design":"AES-65","scale":0.15}'
expect 200 "/v1/solve"
has '"schema": "dmopt-job/v1"' "result is not a dmopt-job/v1 document"
has '"solver_status"' "result misses solver status"

req POST /v1/solve '{"design":"AES-65","scale":0.05,"mode":"wafer","grid_um":10}'
expect 200 "wafer /v1/solve"
has '"per_field"' "wafer result misses its per-field summary"

# A full-size JPEG-90 QCP runs for tens of seconds, so it is still
# generating or solving when the DELETE arrives; DELETE returns once
# the job has stopped.
req POST /v1/jobs '{"design":"JPEG-90","mode":"qcp"}'
expect 202 "POST /v1/jobs"
ID=$(sed -n 's/^  "id": "\(.*\)",$/\1/p' "$BODY")
[ -n "$ID" ] || {
    echo "serve-smoke: submission returned no job id:" >&2
    cat "$BODY" >&2
    exit 1
}
req DELETE "/v1/jobs/$ID"
expect 200 "DELETE /v1/jobs/$ID"
has '"state": "canceled"' "job $ID did not end canceled"

req GET /v1/jobs
expect 200 "GET /v1/jobs"
has "\"id\": \"$ID\"" "job list misses $ID"

req POST /v1/jobs '{"design":'
expect 400 "malformed POST /v1/jobs"
has '"error"' "malformed body answered without an error"

req GET /metrics
expect 200 "/metrics"
has '"schema": "dmopt-bench/v1"' "metrics is not a dmopt-bench/v1 report"
has '"serve/jobs_done": 2,*$' "metrics do not count exactly two finished jobs"
has '"serve/jobs_canceled": 1,*$' "metrics do not count exactly one canceled job"
has '"serve/jobs_rejected": 1,*$' "metrics do not count exactly one rejected job"

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "serve-smoke: OK (solve and wafer 200, cancel, list, malformed 400, metrics report, clean shutdown)"
