#!/bin/sh
# Scripted-session smoke test for the snoop_serve daemon.
#
#   run_serve_smoke.sh <path-to-snoop_serve>
#   run_serve_smoke.sh --generate <path-to-snoop_serve>
#
# Drives scripted sessions through the real binary over stdin/stdout and
# asserts on the response lines with grep - no interpreter needed:
#
#  1. a mixed session: cache miss -> exact hit -> a near neighbour
#     that misses and solves cold, a sweep, a rank, a saturation
#     search, a stats snapshot (metrics enabled), and a clean shutdown;
#  2. the same solve session at SNOOP_JOBS=1 and SNOOP_JOBS=8,
#     asserting byte-identical responses (the determinism contract of
#     docs/SERVING.md);
#  3. a SNOOP_FAULT=serve.request session, asserting the injected
#     failure is isolated to its request and the neighbors answer;
#  4. a malformed-input session: bad JSON, unknown op, unknown
#     protocol, non-finite workload value - all structured errors,
#     daemon still exits cleanly on EOF;
#  5. analyze answers at Table 4.1 points, compared byte for byte with
#     the committed transcript tests/serve/fixtures/table41_analyze.jsonl;
#  6. a request line over the daemon's 1 MiB cap, answered with a
#     structured error before the next line is served normally;
#  7. ~150 requests through a 24-entry cache (protocol mix, exact
#     repeats, near neighbours, ranks, sweeps, batches), compared byte
#     for byte with tests/serve/fixtures/evict_responses.jsonl, so
#     eviction order and hit re-touch stay fixed;
#  8. out-of-range --quantum / --max-time-budget / --max-iteration-
#     budget values, each rejected with a message naming the option.
#
# --generate rewrites the two byte goldens (sessions 5 and 7) from the
# given binary instead; run it only from a build whose answers are
# known good, and review the diff.
set -eu

GENERATE=0
if [ "${1:-}" = "--generate" ]; then
    GENERATE=1
    shift
fi
BIN=${1:?usage: run_serve_smoke.sh [--generate] <path-to-snoop_serve>}
FIXTURES="$(dirname "$0")/../tests/serve/fixtures"
GOLDEN="$FIXTURES/table41_analyze.jsonl"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Session 5's requests: Write-Once, Enhancement 1 and Enhancements 1+4
# at the 1%, 5% and 20% sharing levels.
table41_requests() {
    cat <<'EOF'
{"id":1,"op":"analyze","protocol":"WriteOnce","preset":"appendixA1","n":4}
{"id":2,"op":"analyze","protocol":"1","preset":"appendixA5","n":10}
{"id":3,"op":"analyze","protocol":"14","preset":"appendixA20","n":20}
{"id":4,"op":"analyze","protocol":"WriteOnce","preset":"appendixA5","n":100}
EOF
}

# Session 7's daemon: a 24-entry cache that evicts throughout.
evict_session() {
    "$BIN" --cache-capacity=24 <"$FIXTURES/evict_requests.jsonl"
}

if [ "$GENERATE" = 1 ]; then
    table41_requests | "$BIN" >"$GOLDEN"
    evict_session >"$FIXTURES/evict_responses.jsonl"
    echo "run_serve_smoke: rewrote $GOLDEN and evict_responses.jsonl"
    exit 0
fi

fail() {
    echo "run_serve_smoke: FAIL: $1" >&2
    echo "--- response log ---" >&2
    cat "$2" >&2
    exit 1
}

expect() { # expect <file> <line-no> <pattern> <what>
    sed -n "${2}p" "$1" | grep -q "$3" ||
        fail "line $2: expected $4 ($3)" "$1"
}

# --- Session 1: the full operation mix, metrics armed ----------------
OUT="$TMP/session1.out"
SNOOP_METRICS="$TMP/metrics.csv" "$BIN" --jobs=2 >"$OUT" <<'EOF'
{"id":1,"op":"analyze","protocol":"Illinois","preset":"appendixA5","n":12}
{"id":2,"op":"analyze","protocol":"Illinois","preset":"appendixA5","n":12}
{"id":3,"op":"analyze","protocol":"Illinois","preset":"appendixA5","workload":{"hSw":0.501},"n":12}
{"id":4,"op":"sweep","protocol":"Berkeley","preset":"appendixA1","ns":[1,2,4,8]}
{"id":5,"op":"rank","preset":"appendixA20","n":16}
{"id":6,"op":"saturation","protocol":"Illinois","preset":"appendixA20","target":0.9}
{"id":7,"op":"stats"}
{"id":8,"op":"shutdown"}
EOF

[ "$(wc -l <"$OUT")" = 8 ] || fail "expected 8 response lines" "$OUT"
expect "$OUT" 1 '"cached":false' "a cold solve on the first query"
expect "$OUT" 1 '"ok":true' "a success response"
expect "$OUT" 2 '"cached":true' "an exact cache hit on the repeat"
expect "$OUT" 3 '"cached":false' "the neighbour is a miss, not a hit"
expect "$OUT" 3 '"warmStarted":false' "every miss is a cold solve"
expect "$OUT" 4 '"op":"sweep"' "a sweep response"
expect "$OUT" 5 '"ranking":\[' "a rank response"
expect "$OUT" 6 '"found":true' "a saturation point inside the limit"
expect "$OUT" 7 '"serve.hits":{"count":1' "one recorded cache hit"
expect "$OUT" 7 '"serve.misses"' "recorded cache misses"
expect "$OUT" 7 '"serve.cold_iterations"' "recorded solve iterations"
expect "$OUT" 7 '"serve.request_us"' "per-request latency samples"
expect "$OUT" 8 '"shutdown":true' "a shutdown acknowledgment"

# --- Session 2: determinism across thread counts ---------------------
SESSION2='{"id":1,"op":"batch","requests":[{"id":10,"op":"analyze","protocol":"Illinois","preset":"appendixA5","n":8},{"id":11,"op":"analyze","protocol":"Dragon","preset":"appendixA5","n":8},{"id":12,"op":"rank","preset":"appendixA1","n":12}]}
{"id":13,"op":"analyze","protocol":"Illinois","preset":"appendixA5","workload":{"hSw":0.502},"n":8}
{"id":14,"op":"shutdown"}'
echo "$SESSION2" | "$BIN" --jobs=1 >"$TMP/jobs1.out"
echo "$SESSION2" | "$BIN" --jobs=8 >"$TMP/jobs8.out"
cmp -s "$TMP/jobs1.out" "$TMP/jobs8.out" ||
    fail "responses differ between --jobs=1 and --jobs=8" "$TMP/jobs8.out"

# --- Session 3: deterministic fault injection ------------------------
OUT="$TMP/faults.out"
SNOOP_FAULT='serve.request:every=2' "$BIN" --jobs=2 >"$OUT" <<'EOF'
{"id":20,"op":"analyze","protocol":"Illinois","preset":"appendixA5","n":8}
{"id":21,"op":"analyze","protocol":"Berkeley","preset":"appendixA5","n":8}
{"id":22,"op":"shutdown"}
EOF
expect "$OUT" 1 '"code":"injected-fault"' "the armed request (id 20) faulted"
expect "$OUT" 1 '"ok":false' "a structured error response"
expect "$OUT" 2 '"ok":true' "the unarmed neighbor (id 21) still answers"
expect "$OUT" 3 '"shutdown":true' "a clean shutdown after the fault"

# --- Session 4: malformed input never kills the daemon ---------------
OUT="$TMP/garbage.out"
"$BIN" >"$OUT" <<'EOF'
{nope
{"id":30,"op":"bogus"}
{"id":31,"op":"analyze","protocol":"NoSuchProtocol","preset":"appendixA5","n":4}
{"id":32,"op":"analyze","protocol":"Illinois","preset":"appendixA5","workload":{"tau":1e999},"n":4}
{"id":33,"op":"analyze","protocol":"Illinois","preset":"appendixA5","n":4}
EOF
[ "$(wc -l <"$OUT")" = 5 ] || fail "expected 5 response lines" "$OUT"
expect "$OUT" 1 '"ok":false' "bad JSON is an error response"
expect "$OUT" 2 "unknown op" "the unknown op is named"
expect "$OUT" 3 '"code":"unknown-protocol"' "the unknown protocol is typed"
expect "$OUT" 4 '"ok":false' "the non-finite workload value is rejected"
expect "$OUT" 5 '"ok":true' "the daemon still serves after the garbage"

# --- Session 5: golden bytes at Table 4.1 points --------------------
# The encoder's bytes are a format contract (sweep checkpoint checksums
# hash them), so a regex match is not enough.
OUT="$TMP/golden.out"
table41_requests | "$BIN" >"$OUT"
cmp -s "$OUT" "$GOLDEN" ||
    fail "analyze responses differ from $GOLDEN" "$OUT"

# --- Session 6: an oversized request line ----------------------------
# A 2 MiB line is discarded past the cap and answered with an error;
# the daemon then serves the next line as usual.
OUT="$TMP/oversized.out"
awk 'BEGIN {
    pad = "x"
    while (length(pad) <= 1048576) pad = pad pad
    printf "{\"id\":60,\"op\":\"analyze\",\"pad\":\"%s\"}\n", pad
    print "{\"id\":61,\"op\":\"analyze\",\"protocol\":\"Illinois\"," \
          "\"preset\":\"appendixA5\",\"n\":4}"
}' | "$BIN" >"$OUT"
[ "$(wc -l <"$OUT")" = 2 ] || fail "expected 2 response lines" "$OUT"
expect "$OUT" 1 '"code":"invalid-argument"' "the oversized line is an error"
expect "$OUT" 1 'exceeds 1048576 bytes' "the error names the cap"
expect "$OUT" 2 '"id":61,"ok":true' "the next line is served normally"

# --- Session 7: golden bytes through an evicting cache ---------------
# The small cache evicts throughout the session, so each answer's
# "cached" flag pins the eviction order and hit re-touch; the closing
# stats line records the final size and eviction count.
OUT="$TMP/evict_golden.out"
evict_session >"$OUT"
cmp -s "$OUT" "$FIXTURES/evict_responses.jsonl" ||
    fail "responses differ from evict_responses.jsonl" "$OUT"

# --- Session 8: option errors name the option ------------------------
bad_option() { # bad_option <flag> <message>
    if "$BIN" "$1" </dev/null >"$TMP/opt.out" 2>"$TMP/opt.err"; then
        fail "$1 was accepted" "$TMP/opt.err"
    else
        rc=$?
    fi
    [ "$rc" = 1 ] || fail "$1: expected exit 1, got $rc" "$TMP/opt.err"
    grep -q "^snoop_serve: $2\$" "$TMP/opt.err" ||
        fail "$1: expected 'snoop_serve: $2'" "$TMP/opt.err"
}
bad_option --quantum=0 '--quantum must be positive and finite'
bad_option --quantum=-1e-9 '--quantum must be positive and finite'
bad_option --max-time-budget=-1 '--max-time-budget must be finite and >= 0'
bad_option --max-iteration-budget=-5 '--max-iteration-budget must be >= 0'

echo "run_serve_smoke: PASS"
