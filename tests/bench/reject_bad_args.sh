#!/bin/sh
# Every bench program refuses an option it does not take:
#
#   reject_bad_args.sh <binary>...
#
# Runs each binary with --bogus and requires exit status 2, a
# "usage:" line on stderr and nothing on stdout (the program stopped
# before doing any work).
set -u
[ $# -gt 0 ] || { echo "usage: reject_bad_args.sh <binary>..." >&2; exit 2; }

status=0
for bin in "$@"; do
    name=$(basename "$bin")
    out=$("$bin" --bogus 2>/dev/null)
    rc=$?
    err=$("$bin" --bogus 2>&1 >/dev/null)
    if [ "$rc" -ne 2 ]; then
        echo "bench/bad_args: FAIL: $name --bogus exited $rc, not 2" >&2
        status=1
    elif [ -n "$out" ]; then
        echo "bench/bad_args: FAIL: $name --bogus wrote to stdout" >&2
        status=1
    elif ! printf '%s\n' "$err" | grep -q '^usage: '; then
        echo "bench/bad_args: FAIL: $name --bogus printed no usage line" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "bench/bad_args: $# programs reject --bogus"
exit "$status"
