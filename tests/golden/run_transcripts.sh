#!/usr/bin/env bash
# Golden byte test for the stdout of whole programs.
#
#   run_transcripts.sh <golden-dir> <workdir> <binary>...
#   run_transcripts.sh --generate <golden-dir> <workdir> <binary>...
#
# Runs each binary without arguments at SNOOP_JOBS=1 and 4 and
# cmp's its stdout against <golden-dir>/<binary-name>.out. A binary
# that exits non-zero fails the test; stderr is dropped. --generate
# rewrites the goldens from the SNOOP_JOBS=1 runs instead. Used for the
# bench report programs, tools/calibrate and examples/sensitivity_study.
set -u
. "$(dirname "$0")/golden_lib.sh"

GENERATE=0
if [ "${1:-}" = "--generate" ]; then
    GENERATE=1
    shift
fi
USAGE="usage: run_transcripts.sh [--generate] <golden-dir> <workdir> <binary>..."
GOLDEN=${1:?$USAGE}
WORKDIR=${2:?$USAGE}
shift 2
BINARIES=("$@")
[ ${#BINARIES[@]} -gt 0 ] || { echo "$USAGE" >&2; exit 2; }

mkdir -p "$WORKDIR"
fail() { echo "golden/$(basename "$GOLDEN"): FAIL: $*" >&2; exit 1; }

# run <binary> <jobs>: stdout lands in $WORKDIR/<name>.j<jobs>.out
run() {
    local name out
    name=$(basename "$1")
    out="$WORKDIR/$name.j$2.out"
    env -u SNOOP_FAULT -u SNOOP_TRACE -u SNOOP_METRICS SNOOP_JOBS="$2" \
        "$1" > "$out" 2>/dev/null ||
        fail "$name at SNOOP_JOBS=$2 exited non-zero"
}

count=0
for bin in "${BINARIES[@]}"; do
    name=$(basename "$bin")
    if [ "$GENERATE" -eq 1 ]; then
        mkdir -p "$GOLDEN"
        run "$bin" 1
        golden_write "$GOLDEN/$name.out" "$name" "$WORKDIR/$name.j1.out"
        continue
    fi
    for jobs in 1 4; do
        run "$bin" "$jobs"
        golden_cmp "$GOLDEN/$name.out" "$WORKDIR/$name.j$jobs.out" ||
            fail "$name at SNOOP_JOBS=$jobs differs from $GOLDEN/$name.out"
        count=$((count + 1))
    done
done
if [ "$GENERATE" -eq 1 ]; then
    echo "golden/$(basename "$GOLDEN"): goldens written to $GOLDEN"
else
    echo "golden/$(basename "$GOLDEN"): $count outputs match"
fi
