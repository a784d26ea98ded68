#!/usr/bin/env bash
# Golden byte test for design_space's sweep-mode outputs.
#
#   run_design_space_sweep.sh <design_space-binary> <golden-dir> <workdir>
#   run_design_space_sweep.sh --generate <design_space-binary> <golden-dir> <workdir>
#
# Runs three small sweeps over all 16 protocols at SNOOP_JOBS=1 and 4
# and cmp's stdout, --csv and --cell-csv against
# <golden-dir>/<case>.{out,csv,cells.csv}:
#   clean    an h_sw sweep with every cell solved;
#   fault    the same sweep under SNOOP_FAULT=sweep.cell:every=7, so
#            em dash table cells, "nan" CSV cells, the errors column
#            and the failure summary appear;
#   invalid  an h_sw sweep whose last value is not a probability, so
#            admission errors (whose text needs CSV quoting) sit
#            beside solved cells.
# The "wrote <path>" lines name run-specific files and are dropped
# from stdout.
#
# Every golden file starts with one '#' header line naming the command
# and the toolchain that produced it; the comparison skips that line
# (golden_lib.sh, shared with run_transcripts.sh). --generate rewrites
# the goldens from the given binary (SNOOP_JOBS=1).
set -u
. "$(dirname "$0")/golden_lib.sh"

GENERATE=0
if [ "${1:-}" = "--generate" ]; then
    GENERATE=1
    shift
fi
USAGE="usage: run_design_space_sweep.sh [--generate] <design_space> <golden-dir> <workdir>"
DESIGN_SPACE=${1:?$USAGE}
GOLDEN=${2:?$USAGE}
WORKDIR=${3:?$USAGE}

CASES="clean fault invalid"
case_args() {
    local base="--param=h_sw --n=8 --sharing=5"
    case $1 in
      invalid) echo "$base --from=0.6 --to=1.2 --steps=4" ;;
      *) echo "$base --from=0 --to=0.9 --steps=7" ;;
    esac
}
case_fault() { [ "$1" != fault ] || echo "sweep.cell:every=7"; }

mkdir -p "$WORKDIR"
fail() { echo "golden/design_space_sweep: FAIL: $*" >&2; exit 1; }

# run <case> <jobs>: outputs land in $WORKDIR/<case>.j<jobs>.*
run() {
    local name=$1 jobs=$2 out="$WORKDIR/$1.j$2" fault
    fault=$(case_fault "$name")
    rm -f "$out".out "$out".csv "$out".cells.csv
    env -u SNOOP_FAULT SNOOP_JOBS="$jobs" ${fault:+SNOOP_FAULT="$fault"} \
        "$DESIGN_SPACE" $(case_args "$name") --csv="$out.csv" \
        --cell-csv="$out.cells.csv" 2>/dev/null |
        grep -v '^wrote ' > "$out.out"
    [ "${PIPESTATUS[0]}" -eq 0 ] || fail "$name run at SNOOP_JOBS=$jobs exited non-zero"
}

if [ "$GENERATE" -eq 1 ]; then
    mkdir -p "$GOLDEN"
    for name in $CASES; do
        run "$name" 1
        fault=$(case_fault "$name")
        for ext in out csv cells.csv; do
            golden_write "$GOLDEN/$name.$ext" \
                "design_space $(case_args "$name")${fault:+ with SNOOP_FAULT=$fault}" \
                "$WORKDIR/$name.j1.$ext"
        done
    done
    echo "golden/design_space_sweep: goldens written to $GOLDEN"
    exit 0
fi

for name in $CASES; do
    for jobs in 1 4; do
        run "$name" "$jobs"
        for ext in out csv cells.csv; do
            golden_cmp "$GOLDEN/$name.$ext" "$WORKDIR/$name.j$jobs.$ext" ||
                fail "$name $ext at SNOOP_JOBS=$jobs differs from $GOLDEN/$name.$ext"
        done
    done
done
echo "golden/design_space_sweep: 18 outputs match"
