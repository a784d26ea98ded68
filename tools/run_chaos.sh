#!/usr/bin/env bash
# Kill/resume chaos harness for the crash-safe sharded sweep
# (docs/SHARDING.md).
#
#   run_chaos.sh <design_space-binary> <snoop_merge-binary> <workdir>
#
# Proves, against real SIGKILLs, the two durability claims the
# checkpoint layer makes:
#
#  1. Resume equivalence: a sweep killed at EVERY checkpoint boundary
#     (SNOOP_FAULT=sweep.checkpoint:every=1 + --chaos-kill) and
#     resumed until it completes produces byte-identical CSV output to
#     an uninterrupted run, at SNOOP_JOBS=1 and 8.
#  2. Merge round-trip: four shards, each killed at least once and
#     resumed, merged by snoop_merge, give byte-identical value-grid
#     CSV, per-cell CSV, and winners to the single-process golden run.
#
#  3. Torn appends: a kill that leaves half a cell line (no newline)
#     at the end of the checkpoint is recovered from - the resume
#     drops the torn tail and still matches golden at SNOOP_JOBS=1
#     and 8.
#
# Plus the rejection paths: an incomplete shard, a duplicated shard,
# a missing shard, and an incomplete shard with a torn tail must each
# fail the merge loudly.
set -u

DESIGN_SPACE=${1:?usage: run_chaos.sh <design_space> <snoop_merge> <workdir>}
SNOOP_MERGE=${2:?usage: run_chaos.sh <design_space> <snoop_merge> <workdir>}
WORKDIR=${3:?usage: run_chaos.sh <design_space> <snoop_merge> <workdir>}

mkdir -p "$WORKDIR"
rm -f "$WORKDIR"/*.ckpt "$WORKDIR"/*.csv "$WORKDIR"/*.out

# The Table 4-1-sized grid: 7 swept h_sw values x all 16 mod
# combinations = 112 cells.
SWEEP_ARGS="--param=h_sw --from=0.1 --to=0.7 --steps=7 --n=8 \
    --sharing=5 --checkpoint-every=8"
fail() { echo "run_chaos: FAIL: $*" >&2; exit 1; }
note() { echo "== $*"; }

# Winners lines from a captured stdout (the crossover verdict both the
# golden run and the merge print); the trailing "wrote <path>" lines
# name run-specific files and are not part of the comparison.
winners_of() { sed -n '/^winners by/,$p' "$1" | grep -v '^wrote '; }

note "golden: uninterrupted single-process run (SNOOP_JOBS=1)"
SNOOP_JOBS=1 "$DESIGN_SPACE" $SWEEP_ARGS \
    --csv="$WORKDIR/golden.csv" --cell-csv="$WORKDIR/golden_cells.csv" \
    > "$WORKDIR/golden.out" || fail "golden run failed"

note "golden determinism: SNOOP_JOBS=8 run is byte-identical"
SNOOP_JOBS=8 "$DESIGN_SPACE" $SWEEP_ARGS \
    --csv="$WORKDIR/j8.csv" --cell-csv="$WORKDIR/j8_cells.csv" \
    > "$WORKDIR/j8.out" || fail "jobs=8 run failed"
cmp -s "$WORKDIR/golden.csv" "$WORKDIR/j8.csv" \
    || fail "CSV differs between SNOOP_JOBS=1 and 8"
cmp -s "$WORKDIR/golden_cells.csv" "$WORKDIR/j8_cells.csv" \
    || fail "cell CSV differs between SNOOP_JOBS=1 and 8"

# Append the first half of the checkpoint's last cell line with no
# newline: the tail a crash in the middle of an append leaves behind.
tear_tail() {
    local last
    last=$(tail -n 1 "$1")
    printf '%s' "${last:0:$((${#last} / 2))}" >> "$1"
}

# Run one checkpointed sweep to completion, SIGKILLing it at every
# checkpoint boundary until the final resume has nothing left to do.
# With TEAR_TAIL=1 every kill also leaves a torn append (tear_tail).
# $1: jobs, $2: checkpoint path, $3: output prefix, $4...: extra args
TEAR_TAIL=0
kill_resume_loop() {
    local jobs=$1 ckpt=$2 prefix=$3; shift 3
    local kills=0 attempts=0
    while :; do
        attempts=$((attempts + 1))
        [ "$attempts" -gt 50 ] && fail "$prefix: no progress after 50 resumes"
        # The inner subshell keeps bash's "Killed" job notice out of
        # the harness output (the trailing `exit $?` stops bash from
        # exec-optimizing the subshell away); the program's own
        # streams still land in $prefix.out / $prefix.err.
        ( SNOOP_JOBS=$jobs SNOOP_FAULT=sweep.checkpoint:every=1 \
            "$DESIGN_SPACE" $SWEEP_ARGS --chaos-kill \
            --checkpoint="$ckpt" \
            --csv="$prefix.csv" --cell-csv="$prefix""_cells.csv" \
            "$@" > "$prefix.out" 2> "$prefix.err"
          exit $? ) 2>/dev/null
        local rc=$?
        if [ "$rc" -eq 0 ]; then
            break
        elif [ "$rc" -eq 137 ]; then
            kills=$((kills + 1)) # SIGKILL at a checkpoint boundary
            [ "$TEAR_TAIL" -eq 1 ] && tear_tail "$ckpt"
        else
            cat "$prefix.err" >&2
            fail "$prefix: unexpected exit code $rc"
        fi
    done
    [ "$kills" -ge 1 ] || fail "$prefix: the chaos fault never killed the run"
    echo "   $prefix: survived $kills SIGKILLs in $attempts runs"
}

note "resume equivalence: unsharded run killed at every boundary"
for jobs in 1 8; do
    rm -f "$WORKDIR/whole.ckpt"
    kill_resume_loop "$jobs" "$WORKDIR/whole.ckpt" "$WORKDIR/whole_j$jobs"
    cmp -s "$WORKDIR/golden.csv" "$WORKDIR/whole_j$jobs.csv" \
        || fail "resumed CSV differs from golden at SNOOP_JOBS=$jobs"
    cmp -s "$WORKDIR/golden_cells.csv" "$WORKDIR/whole_j${jobs}_cells.csv" \
        || fail "resumed cell CSV differs from golden at SNOOP_JOBS=$jobs"
    winners_of "$WORKDIR/whole_j$jobs.out" > "$WORKDIR/whole_j$jobs.win"
    winners_of "$WORKDIR/golden.out" | cmp -s - "$WORKDIR/whole_j$jobs.win" \
        || fail "resumed winners differ from golden at SNOOP_JOBS=$jobs"
done

note "torn appends: every kill also leaves half a cell line behind"
TEAR_TAIL=1
for jobs in 1 8; do
    rm -f "$WORKDIR/torn.ckpt"
    kill_resume_loop "$jobs" "$WORKDIR/torn.ckpt" "$WORKDIR/torn_j$jobs"
    grep -q "dropped a torn" "$WORKDIR/torn_j$jobs.err" \
        || fail "resume at SNOOP_JOBS=$jobs did not report the torn tail"
    cmp -s "$WORKDIR/golden.csv" "$WORKDIR/torn_j$jobs.csv" \
        || fail "torn-tail resume CSV differs from golden at SNOOP_JOBS=$jobs"
    cmp -s "$WORKDIR/golden_cells.csv" "$WORKDIR/torn_j${jobs}_cells.csv" \
        || fail "torn-tail resume cell CSV differs from golden at SNOOP_JOBS=$jobs"
    winners_of "$WORKDIR/torn_j$jobs.out" > "$WORKDIR/torn_j$jobs.win"
    winners_of "$WORKDIR/golden.out" | cmp -s - "$WORKDIR/torn_j$jobs.win" \
        || fail "torn-tail resume winners differ from golden at SNOOP_JOBS=$jobs"
done
TEAR_TAIL=0

note "sharded chaos: 4 shards, each SIGKILLed at least once, then merged"
for jobs in 1 8; do
    rm -f "$WORKDIR"/shard*.ckpt
    for i in 0 1 2 3; do
        kill_resume_loop "$jobs" "$WORKDIR/shard$i.ckpt" \
            "$WORKDIR/shard${i}_j$jobs" --shard=$i/4
    done
    # Shard concatenation (in shard order) is the unsharded cell CSV.
    cat "$WORKDIR"/shard0_j${jobs}_cells.csv \
        "$WORKDIR"/shard1_j${jobs}_cells.csv \
        "$WORKDIR"/shard2_j${jobs}_cells.csv \
        "$WORKDIR"/shard3_j${jobs}_cells.csv \
        | cmp -s - "$WORKDIR/golden_cells.csv" \
        || fail "shard cell-CSV concatenation differs at SNOOP_JOBS=$jobs"
    "$SNOOP_MERGE" --csv="$WORKDIR/merged.csv" \
        --cell-csv="$WORKDIR/merged_cells.csv" \
        "$WORKDIR"/shard0.ckpt "$WORKDIR"/shard1.ckpt \
        "$WORKDIR"/shard2.ckpt "$WORKDIR"/shard3.ckpt \
        > "$WORKDIR/merged.out" || fail "merge failed at SNOOP_JOBS=$jobs"
    cmp -s "$WORKDIR/golden.csv" "$WORKDIR/merged.csv" \
        || fail "merged CSV differs from golden at SNOOP_JOBS=$jobs"
    cmp -s "$WORKDIR/golden_cells.csv" "$WORKDIR/merged_cells.csv" \
        || fail "merged cell CSV differs from golden at SNOOP_JOBS=$jobs"
    winners_of "$WORKDIR/merged.out" > "$WORKDIR/merged.win"
    winners_of "$WORKDIR/golden.out" | cmp -s - "$WORKDIR/merged.win" \
        || fail "merged winners differ from golden at SNOOP_JOBS=$jobs"
    echo "   merge round-trip byte-identical at SNOOP_JOBS=$jobs"
done

note "rejection: merging a duplicate shard must fail"
"$SNOOP_MERGE" "$WORKDIR"/shard0.ckpt "$WORKDIR"/shard0.ckpt \
    > /dev/null 2> "$WORKDIR/dup.err" \
    && fail "duplicate-shard merge was accepted"
grep -q "duplicates shard" "$WORKDIR/dup.err" \
    || fail "duplicate-shard merge died without naming the overlap"

note "rejection: merging with a missing shard must fail"
"$SNOOP_MERGE" "$WORKDIR"/shard0.ckpt "$WORKDIR"/shard1.ckpt \
    "$WORKDIR"/shard2.ckpt > /dev/null 2> "$WORKDIR/missing.err" \
    && fail "incomplete merge was accepted"
grep -q "missing from the arguments" "$WORKDIR/missing.err" \
    || fail "incomplete merge died without naming the missing shard"

note "rejection: an interrupted, never-resumed shard must fail the merge"
rm -f "$WORKDIR/partial.ckpt"
( SNOOP_FAULT=sweep.checkpoint:every=1 \
    "$DESIGN_SPACE" $SWEEP_ARGS --chaos-kill --shard=0/4 \
    --checkpoint="$WORKDIR/partial.ckpt" > /dev/null 2>&1
  exit $? ) 2>/dev/null
[ $? -eq 137 ] || fail "partial-shard setup run was not killed"
"$SNOOP_MERGE" "$WORKDIR/partial.ckpt" "$WORKDIR"/shard1.ckpt \
    "$WORKDIR"/shard2.ckpt "$WORKDIR"/shard3.ckpt \
    > /dev/null 2> "$WORKDIR/partial.err" \
    && fail "merge of an incomplete shard was accepted"
grep -q "never resumed to completion" "$WORKDIR/partial.err" \
    || fail "incomplete-shard merge died without saying why"

note "rejection: an interrupted shard with a torn tail must fail the merge"
tear_tail "$WORKDIR/partial.ckpt"
"$SNOOP_MERGE" "$WORKDIR/partial.ckpt" "$WORKDIR"/shard1.ckpt \
    "$WORKDIR"/shard2.ckpt "$WORKDIR"/shard3.ckpt \
    > /dev/null 2> "$WORKDIR/torn.err" \
    && fail "merge of a torn, incomplete shard was accepted"
grep -q "never resumed to completion" "$WORKDIR/torn.err" \
    || fail "torn-shard merge died without saying why"

echo "run_chaos: all kill/resume and merge round-trips byte-identical"
