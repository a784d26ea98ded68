#!/bin/sh
# Drives snoop_lint as a ctest: lints the real tree (must be clean,
# including the layering / determinism / unused-include passes, the
# parse rules (lockset, numeric-guard-coverage), the token rules
# (fp-determinism, expected-flow) and marker-allowlist; there is no
# baseline to hide a finding behind),
# verifies on the negative fixtures that every rule
# still fires, verifies the good_* fixtures stay clean, and checks
# the --list-rules snapshot — a linter that silently stopped
# detecting anything would otherwise keep passing forever.
#
# usage: run_lint.sh <snoop_lint-binary> <repo-root> [extra-args...]
#
# Extra args are passed through to the tree-lint invocation, so CI
# can run e.g.:
#   run_lint.sh ./build/tools/snoop_lint . --changed-only=origin/main
#   run_lint.sh ./build/tools/snoop_lint . --format=sarif
set -u

LINT=${1:?usage: run_lint.sh <snoop_lint-binary> <repo-root> [extra-args...]}
ROOT=${2:?usage: run_lint.sh <snoop_lint-binary> <repo-root> [extra-args...]}
shift 2
status=0

echo "== linting the tree =="
if [ "$#" -gt 0 ] && [ "${1#--changed-only}" != "$1" ]; then
    # Diff-driven mode: snoop_lint computes the file list itself.
    if ! "$LINT" --root="$ROOT" "$@"; then
        echo "run_lint: changed files have convention violations" >&2
        status=1
    fi
elif ! "$LINT" --root="$ROOT" "$@" \
        "$ROOT/src" "$ROOT/tools" "$ROOT/bench" "$ROOT/examples"; then
    echo "run_lint: tree has convention violations" >&2
    status=1
fi

echo "== negative fixtures (each must fail) =="
for fixture in "$ROOT"/tests/lint/fixtures/bad_*; do
    [ -f "$fixture" ] || continue
    # Expected rule name is encoded in the fixture file name:
    # bad_<rule-with-underscores>[__variant].<ext> (the double
    # underscore separates an optional variant discriminator, so one
    # rule can have several fixtures)
    rule=$(basename "$fixture" |
               sed 's/^bad_//; s/\.[^.]*$//; s/__.*//; s/_/-/g')
    out=$("$LINT" "$fixture" 2>&1)
    code=$?
    if [ "$code" -ne 1 ]; then
        echo "run_lint: $fixture: expected exit 1, got $code" >&2
        status=1
    elif ! printf '%s\n' "$out" | grep -q "\[$rule\]"; then
        echo "run_lint: $fixture: rule [$rule] did not fire; got:" >&2
        printf '%s\n' "$out" >&2
        status=1
    else
        echo "ok: $fixture fires [$rule]"
    fi
done

echo "== clean fixtures (each must pass) =="
for good in "$ROOT"/tests/lint/fixtures/good_*; do
    [ -f "$good" ] || continue
    if ! "$LINT" "$good" >/dev/null 2>&1; then
        echo "run_lint: $good: clean fixture reported findings" >&2
        status=1
    else
        echo "ok: $good is clean"
    fi
done

echo "== SARIF determinism across SNOOP_JOBS =="
# GitHub code scanning diffs uploads byte-wise; the log must not
# depend on worker scheduling. Lint src/ twice at different job
# counts and demand identical bytes.
sarif_a=$(mktemp) && sarif_b=$(mktemp)
SNOOP_JOBS=1 "$LINT" --root="$ROOT" --format=sarif "$ROOT/src" \
    > "$sarif_a" 2>/dev/null
SNOOP_JOBS=8 "$LINT" --root="$ROOT" --format=sarif "$ROOT/src" \
    > "$sarif_b" 2>/dev/null
if cmp -s "$sarif_a" "$sarif_b"; then
    echo "ok: SARIF output is byte-identical at SNOOP_JOBS=1 and 8"
else
    echo "run_lint: SARIF output differs across SNOOP_JOBS" >&2
    diff "$sarif_a" "$sarif_b" | head -20 >&2
    status=1
fi

echo "== SARIF schema shape =="
if command -v python3 >/dev/null 2>&1; then
    if python3 - "$sarif_a" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    log = json.load(f)
assert log["version"] == "2.1.0", "version must be 2.1.0"
assert "sarif-schema-2.1.0" in log["$schema"], "wrong $schema"
runs = log["runs"]
assert len(runs) == 1, "exactly one run"
driver = runs[0]["tool"]["driver"]
assert driver["name"] == "snoop_lint"
ids = [r["id"] for r in driver["rules"]]
assert len(ids) == len(set(ids)), "duplicate rule ids"
for rule in driver["rules"]:
    assert rule["shortDescription"]["text"], rule["id"]
    assert rule["defaultConfiguration"]["level"] == "error"
for result in runs[0]["results"]:
    assert result["ruleId"] in ids, result
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"]
    assert loc["region"]["startLine"] >= 1
print("ok: SARIF log parses and carries the required keys")
PYEOF
    then
        :
    else
        echo "run_lint: SARIF schema-shape check failed" >&2
        status=1
    fi
else
    echo "skip: python3 unavailable"
fi
rm -f "$sarif_a" "$sarif_b"

echo "== --list-rules snapshot =="
if "$LINT" --list-rules |
        diff - "$ROOT/tests/lint/list_rules.snapshot" >/dev/null 2>&1; then
    echo "ok: --list-rules matches tests/lint/list_rules.snapshot"
else
    echo "run_lint: --list-rules drifted from the snapshot;" \
         "regenerate with: snoop_lint --list-rules >" \
         "tests/lint/list_rules.snapshot" >&2
    status=1
fi

exit $status
