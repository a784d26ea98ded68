/**
 * @file
 * snoop_lint: mechanical enforcement of this repository's coding
 * conventions and structural invariants. clang-tidy covers generic
 * C++ hazards; this tool covers the rules that are specific to this
 * tree and that reviews keep re-litigating by hand. It is a thin
 * driver over the snoop_analyze library (tools/lint/), which lexes
 * every file (comments, strings, char literals, and raw strings are
 * understood, not regex-approximated) and runs:
 *
 *  R1  pragma-once     every header starts with #pragma once
 *  R2  doxygen-file    every header carries a Doxygen @file block
 *  R3  no-using-std    no `using namespace std` at header scope
 *  R6  no-raw-assert   no raw assert() outside tests/ (use
 *                      SNOOP_ASSERT / SNOOP_REQUIRE, which stay armed
 *                      in release builds)
 *  R7  no-raw-thread   no raw std::thread construction outside
 *                      src/util/parallel.cc (use the ThreadPool /
 *                      parallelFor layer, which owns the determinism
 *                      and shutdown contract)
 *  R9  layering        cross-module #include edges respect the
 *                      module DAG declared in tools/lint/layers.txt
 *                      and form no include cycles
 *  R10 determinism     no wall-clock / ambient-randomness calls
 *                      (std::rand, std::random_device, time(),
 *                      system_clock, ...) outside src/random/ and
 *                      the sanctioned src/observe/ allowlist; a
 *                      deliberate use carries a
 *                      `snoop-lint: determinism-ok` marker
 *  R11 unused-include  a quoted project include whose header
 *                      contributes no referenced name (IWYU-lite);
 *                      side-effect includes carry
 *                      `snoop-lint: include-ok`
 *
 * R4, R5 and R8 are unassigned: the build's
 * -Werror=suggest-attribute=format, the default
 * NonConvergencePolicy::Fatal and the linker prove what they checked.
 * That no library entry can reach fatal() or exit is ctest
 * lint/fatal_link: tools/lint/fatal_link.sh links every public
 * function of src/mva/, src/core/, src/serve/ and util/csv.cc under
 * --gc-sections and rejects any kept caller but the contract
 * handlers.
 *
 * Two token rules guard properties whose path-sensitive halves the
 * compiler holds (see docs/ANALYSIS.md):
 *
 *  T1  fp-determinism  in the bit-identity-critical modules named by
 *                      tools/lint/determinism.txt: no libm
 *                      transcendentals outside the sanctioned
 *                      kernels (mvaExp2), no unordered_ container
 *                      (a lookup-only index is a LookupMap, which
 *                      cannot be iterated), and no std::reduce or
 *                      execution policy in kernel files; waiver
 *                      marker `snoop-lint: fp-ok`
 *  T2  expected-flow   no .value() in src/ outside util/expected.hh:
 *                      library code reaches an Expected through
 *                      SNOOP_TRY / SNOOP_TRY_OR / match(), which
 *                      check it first (a discarded or never-used
 *                      result fails the build: -Werror=unused-result
 *                      and -Werror=unused-variable)
 *
 * Two rules read one file's declarations (lint/parser.hh):
 *
 *  P1  numeric-guard-coverage
 *                      solver boundary functions route results
 *                      through NumericGuard / SNOOP_NUMERIC_CHECK,
 *                      directly or by calling a same-file validator
 *  P2  lockset         every namespace-scope variable and
 *                      function-local static in src/ is const,
 *                      thread_local, or of a self-synchronizing type
 *                      (std::atomic, ..., or Guarded<T>,
 *                      src/util/guarded.hh, whose locking the
 *                      compiler checks); waiver marker
 *                      `snoop-lint: lockset-ok`
 *
 * Every inline `snoop-lint:` waiver in src/ must additionally be
 * registered with a justification in tools/lint/allowlist.txt
 * (rule marker-allowlist); entries whose marker is gone are
 * reported stale. There is no baseline: a finding is fixed or
 * waived at its line.
 *
 * Usage:
 *   snoop_lint [--list-rules] [--root=DIR] [--format=text|sarif]
 *              [--changed-only[=REF]] [--fail-on-stale]
 *              [<file-or-dir>...]
 *
 * --format=sarif writes a SARIF 2.1.0 log to stdout (for GitHub code
 * scanning upload); text findings always go to stderr.
 * --changed-only lints `git diff --name-only REF` (default HEAD)
 * instead of explicit paths. Stale allowlist entries are reported on
 * full-tree runs (as warnings, or as failures under
 * --fail-on-stale, which CI uses to keep the allowlist minimal).
 *
 * Exit status: 0 when clean, 1 when any rule fired (or a stale
 * allowlist entry exists under --fail-on-stale), 2 on usage or
 * environment error.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/engine.hh"
#include "lint/report.hh"

namespace {

namespace fs = std::filesystem;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: snoop_lint [--list-rules] [--root=DIR]\n"
        "                  [--format=text|sarif] [--changed-only[=REF]]\n"
        "                  [--fail-on-stale] [<file-or-dir>...]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace snoop::lint;

    LintOptions opt;
    bool sarif = false;
    bool failOnStale = false;
    std::vector<std::string> paths;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--list-rules") {
            for (const RuleInfo &rule : ruleTable())
                std::printf("%-18s %s\n", rule.id, rule.summary);
            return 0;
        } else if (arg.rfind("--root=", 0) == 0) {
            opt.root = arg.substr(7);
        } else if (arg == "--format=text") {
            sarif = false;
        } else if (arg == "--format=sarif") {
            sarif = true;
        } else if (arg == "--changed-only") {
            opt.changedOnly = true;
        } else if (arg.rfind("--changed-only=", 0) == 0) {
            opt.changedOnly = true;
            opt.changedRef = arg.substr(15);
        } else if (arg == "--fail-on-stale") {
            failOnStale = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "snoop_lint: unknown flag: %s\n",
                         arg.c_str());
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty() && !opt.changedOnly)
        return usage();
    if (!paths.empty() && opt.changedOnly) {
        std::fprintf(stderr, "snoop_lint: --changed-only takes no "
                             "explicit paths\n");
        return usage();
    }
    opt.paths = paths;

    // The tree passes need the whole include graph; they engage for
    // directory targets and diff-driven runs, while a single-file
    // invocation (the fixture suite) stays per-file.
    opt.treePasses = opt.changedOnly;
    for (const std::string &p : paths) {
        if (fs::is_directory(p))
            opt.treePasses = true;
    }

    LintResult result = runLint(opt);

    for (const std::string &err : result.errors)
        std::fprintf(stderr, "snoop_lint: error: %s\n", err.c_str());

    if (sarif) {
        std::fputs(toSarif(result.findings).c_str(), stdout);
    }
    for (const Finding &f : result.findings) {
        std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(),
                     f.line, f.rule.c_str(), f.message.c_str());
    }
    for (const std::string &stale : result.staleAllowlist) {
        std::fprintf(stderr,
                     "snoop_lint: %s: stale allowlist entry "
                     "(marker removed; delete it): %s\n",
                     failOnStale ? "error" : "warning", stale.c_str());
    }
    if (!result.errors.empty())
        return 2;
    if (!result.findings.empty()) {
        std::fprintf(stderr, "snoop_lint: %zu finding(s)\n",
                     result.findings.size());
        return 1;
    }
    if (failOnStale && !result.staleAllowlist.empty())
        return 1;
    return 0;
}
