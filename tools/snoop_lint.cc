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
 * R8 is unassigned: fatal() on solver paths is S1's, proven over the
 * call graph. R4 and R5 are unassigned too: the build's
 * -Werror=suggest-attribute=format and the default
 * NonConvergencePolicy::Fatal prove what they checked.
 *
 * On top of the per-file and include-graph rules, two semantic
 * passes run over a parsed cross-TU view (declaration parser, symbol
 * index, call graph — see docs/ANALYSIS.md):
 *
 *  S1  fatal-reachability
 *                      no fatal()/abort()/exit() transitively
 *                      reachable from a solver entry point
 *                      (every public function of a solver file,
 *                      every try* in src/core/; report failures as
 *                      SolveError /
 *                      SolveException, util/expected.hh); the
 *                      finding carries the full witness chain
 *                      (entry -> ... -> fatal()); a deliberate
 *                      boundary fatal carries a
 *                      `snoop-lint: fatal-ok` marker
 *  S2  numeric-guard-coverage
 *                      solver boundary functions route results
 *                      through NumericGuard / SNOOP_NUMERIC_CHECK,
 *                      directly or via a same-file validator
 *
 * And three flow-sensitive passes over the statement-level CFG and
 * worklist dataflow solver (tools/lint/cfg.hh, dataflow.hh,
 * flow.hh):
 *
 *  F1  fp-determinism  in the bit-identity-critical modules named by
 *                      tools/lint/determinism.txt: no libm
 *                      transcendentals outside the sanctioned
 *                      kernels (mvaExp2), no unordered-container
 *                      iteration on a path reaching output, no
 *                      accumulation-order hazards in kernel files;
 *                      waiver marker `snoop-lint: fp-ok`
 *  F2  lockset         mutable state reachable from parallelFor
 *                      workers carries SNOOP_GUARDED_BY(m)
 *                      (src/util/annotations.hh), and must-hold
 *                      lockset analysis flags its accesses on CFG
 *                      paths where m is provably not held; waiver
 *                      marker `snoop-lint: lockset-ok`
 *  F3  expected-flow   path-sensitive unchecked-Expected: a result
 *                      checked on one branch but read via .value()
 *                      on another is flagged with the offending
 *                      path, as are .value() on a call temporary and
 *                      a bound result never consulted (a discarded
 *                      one fails the build: -Werror=unused-result);
 *                      waiver marker `snoop-lint: expected-ok`
 *
 * Every inline `snoop-lint:` waiver in src/ must additionally be
 * registered with a justification in tools/lint/allowlist.txt
 * (rule marker-allowlist); entries whose marker is gone are
 * reported stale, mirroring baseline.txt.
 *
 * Usage:
 *   snoop_lint [--list-rules] [--root=DIR] [--format=text|sarif]
 *              [--changed-only[=REF]] [--baseline=FILE]
 *              [--no-baseline] [--fail-on-stale] [<file-or-dir>...]
 *
 * --format=sarif writes a SARIF 2.1.0 log to stdout (for GitHub code
 * scanning upload); text findings always go to stderr.
 * --changed-only lints `git diff --name-only REF` (default HEAD)
 * instead of explicit paths. Findings listed in
 * tools/lint/baseline.txt are suppressed so a new rule can land
 * without a flag day; stale baseline entries are reported on
 * full-tree runs (as warnings, or as failures under
 * --fail-on-stale, which CI uses to keep the baseline shrinking).
 *
 * Exit status: 0 when clean, 1 when any rule fired (or a stale
 * baseline entry exists under --fail-on-stale), 2 on usage or
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
        "                  [--baseline=FILE] [--no-baseline]\n"
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
        } else if (arg.rfind("--baseline=", 0) == 0) {
            opt.baselinePath = arg.substr(11);
        } else if (arg == "--no-baseline") {
            opt.useBaseline = false;
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
    for (const std::string &stale : result.staleBaseline) {
        std::fprintf(stderr,
                     "snoop_lint: %s: stale baseline entry "
                     "(violation fixed; delete it): %s\n",
                     failOnStale ? "error" : "warning", stale.c_str());
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
        std::fprintf(stderr, "snoop_lint: %zu finding(s), %zu "
                             "baselined\n",
                     result.findings.size(), result.suppressed);
        return 1;
    }
    if (failOnStale &&
        !(result.staleBaseline.empty() && result.staleAllowlist.empty()))
        return 1;
    return 0;
}
