#pragma once

/**
 * @file
 * Per-file convention rules of snoop_analyze: the header, assert and
 * thread rules R1-R3, R6 and R7, expressed over the
 * lexer's stripped code view (tools/lint/lexer.hh) so comments,
 * string literals, char literals, and raw strings can neither cause
 * false positives nor mask the rest of a line — plus the determinism
 * pass (R10) that protects the bit-identity contract: no wall-clock
 * or ambient-randomness calls outside src/random/ and the sanctioned
 * src/observe/ allowlist — two token rules whose path-sensitive
 * halves the compiler holds, and two rules over one file's parse
 * (lint/parser.hh):
 *
 *  - expected-flow: no `.value(` token in src/ outside
 *    util/expected.hh. Library code reaches an Expected's value only
 *    through SNOOP_TRY / SNOOP_TRY_OR / match(), which check it
 *    first; a discarded or bound-but-unused Expected is a build error
 *    ([[nodiscard, gnu::warn_unused]] with -Werror=unused-result and
 *    -Werror=unused-variable).
 *
 *  - fp-determinism: inside the bit-identity-critical modules named
 *    by tools/lint/determinism.txt, no libm transcendental call
 *    outside the sanctioned deterministic kernels (mvaExp2), no
 *    `unordered_` identifier (hash order is not part of the
 *    bit-identity contract; an index that is only looked up is a
 *    LookupMap, util/lookup_map.hh, which cannot be iterated), and in
 *    kernel files no std::reduce / execution policy (unspecified
 *    accumulation order). Per-line opt-out: `// snoop-lint: fp-ok`.
 *
 *  - lockset: every namespace-scope variable and function-local
 *    static in src/ is const, thread_local, or of a type that
 *    synchronizes itself (std::atomic, std::mutex, ..., Guarded<T>).
 *    Per-line opt-out: `// snoop-lint: lockset-ok`.
 *
 *  - numeric-guard-coverage: the solver boundary functions (the
 *    kBoundaries roster in rules.cc) route results through
 *    NumericGuard / SNOOP_NUMERIC_CHECK, directly or by calling a
 *    same-file definition that guards itself or returns SolveError.
 *
 * Which rules apply to a file is decided from its path (headers get
 * the header rules, tests/ is exempt from the code rules, fixtures
 * opt back in). R4, R5 and R8 are unassigned: format attributes are
 * the compiler's (-Werror=suggest-attribute=format), an unconverged
 * solve is an error under the default NonConvergencePolicy::Fatal,
 * and no library entry reaching fatal() is the linker's to prove
 * (ctest lint/fatal_link, tools/lint/fatal_link.sh).
 */

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/report.hh"

namespace snoop::lint {

/**
 * The bit-identity roster parsed from tools/lint/determinism.txt.
 * Directives (one per line, '#' comments):
 *
 *     module <path-prefix>   # files under the prefix are in scope
 *     kernel <path>          # in scope + accumulation-order checks
 *     sanctioned <function>  # its body may use libm (it IS the
 *                            # deterministic replacement)
 */
struct DeterminismRoster {
    std::vector<std::string> modules;
    std::vector<std::string> kernels;
    std::set<std::string> sanctioned;

    /** True when @p file is under any module prefix or is a kernel. */
    bool memberFile(const std::string &file) const;
    /** True when @p file is listed as a kernel. */
    bool kernelFile(const std::string &file) const;

    /** Parse @p path. A missing file yields an empty roster (fixture
     * runs have no roster); a malformed directive sets @p error. */
    static DeterminismRoster load(const std::string &path,
                                  std::string *error);
};

/**
 * Run every applicable per-file rule over one lexed file.
 *
 * @param display   repo-relative path: used in emitted findings and
 *                  for src/ and roster membership
 * @param original  path used for rule-applicability decisions
 *                  (tests/, fixtures/, src/random/);
 *                  usually the path as given on the command line
 * @param lexed     the lexed file
 * @param roster    scope of fp-determinism
 * @param findings  appended in rule order
 */
void runFileRules(const std::string &display, const std::string &original,
                  const LexedFile &lexed, const DeterminismRoster &roster,
                  std::vector<Finding> &findings);

/** True for paths under tests/ that are exempt from the code rules.
 * The negative fixtures under tests/lint/fixtures/ are NOT exempt,
 * or the code-side rules could never fire on them. */
bool isTestExempt(const std::string &path);

} // namespace snoop::lint
