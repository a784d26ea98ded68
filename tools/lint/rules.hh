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
 * src/observe/ allowlist.
 *
 * Which rules apply to a file is decided from its path (headers get
 * the header rules, tests/ is exempt from the code rules, fixtures
 * opt back in). R8 is unassigned: fatal() on solver paths is the
 * call-graph pass fatal-reachability's (lint/semantic.hh). So are R4
 * and R5: format attributes are the compiler's
 * (-Werror=suggest-attribute=format), and an unconverged solve is an
 * error under the default NonConvergencePolicy::Fatal.
 */

#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/report.hh"

namespace snoop::lint {

/**
 * Run every applicable per-file rule over one lexed file.
 *
 * @param display   path string used in emitted findings
 * @param original  path used for rule-applicability decisions
 *                  (tests/, fixtures/, src/random/);
 *                  usually the path as given on the command line
 * @param lexed     the lexed file
 * @param findings  appended in rule order
 */
void runFileRules(const std::string &display, const std::string &original,
                  const LexedFile &lexed, std::vector<Finding> &findings);

/** True for paths under tests/ that are exempt from the code rules.
 * The negative fixtures under tests/lint/fixtures/ are NOT exempt,
 * or the code-side rules could never fire on them. */
bool isTestExempt(const std::string &path);

} // namespace snoop::lint
