#pragma once

/**
 * @file
 * Orchestration layer of snoop_analyze: expands the lint targets
 * (explicit files/dirs, or `git diff --name-only` in changed-only
 * mode), lexes each file once, runs the per-file rules
 * (lint/rules.hh) and the IWYU-lite pass, runs the tree passes
 * (layering + include cycles over root/src against
 * tools/lint/layers.txt), relativizes paths against the repo root,
 * checks inline waivers against tools/lint/allowlist.txt, and sorts.
 *
 * The snoop_lint binary is a thin driver over runLint(); tests call
 * it directly against fixture trees.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "lint/report.hh"

namespace snoop::lint {

struct LintOptions {
    /** Repo root: anchors src/ resolution, tools/lint/layers.txt,
     * tools/lint/allowlist.txt, and path relativization. */
    std::string root = ".";

    /** Files or directories to lint (dirs recurse over .hh/.cc). */
    std::vector<std::string> paths;

    /** Lint only files named by `git diff --name-only <changedRef>`
     * instead of `paths`. Tree-pass findings are restricted to the
     * changed set, but the graph itself is still built from all of
     * src/ (a layering edge is a property of the whole tree). */
    bool changedOnly = false;
    std::string changedRef = "HEAD";

    /** Run the layering/cycle passes over root/src. The driver turns
     * this on when any target is a directory or in changed-only
     * mode; single-file fixture runs stay per-file only. */
    bool treePasses = false;

    /** Layers file; empty means root/tools/lint/layers.txt. */
    std::string layersPath;

    /** Marker allowlist; empty means root/tools/lint/allowlist.txt. */
    std::string allowlistPath;

    /** Determinism roster for the fp-determinism pass; empty means
     * root/tools/lint/determinism.txt. */
    std::string rosterPath;
};

struct LintResult {
    /** Findings, sorted by (file, line, rule). */
    std::vector<Finding> findings;
    /** Allowlist entries that matched no marker occurrence (full-tree
     * runs only): removed waivers to delete from allowlist.txt. */
    std::vector<std::string> staleAllowlist;
    /** Environment/usage failures (git unavailable, bad layers
     * file): distinct from findings, exit code 2 territory. */
    std::vector<std::string> errors;

    bool ok() const { return findings.empty() && errors.empty(); }
};

LintResult runLint(const LintOptions &options);

} // namespace snoop::lint
