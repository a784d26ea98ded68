#pragma once

/**
 * @file
 * Reporting side of snoop_analyze: the Finding record, the rule
 * registry (one row per rule, shared by `--list-rules` and the SARIF
 * rules array), SARIF 2.1.0 serialization for GitHub code scanning,
 * and the allowlist that registers every inline waiver marker with
 * its justification.
 */

#include <cstddef>
#include <string>
#include <vector>

namespace snoop::lint {

/** One rule violation. */
struct Finding {
    std::string file; //!< repo-relative where possible, '/'-separated
    size_t line;      //!< 1-based; 0 for whole-file findings
    std::string rule;
    std::string message;
};

/** Registry row: stable id plus the one-line summary shown by
 * `--list-rules` and exported as the SARIF rule description. */
struct RuleInfo {
    const char *id;
    const char *summary;
};

/** All rules, in the order they are listed and exported. */
const std::vector<RuleInfo> &ruleTable();

/** Render findings as a SARIF 2.1.0 log (one run, driver
 * "snoop_lint"). Deterministic: no timestamps, no absolute paths. */
std::string toSarif(const std::vector<Finding> &findings);

/**
 * Marker allowlist: the registry of inline `// snoop-lint: <marker>`
 * waivers in src/. Entries take the form
 *
 *     <repo-relative-path>:<marker>   # justification
 *
 * and the justification is REQUIRED — the whole point of the file is
 * that every waiver carries its why in one reviewable place
 * (tools/lint/allowlist.txt) instead of scattered comments. A marker
 * used in src/ without a matching entry raises the marker-allowlist
 * rule; an entry matching no marker is reported stale. It is the
 * only waiver registry: a finding is fixed or waived at its line,
 * never suppressed wholesale.
 */
class Allowlist
{
  public:
    /** Parse allowlist text. Malformed or justification-less lines
     * are reported in `errors()`. */
    static Allowlist parse(const std::string &text);

    /** Load from a file; a missing file yields an empty allowlist. */
    static Allowlist load(const std::string &path);

    /** True when (file, marker) matches an entry; the entry is
     * marked used for stale detection. */
    bool matches(const std::string &file,
                 const std::string &marker) const;

    /** Entries that matched no marker occurrence: removed waivers
     * whose registration should now be deleted. */
    std::vector<std::string> staleEntries() const;

    const std::vector<std::string> &errors() const { return errors_; }
    size_t size() const { return entries_.size(); }

  private:
    struct Entry {
        std::string file;
        std::string marker;
        mutable bool used = false;
    };
    std::vector<Entry> entries_;
    std::vector<std::string> errors_;
};

} // namespace snoop::lint
