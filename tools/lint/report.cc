#include "lint/report.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace snoop::lint {

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> kRules = {
        {"pragma-once",
         "every header starts with #pragma once on line 1"},
        {"doxygen-file", "every header carries a Doxygen @file block"},
        {"no-using-std",
         "no 'using namespace std' at header scope"},
        {"no-raw-assert",
         "no raw assert() outside tests/ (use SNOOP_ASSERT / "
         "SNOOP_REQUIRE, which stay armed in release builds)"},
        {"no-raw-thread",
         "no raw std::thread outside src/util/parallel.cc (use the "
         "ThreadPool / parallelFor layer)"},
        {"layering",
         "cross-module #include edges respect the declared module "
         "DAG (tools/lint/layers.txt) and form no cycles"},
        {"determinism",
         "no wall-clock or ambient-randomness calls outside "
         "src/random/ (they break the bit-identity contract)"},
        {"unused-include",
         "project #include whose header contributes no referenced "
         "name (IWYU-lite heuristic)"},
        {"fatal-reachability",
         "no fatal()/abort()/exit() transitively reachable from a "
         "solver entry point (every public function of a solver file, "
         "every try* in src/core/; call-graph proof; the finding "
         "carries the witness chain)"},
        {"numeric-guard-coverage",
         "solver boundary functions route results through "
         "NumericGuard / SNOOP_NUMERIC_CHECK (directly or via a "
         "same-file validator)"},
        {"fp-determinism",
         "bit-identity-critical modules (tools/lint/determinism.txt) "
         "use no libm transcendentals outside the sanctioned kernels "
         "and never let unordered-container iteration order reach an "
         "output or accumulation"},
        {"lockset",
         "mutable state reachable from parallelFor workers carries "
         "SNOOP_GUARDED_BY(m), and its accesses happen only on CFG "
         "paths where m is provably held (lock_guard/unique_lock/"
         "explicit lock(), must-hold dataflow)"},
        {"expected-flow",
         "an Expected<T> result is consulted, and never read via "
         ".value() on a path (or a call temporary) where it was not "
         "checked ok (path-sensitive CFG analysis)"},
        {"marker-allowlist",
         "every inline 'snoop-lint:' waiver marker in src/ is "
         "registered with a justification in "
         "tools/lint/allowlist.txt"},
    };
    return kRules;
}

namespace {

/** Minimal JSON string escaping (control chars, quote, backslash). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace

std::string
toSarif(const std::vector<Finding> &findings)
{
    std::ostringstream o;
    o << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/"
         "oasis-tcs/sarif-spec/master/Schemata/"
         "sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"snoop_lint\",\n"
      << "          \"informationUri\": "
         "\"docs/ANALYSIS.md\",\n"
      << "          \"rules\": [\n";
    const auto &rules = ruleTable();
    for (size_t i = 0; i < rules.size(); ++i) {
        o << "            {\n"
          << "              \"id\": \"" << jsonEscape(rules[i].id)
          << "\",\n"
          << "              \"shortDescription\": { \"text\": \""
          << jsonEscape(rules[i].summary) << "\" },\n"
          << "              \"defaultConfiguration\": { \"level\": "
             "\"error\" }\n"
          << "            }" << (i + 1 < rules.size() ? "," : "")
          << "\n";
    }
    o << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        size_t line = f.line == 0 ? 1 : f.line;
        o << "        {\n"
          << "          \"ruleId\": \"" << jsonEscape(f.rule) << "\",\n"
          << "          \"level\": \"error\",\n"
          << "          \"message\": { \"text\": \""
          << jsonEscape(f.message) << "\" },\n"
          << "          \"locations\": [\n"
          << "            {\n"
          << "              \"physicalLocation\": {\n"
          << "                \"artifactLocation\": { \"uri\": \""
          << jsonEscape(f.file) << "\" },\n"
          << "                \"region\": { \"startLine\": " << line
          << " }\n"
          << "              }\n"
          << "            }\n"
          << "          ]\n"
          << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    o << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
    return o.str();
}

Baseline
Baseline::parse(const std::string &text)
{
    Baseline b;
    std::istringstream in(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t hash = line.find('#');
        std::string body =
            hash == std::string::npos ? line : line.substr(0, hash);
        // Trim.
        size_t first = body.find_first_not_of(" \t");
        size_t last = body.find_last_not_of(" \t");
        if (first == std::string::npos)
            continue;
        body = body.substr(first, last - first + 1);
        size_t colon = body.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= body.size()) {
            b.errors_.push_back("baseline line " +
                                std::to_string(lineno) +
                                ": expected '<path>:<rule>', got '" +
                                body + "'");
            continue;
        }
        b.entries_.push_back(
            {body.substr(0, colon), body.substr(colon + 1), false});
    }
    return b;
}

Baseline
Baseline::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Baseline{};
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

bool
Baseline::matches(const Finding &f) const
{
    bool hit = false;
    for (const Entry &e : entries_) {
        if (e.file == f.file && e.rule == f.rule) {
            e.used = true;
            hit = true;
        }
    }
    return hit;
}

std::vector<std::string>
Baseline::staleEntries() const
{
    std::vector<std::string> stale;
    for (const Entry &e : entries_)
        if (!e.used)
            stale.push_back(e.file + ":" + e.rule);
    return stale;
}

std::vector<Finding>
applyBaseline(const std::vector<Finding> &all, const Baseline &baseline,
              size_t *suppressed)
{
    std::vector<Finding> kept;
    size_t dropped = 0;
    for (const Finding &f : all) {
        if (baseline.matches(f))
            ++dropped;
        else
            kept.push_back(f);
    }
    if (suppressed)
        *suppressed = dropped;
    return kept;
}

Allowlist
Allowlist::parse(const std::string &text)
{
    Allowlist a;
    std::istringstream in(text);
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        if (line[first] == '#')
            continue; // full-line comment
        size_t hash = line.find('#');
        std::string body = hash == std::string::npos
            ? line
            : line.substr(0, hash);
        size_t last = body.find_last_not_of(" \t");
        body = body.substr(first, last - first + 1);
        size_t colon = body.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= body.size()) {
            a.errors_.push_back("allowlist line " +
                                std::to_string(lineno) +
                                ": expected '<path>:<marker>', got '" +
                                body + "'");
            continue;
        }
        if (hash == std::string::npos ||
            line.find_first_not_of(" \t", hash + 1) ==
                std::string::npos) {
            a.errors_.push_back(
                "allowlist line " + std::to_string(lineno) + ": '" +
                body +
                "' needs a justification ('# why this waiver is "
                "sound')");
            continue;
        }
        a.entries_.push_back(
            {body.substr(0, colon), body.substr(colon + 1), false});
    }
    return a;
}

Allowlist
Allowlist::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Allowlist{};
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

bool
Allowlist::matches(const std::string &file,
                   const std::string &marker) const
{
    bool hit = false;
    for (const Entry &e : entries_) {
        if (e.file == file && e.marker == marker) {
            e.used = true;
            hit = true;
        }
    }
    return hit;
}

std::vector<std::string>
Allowlist::staleEntries() const
{
    std::vector<std::string> stale;
    for (const Entry &e : entries_)
        if (!e.used)
            stale.push_back(e.file + ":" + e.marker);
    return stale;
}

} // namespace snoop::lint
