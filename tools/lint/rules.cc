#include "lint/rules.hh"

#include <cstring>
#include <filesystem>

namespace snoop::lint {

namespace {

namespace fs = std::filesystem;

std::string
lstrip(const std::string &s)
{
    size_t i = s.find_first_not_of(" \t");
    return i == std::string::npos ? std::string() : s.substr(i);
}

bool
contains(const std::string &haystack, const char *needle)
{
    return haystack.find(needle) != std::string::npos;
}

// --- R1 + R2 + R3: header hygiene -----------------------------------

void
checkHeader(const std::string &file, const LexedFile &lx,
            std::vector<Finding> &findings)
{
    const auto &lines = lx.lines;
    if (lines.empty() || lstrip(lines[0]) != "#pragma once") {
        findings.push_back(
            {file, 1, "pragma-once",
             "header must start with '#pragma once' on line 1"});
    }
    // @file lives inside the Doxygen comment block, so this check
    // reads the raw lines, not the comment-stripped code view.
    bool has_file_doc = false;
    for (const auto &line : lines) {
        if (contains(line, "@file")) {
            has_file_doc = true;
            break;
        }
    }
    if (!has_file_doc) {
        findings.push_back(
            {file, 0, "doxygen-file",
             "header lacks a Doxygen '@file' comment block"});
    }
    for (size_t i = 0; i < lx.code.size(); ++i) {
        if (contains(lx.code[i], "using namespace std")) {
            findings.push_back(
                {file, i + 1, "no-using-std",
                 "'using namespace std' leaks into every includer"});
        }
    }
}

// --- R4: printf-style declarations carry a format attribute ----------

void
checkFormatAttribute(const std::string &file, const LexedFile &lx,
                     std::vector<Finding> &findings)
{
    const auto &code = lx.code;
    for (size_t i = 0; i < code.size(); ++i) {
        // A varargs declaration whose last named parameter is a
        // format string: "const char *fmt, ...".
        if (!(contains(code[i], "*fmt, ...") ||
              contains(code[i], "* fmt, ...")))
            continue;
        // Scan the whole declaration (to the terminating ';' or '{').
        bool has_attr = false;
        for (size_t j = i; j < code.size() && j < i + 6; ++j) {
            if (contains(code[j], "__attribute__((format")) {
                has_attr = true;
                break;
            }
            if (contains(code[j], ";") || contains(code[j], "{"))
                break;
        }
        // Definitions in .cc files repeat the signature without the
        // attribute; only declarations (headers) must carry it.
        if (!has_attr) {
            findings.push_back(
                {file, i + 1, "format-attr",
                 "printf-style declaration missing "
                 "__attribute__((format(printf, ...)))"});
        }
    }
}

// --- R5: solver call sites honor the convergence contract ------------

constexpr const char *kNonConvMarker = "nonconvergence-ok";

bool
isSolveCall(const std::string &code)
{
    // Declarations start with the result type; gem5-style definitions
    // start with the function name itself (return type on the line
    // above). Neither is a call site.
    static constexpr const char *kNotCalls[] = {
        "MvaResult ",        "MulticlassResult ", "HierarchicalResult ",
        "solveMulticlass(",  "solveHierarchical(",
    };
    std::string t = lstrip(code);
    if (!contains(t, "=")) {
        for (const char *prefix : kNotCalls)
            if (t.rfind(prefix, 0) == 0)
                return false;
    }
    if (contains(code, ".solve(") && !contains(code, "::solve("))
        return true;
    return containsWord(code, "solveMulticlass") ||
        containsWord(code, "solveHierarchical");
}

void
checkConvergedUse(const std::string &file, const LexedFile &lx,
                  std::vector<Finding> &findings)
{
    const auto &code = lx.code;
    bool policy_seen = false;
    for (size_t i = 0; i < code.size(); ++i) {
        // A policy mentioned in prose (comment) does not opt in: the
        // code view has comments blanked already.
        if (contains(code[i], "onNonConvergence"))
            policy_seen = true;
        if (!isSolveCall(code[i]))
            continue;
        if (policy_seen)
            continue; // explicit policy opted into earlier in the file
        if (markerNearby(lx, i + 1, kNonConvMarker))
            continue;
        bool checked = false;
        for (size_t j = i; j < code.size() && j < i + 8; ++j) {
            // A policy named in the call's own argument list (wrapped
            // onto the following lines) opts in just as well as a
            // .converged inspection of the result.
            if (containsWord(code[j], "converged") ||
                contains(code[j], "onNonConvergence")) {
                checked = true;
                break;
            }
        }
        if (!checked) {
            findings.push_back(
                {file, i + 1, "converged-check",
                 "solve() result consumed without checking "
                 "'converged', an explicit onNonConvergence policy, "
                 "or a 'snoop-lint: nonconvergence-ok' marker"});
        }
    }
}

// --- R6: no raw assert() outside tests -------------------------------

void
checkRawAssert(const std::string &file, const LexedFile &lx,
               std::vector<Finding> &findings)
{
    const auto &code = lx.code;
    for (size_t i = 0; i < code.size(); ++i) {
        if (containsWord(code[i], "assert") &&
            contains(code[i], "assert(") &&
            !contains(code[i], "static_assert") &&
            !contains(code[i], "SNOOP_ASSERT")) {
            findings.push_back(
                {file, i + 1, "no-raw-assert",
                 "raw assert() vanishes under NDEBUG; use "
                 "SNOOP_ASSERT / SNOOP_REQUIRE instead"});
        }
    }
}

// --- R7: no raw std::thread outside the parallel layer ---------------

void
checkRawThread(const std::string &file, const LexedFile &lx,
               std::vector<Finding> &findings)
{
    const auto &code = lx.code;
    for (size_t i = 0; i < code.size(); ++i) {
        static constexpr const char *kNeedle = "std::thread";
        for (size_t pos = code[i].find(kNeedle);
             pos != std::string::npos;
             pos = code[i].find(kNeedle, pos + 1)) {
            size_t end = pos + std::strlen(kNeedle);
            // Qualified uses (std::thread::hardware_concurrency) read
            // a static; only owning a thread object is banned.
            if (code[i].compare(end, 2, "::") == 0)
                continue;
            findings.push_back(
                {file, i + 1, "no-raw-thread",
                 "raw std::thread bypasses the ThreadPool/parallelFor "
                 "layer (util/parallel.hh) and its determinism and "
                 "shutdown contract"});
            break;
        }
    }
}

// --- R10: determinism (bit-identity contract) ------------------------

constexpr const char *kDeterminismOkMarker = "determinism-ok";

/**
 * Calls whose result depends on the wall clock, the process
 * environment, or ambient randomness. Any of these reaching a solver
 * or simulation path silently breaks the bit-identical-at-any-
 * SNOOP_JOBS contract the fault and trace layers depend on.
 * `require_call` demands an immediately following '(' so field
 * accesses like `ev.time` stay clean. std::chrono::steady_clock is
 * deliberately absent: it is monotonic and only ever used for
 * budgets and self-timing, never for results.
 */
struct DeterminismNeedle {
    const char *word;
    bool require_call;
};

constexpr DeterminismNeedle kDeterminismNeedles[] = {
    {"std::rand", true},    {"rand", true},
    {"srand", true},        {"random_device", false},
    {"system_clock", false},{"high_resolution_clock", false},
    {"time", true},         {"clock", true},
    {"localtime", true},    {"gmtime", true},
    {"strftime", true},     {"ctime", true},
    {"asctime", true},      {"mktime", true},
    {"random_shuffle", false},
};

/**
 * Scope of the determinism pass: src/ only, minus the two sanctioned
 * module directories — src/random/ owns every randomness source and
 * src/observe/ may stamp wall-clock metadata into traces. The
 * negative fixture opts in by name, since it cannot live under src/.
 */
bool
inDeterminismScope(const fs::path &p)
{
    if (fixtureOptsIn(p.string(), "determinism"))
        return true;
    bool under_src = false;
    std::string module;
    for (auto it = p.begin(); it != p.end(); ++it) {
        if (under_src) {
            module = it->string();
            break;
        }
        if (*it == "src")
            under_src = true;
    }
    if (!under_src)
        return false;
    return module != "random" && module != "observe";
}

void
checkDeterminism(const std::string &file, const LexedFile &lx,
                 std::vector<Finding> &findings)
{
    const auto &code = lx.code;
    for (size_t i = 0; i < code.size(); ++i) {
        // Preprocessor lines are exempt: `#include <ctime>` is not
        // itself a call, and conditional blocks mentioning a banned
        // name are judged where the call appears.
        if (lstrip(code[i]).rfind("#", 0) == 0)
            continue;
        for (const DeterminismNeedle &n : kDeterminismNeedles) {
            if (!containsWord(code[i], n.word))
                continue;
            if (n.require_call &&
                !contains(code[i], (std::string(n.word) + "(").c_str()))
                continue;
            if (markerNearby(lx, i + 1, kDeterminismOkMarker))
                break;
            findings.push_back(
                {file, i + 1, "determinism",
                 std::string("'") + n.word +
                     "' is a wall-clock/ambient-randomness source and "
                     "breaks the bit-identity contract; draw from the "
                     "seeded streams in src/random/ instead, or mark "
                     "a sanctioned use with "
                     "'snoop-lint: determinism-ok'"});
            break;
        }
    }
}

// --- applicability ---------------------------------------------------

bool
underTests(const fs::path &p)
{
    // The negative fixtures live under tests/lint/fixtures/ but must
    // be linted with the non-test rule set, or the fixtures for the
    // code-side rules could never fire.
    for (const auto &part : p)
        if (part == "fixtures")
            return false;
    for (const auto &part : p)
        if (part == "tests")
            return true;
    return false;
}

} // namespace

bool
isTestExempt(const std::string &path)
{
    return underTests(fs::path(path));
}

void
runFileRules(const std::string &display, const std::string &original,
             const LexedFile &lexed, std::vector<Finding> &findings)
{
    fs::path path(original);
    bool is_header = path.extension() == ".hh";
    bool in_tests = underTests(path);

    // The one translation unit allowed to own threads: the pool
    // implementation itself.
    bool is_parallel_impl = path.filename() == "parallel.cc" &&
        path.parent_path().filename() == "util";

    if (is_header) {
        checkHeader(display, lexed, findings);
        checkFormatAttribute(display, lexed, findings);
    }
    if (!in_tests) {
        checkConvergedUse(display, lexed, findings);
        checkRawAssert(display, lexed, findings);
        if (!is_parallel_impl)
            checkRawThread(display, lexed, findings);
        if (inDeterminismScope(path))
            checkDeterminism(display, lexed, findings);
    }
}

} // namespace snoop::lint
