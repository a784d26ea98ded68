#include "lint/rules.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/parser.hh"

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

// --- expected-flow: src/ reaches an Expected only through checks ----

void
checkExpectedFlow(const std::string &file, const LexedFile &lx,
                  std::vector<Finding> &findings)
{
    const std::vector<Token> &toks = lx.tokens;
    for (size_t i = 1; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "value") || !isPunct(toks[i + 1], "("))
            continue;
        bool member = isPunct(toks[i - 1], ".") ||
            (i >= 2 && isPunct(toks[i - 1], ">") &&
             isPunct(toks[i - 2], "-"));
        if (!member)
            continue;
        findings.push_back(
            {file, toks[i].line, "expected-flow",
             "'.value()' in library code: reach an Expected's value "
             "through SNOOP_TRY / SNOOP_TRY_OR or match() "
             "(util/expected.hh), which check it first"});
    }
}

// --- fp-determinism: the bit-identity roster -------------------------

const std::set<std::string> &
transcendentals()
{
    static const std::set<std::string> k = {
        "pow",   "powf",  "powl",   "exp",    "exp2",  "expm1",
        "log",   "log2",  "log10",  "log1p",  "sin",   "cos",
        "tan",   "sinh",  "cosh",   "tanh",   "asin",  "acos",
        "atan",  "atan2", "erf",    "erfc",   "tgamma", "lgamma",
        "cbrt",  "hypot",
    };
    return k;
}

bool
sanctionedName(const std::string &name, const DeterminismRoster &roster)
{
    // mvaExp2 is the repository's deterministic 2^x kernel
    // (src/mva/kernel.hh); it is sanctioned even in fixture runs
    // where no roster file exists.
    return name == "mvaExp2" || roster.sanctioned.count(name) > 0;
}

void
checkFpDeterminism(const std::string &file, const LexedFile &lx,
                   const ParsedFile &parsed, bool kernel,
                   const DeterminismRoster &roster,
                   std::vector<Finding> &findings)
{
    const std::vector<Token> &toks = lx.tokens;

    // Token ranges of sanctioned function bodies: the deterministic
    // kernel itself may use libm internally.
    std::vector<std::pair<size_t, size_t>> sanctionedBodies;
    for (const FunctionDef &fn : parsed.functions)
        if (sanctionedName(fn.name, roster))
            sanctionedBodies.push_back({fn.bodyBegin, fn.bodyEnd});
    auto inSanctioned = [&](size_t tok) {
        for (const auto &[b, e] : sanctionedBodies)
            if (tok >= b && tok < e)
                return true;
        return false;
    };

    size_t unorderedLine = 0; // one finding per line
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokenKind::Identifier)
            continue;
        bool call = i + 1 < toks.size() && isPunct(toks[i + 1], "(");
        bool member = i > 0 &&
            (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], ">"));
        bool stdQualified = i >= 3 && isPunct(toks[i - 1], ":") &&
            isPunct(toks[i - 2], ":") && isIdent(toks[i - 3], "std");
        std::string msg;
        if (call && !member && transcendentals().count(t.text) &&
            !inSanctioned(i)) {
            msg = "libm transcendental '" + t.text +
                "' in a bit-identity-critical module "
                "(tools/lint/determinism.txt); results differ across "
                "libm versions -- use the deterministic kernel "
                "(mvaExp2) or justify with '// snoop-lint: fp-ok'";
        } else if (startsWith(t.text, "unordered_") &&
                   t.line != unorderedLine) {
            unorderedLine = t.line;
            msg = "'" + t.text +
                "' in a bit-identity-critical module "
                "(tools/lint/determinism.txt): hash iteration order is "
                "not deterministic across runs or platforms; use an "
                "ordered container, or LookupMap (util/lookup_map.hh) "
                "for an index that is only looked up";
        } else if (kernel && stdQualified &&
                   (t.text == "reduce" || t.text == "execution")) {
            msg = "'std::" + t.text +
                "' in a kernel file: accumulation order is "
                "unspecified, which breaks bit-identity (snoop-lint: "
                "fp-ok to waive)";
        }
        if (!msg.empty() && !markerNearby(lx, t.line, "fp-ok"))
            findings.push_back({file, t.line, "fp-determinism", msg});
    }
}

// --- lockset: shared mutable state synchronizes itself --------------

/**
 * Every namespace-scope variable and function-local static in src/
 * must be const, thread_local, or of a type that synchronizes itself:
 * std::atomic, std::mutex, ..., or Guarded<T> (util/guarded.hh),
 * whose value the compiler lets no code reach without its lock. The
 * rule reads declarations only, so it needs no knowledge of which
 * functions parallelFor workers reach. Waiver:
 * `// snoop-lint: lockset-ok` at the declaration.
 */
void
checkLockset(const std::string &file, const LexedFile &lx,
             const ParsedFile &parsed, std::vector<Finding> &findings)
{
    for (const GlobalVar &var : parsed.globals) {
        if (var.isConst || var.isThreadLocal || var.selfSynchronizing ||
            markerNearby(lx, var.line, "lockset-ok"))
            continue;
        findings.push_back(
            {file, var.line, "lockset",
             std::string("mutable ") +
                 (var.isFunctionLocal ? "static local" : "global") +
                 " '" + var.name +
                 "' is not const, thread_local or self-synchronizing; "
                 "wrap it in Guarded<T> (util/guarded.hh)"});
    }
}

// --- numeric-guard-coverage: solver boundaries route through guards --

struct Boundary {
    const char *file;
    const char *name;
};

/** The solver boundary roster: results that cross these functions are
 * the numbers the paper publishes. MvaLane::finish ends every MVA
 * solve, scalar and batch alike. */
const Boundary kBoundaries[] = {
    {"src/mva/lane.cc", "finish"},
    {"src/mva/multiclass.cc", "solveMulticlass"},
    {"src/mva/hierarchical.cc", "solveHierarchical"},
};

bool
isNumericBoundary(const std::string &file, const FunctionDef &fn)
{
    for (const Boundary &b : kBoundaries)
        if (file == b.file && fn.name == b.name)
            return true;
    // Fixture opt-in: any try*/solve* definition in the fixture.
    return fixtureOptsIn(file, "numeric-guard-coverage") &&
        (startsWith(fn.name, "try") || startsWith(fn.name, "solve"));
}

bool
bodyHasGuard(const std::vector<Token> &toks, const FunctionDef &fn)
{
    for (size_t j = fn.bodyBegin; j < fn.bodyEnd && j < toks.size(); ++j)
        if (isIdent(toks[j], "NumericGuard") ||
            isIdent(toks[j], "SNOOP_NUMERIC_CHECK"))
            return true;
    return false;
}

/**
 * A boundary guards its result itself, or calls (`name(` in its body)
 * a same-file definition that either guards itself or returns
 * SolveError: the recoverable-validation idiom of mva/lane.cc.
 */
void
checkNumericGuardCoverage(const std::string &file, const LexedFile &lx,
                          const ParsedFile &parsed,
                          std::vector<Finding> &findings)
{
    const std::vector<Token> &toks = lx.tokens;
    auto validates = [&](const FunctionDef &fn) {
        return bodyHasGuard(toks, fn) ||
            fn.returnText.find("SolveError") != std::string::npos;
    };
    for (const FunctionDef &fn : parsed.functions) {
        if (!isNumericBoundary(file, fn) || bodyHasGuard(toks, fn))
            continue;
        bool covered = false;
        for (size_t j = fn.bodyBegin;
             !covered && j + 1 < fn.bodyEnd && j + 1 < toks.size(); ++j) {
            if (toks[j].kind != TokenKind::Identifier ||
                !isPunct(toks[j + 1], "("))
                continue;
            for (const FunctionDef &callee : parsed.functions)
                if (callee.name == toks[j].text && validates(callee))
                    covered = true;
        }
        if (covered)
            continue;
        findings.push_back(
            {file, fn.line, "numeric-guard-coverage",
             "solver boundary " + fn.qualified +
                 " does not route its result through NumericGuard/"
                 "SNOOP_NUMERIC_CHECK (directly or via a same-file "
                 "validator)"});
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

bool
DeterminismRoster::memberFile(const std::string &file) const
{
    for (const std::string &m : modules)
        if (startsWith(file, m))
            return true;
    return kernelFile(file);
}

bool
DeterminismRoster::kernelFile(const std::string &file) const
{
    for (const std::string &k : kernels)
        if (file == k)
            return true;
    return false;
}

DeterminismRoster
DeterminismRoster::load(const std::string &path, std::string *error)
{
    DeterminismRoster r;
    std::ifstream in(path);
    if (!in)
        return r; // no roster: fixture-scope only
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ss(line);
        std::string directive, arg, extra;
        if (!(ss >> directive))
            continue;
        if (!(ss >> arg) || (ss >> extra)) {
            if (error)
                *error = path + ":" + std::to_string(lineno) +
                    ": expected '<directive> <argument>'";
            continue;
        }
        if (directive == "module")
            r.modules.push_back(arg);
        else if (directive == "kernel")
            r.kernels.push_back(arg);
        else if (directive == "sanctioned")
            r.sanctioned.insert(arg);
        else if (error)
            *error = path + ":" + std::to_string(lineno) +
                ": unknown directive '" + directive + "'";
    }
    return r;
}

void
runFileRules(const std::string &display, const std::string &original,
             const LexedFile &lexed, const DeterminismRoster &roster,
             std::vector<Finding> &findings)
{
    fs::path path(original);
    bool is_header = path.extension() == ".hh";
    bool in_tests = underTests(path);

    // The one translation unit allowed to own threads: the pool
    // implementation itself.
    bool is_parallel_impl = path.filename() == "parallel.cc" &&
        path.parent_path().filename() == "util";

    if (is_header)
        checkHeader(display, lexed, findings);
    if (!in_tests) {
        bool inSrc = startsWith(display, "src/");
        checkRawAssert(display, lexed, findings);
        if (!is_parallel_impl)
            checkRawThread(display, lexed, findings);
        if (inDeterminismScope(path))
            checkDeterminism(display, lexed, findings);
        if ((inSrc && display != "src/util/expected.hh") ||
            fixtureOptsIn(display, "expected-flow"))
            checkExpectedFlow(display, lexed, findings);

        // The rules below read one parse of the file.
        bool fpFixture = fixtureOptsIn(display, "fp-determinism");
        bool fp = roster.memberFile(display) || fpFixture;
        bool lockset = inSrc || fixtureOptsIn(display, "lockset");
        bool guards = startsWith(display, "src/mva/") ||
            fixtureOptsIn(display, "numeric-guard-coverage");
        if (!fp && !lockset && !guards)
            return;
        ParsedFile parsed = parseFile(lexed);
        if (fp)
            checkFpDeterminism(
                display, lexed, parsed,
                roster.kernelFile(display) ||
                    (fpFixture &&
                     baseName(display).find("kernel") != std::string::npos),
                roster, findings);
        if (lockset)
            checkLockset(display, lexed, parsed, findings);
        if (guards)
            checkNumericGuardCoverage(display, lexed, parsed, findings);
    }
}

} // namespace snoop::lint
