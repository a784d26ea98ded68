#include "lint/semantic.hh"

#include <algorithm>
#include <set>

#include "lint/callgraph.hh"
#include "lint/parser.hh"
#include "lint/symbols.hh"

namespace snoop::lint {

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

std::string
baseName(const std::string &path)
{
    auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_';
}

/** Word-boundary search, mirroring the per-file rules' containsWord. */
bool
containsWord(const std::string &line, const std::string &word)
{
    size_t pos = 0;
    while ((pos = line.find(word, pos)) != std::string::npos) {
        bool left_ok = pos == 0 || !isWordChar(line[pos - 1]);
        size_t end = pos + word.size();
        bool right_ok = end >= line.size() || !isWordChar(line[end]);
        if (left_ok && right_ok)
            return true;
        pos += 1;
    }
    return false;
}

/** True when raw lines [line-3, line] (1-based) carry @p marker —
 * the same window the per-file rules give their opt-out markers. */
bool
markerNearby(const LexedFile &lexed, size_t line, const char *marker)
{
    size_t first = line > 3 ? line - 3 : 1;
    for (size_t l = first; l <= line && l <= lexed.lines.size(); ++l)
        if (lexed.lines[l - 1].find(marker) != std::string::npos)
            return true;
    return false;
}

bool
isPunct(const Token &t, const char *p)
{
    return t.kind == TokenKind::Punct && t.text == p;
}

bool
isIdent(const Token &t, const char *name)
{
    return t.kind == TokenKind::Identifier && t.text == name;
}

/** Line of the last token of @p def's body. */
size_t
bodyEndLine(const std::vector<Token> &toks, const FunctionDef &def)
{
    size_t last = def.bodyEnd > 0 ? def.bodyEnd - 1 : 0;
    if (last >= toks.size())
        last = toks.empty() ? 0 : toks.size() - 1;
    return toks.empty() ? def.line : toks[last].line;
}

// ---------------------------------------------------------------------
// fatal-reachability

/** Process-terminating sinks. panic()/SNOOP_ASSERT are not listed:
 * those are internal-invariant idioms with their own rule (R6), and
 * their implementations live in the exempt files below. */
const std::set<std::string> &
fatalSinks()
{
    static const std::set<std::string> kSinks = {
        "fatal", "abort", "exit", "_Exit", "quick_exit",
    };
    return kSinks;
}

/** Files whose bodies implement the sinks (fatal() itself must call
 * _Exit); calls inside them are the mechanism, not a violation. */
bool
sinkExemptFile(const std::string &file)
{
    return file == "src/util/logging.cc" ||
        file == "src/util/contracts.cc";
}

/** Entry-point scope: the library surface the ROADMAP promises never
 * terminates the process. */
bool
fatalEntryScope(const std::string &file)
{
    return startsWith(file, "src/mva/") || startsWith(file, "src/core/") ||
        file == "src/util/fixed_point.cc" ||
        startsWith(baseName(file), "bad_fatal_reachability");
}

void
checkFatalReachability(const FileSet &files, const SymbolIndex &index,
                       const CallGraph &graph,
                       std::vector<Finding> &out)
{
    const auto &funcs = index.functions();

    // A node is a sink carrier when its body directly calls a sink on
    // a line without a fatal-ok marker.
    struct SinkCall {
        bool present = false;
        std::string callee;
        size_t line = 0;
    };
    std::vector<SinkCall> sinks(funcs.size());
    for (size_t i = 0; i < funcs.size(); ++i) {
        if (sinkExemptFile(funcs[i].file))
            continue;
        auto fit = files.find(funcs[i].file);
        if (fit == files.end())
            continue;
        for (const CallSite &site : graph.callsOf(i)) {
            if (!fatalSinks().count(site.callee))
                continue;
            if (markerNearby(fit->second, site.line,
                             "snoop-lint: fatal-ok"))
                continue;
            sinks[i] = {true, site.callee, site.line};
            break;
        }
    }

    for (size_t i = 0; i < funcs.size(); ++i) {
        if (!fatalEntryScope(funcs[i].file))
            continue;
        if (!startsWith(funcs[i].def.name, "try"))
            continue;
        auto chain = graph.findPath(
            i, [&sinks](size_t n) { return sinks[n].present; });
        if (chain.empty())
            continue;
        std::string msg = "entry point ";
        for (size_t k = 0; k < chain.size(); ++k) {
            if (k > 0)
                msg += " -> ";
            msg += funcs[chain[k]].def.qualified;
        }
        const SinkCall &sink = sinks[chain.back()];
        msg += " -> " + sink.callee + "() at " +
            funcs[chain.back()].file + ":" + std::to_string(sink.line) +
            " can terminate the process";
        out.push_back({funcs[i].file, funcs[i].def.line,
                       "fatal-reachability", msg});
    }
}

// ---------------------------------------------------------------------
// unchecked-expected

bool
expectedScope(const std::string &file)
{
    const std::string base = baseName(file);
    return startsWith(file, "src/") ||
        startsWith(base, "bad_unchecked_expected") ||
        startsWith(base, "good_unchecked_expected");
}

/** Members whose call consumes or checks an Expected. */
bool
isConsumingMember(const std::string &member)
{
    return member == "ok" || member == "error" || member == "orThrow" ||
        member == "valueOr";
}

/** Member-call names that collide with std types' members
 * (ofstream::close() vs CsvWriter's Expected-returning close()). A
 * member call through one of these cannot be attributed to the
 * project overload by name alone, so the pass stays silent on it. */
bool
isStdCollidingMember(const std::string &name)
{
    static const std::set<std::string> kStdMembers = {
        "close", "open",  "clear", "reset", "get",
        "swap",  "flush", "erase", "str",
    };
    return kStdMembers.count(name) > 0;
}

/**
 * Walk left from the callee token at @p j to the start of the full
 * call expression: obj.f(), ns::f(), obj->f(), chains thereof.
 * Returns the token index of the expression's first token, or
 * `npos` when the shape is unrecognized (caller stays silent).
 */
size_t
expressionStart(const std::vector<Token> &toks, size_t begin, size_t j)
{
    size_t s = j;
    while (s > begin) {
        if (isPunct(toks[s - 1], ".")) {
            if (s >= begin + 2 &&
                toks[s - 2].kind == TokenKind::Identifier)
                s -= 2;
            else
                return std::string::npos; // (...).f() etc.
        } else if (s >= begin + 2 && isPunct(toks[s - 1], ">") &&
                   isPunct(toks[s - 2], "-")) {
            if (s >= begin + 3 &&
                toks[s - 3].kind == TokenKind::Identifier)
                s -= 3;
            else
                return std::string::npos;
        } else if (s >= begin + 2 && isPunct(toks[s - 1], ":") &&
                   isPunct(toks[s - 2], ":")) {
            if (s >= begin + 3 &&
                toks[s - 3].kind == TokenKind::Identifier)
                s -= 3;
            else
                s -= 2; // ::f() at global scope
        } else {
            break;
        }
    }
    return s;
}

void
checkUncheckedExpected(const FileSet &files, const SymbolIndex &index,
                       std::vector<Finding> &out)
{
    for (const IndexedFunction &fn : index.functions()) {
        if (!expectedScope(fn.file))
            continue;
        auto fit = files.find(fn.file);
        if (fit == files.end())
            continue;
        const std::vector<Token> &toks = fit->second.tokens;
        const size_t b = fn.def.bodyBegin;
        const size_t e = std::min(fn.def.bodyEnd, toks.size());

        for (size_t j = b; j + 1 < e; ++j) {
            if (toks[j].kind != TokenKind::Identifier ||
                !isPunct(toks[j + 1], "("))
                continue;
            const std::string &callee = toks[j].text;
            if (!index.returnsExpected(callee))
                continue;
            bool memberCall = j > b &&
                (isPunct(toks[j - 1], ".") || isPunct(toks[j - 1], ">"));
            if (memberCall && isStdCollidingMember(callee))
                continue;
            size_t close = matchBracket(toks, j + 1);
            if (close >= e)
                continue;

            // Right context first: a member access on the temporary.
            if (close + 2 < e && isPunct(toks[close + 1], ".") &&
                toks[close + 2].kind == TokenKind::Identifier) {
                const std::string &m = toks[close + 2].text;
                if (m == "value")
                    out.push_back(
                        {fn.file, toks[j].line, "unchecked-expected",
                         "result of " + callee +
                             "() read via .value() without an ok()/"
                             "error() check"});
                // ok()/error()/orThrow()/valueOr() consume it; any
                // other member is beyond this pass's model.
                continue;
            }

            size_t s = expressionStart(toks, b, j);
            if (s == std::string::npos)
                continue;

            // Left context.
            const Token *prev = s > b ? &toks[s - 1] : nullptr;
            bool stmtStart = prev == nullptr || isPunct(*prev, ";") ||
                isPunct(*prev, "{") || isPunct(*prev, "}");
            if (stmtStart) {
                if (close + 1 < e && isPunct(toks[close + 1], ";"))
                    out.push_back(
                        {fn.file, toks[j].line, "unchecked-expected",
                         "result of " + callee +
                             "() is discarded (Expected must be "
                             "checked, consumed, or (void)-cast)"});
                continue;
            }
            if (isPunct(*prev, "=")) {
                // var = call(...): find the variable and track its
                // uses through the rest of the body.
                if (s < b + 2 ||
                    toks[s - 2].kind != TokenKind::Identifier)
                    continue;
                const std::string &var = toks[s - 2].text;
                bool any_use = false, checked = false,
                     value_only = false;
                for (size_t k = close + 1; k + 1 < e; ++k) {
                    if (!isIdent(toks[k], var.c_str()))
                        continue;
                    // x.var is a member of something else.
                    if (k > b && (isPunct(toks[k - 1], ".") ||
                                  isPunct(toks[k - 1], ">")))
                        continue;
                    any_use = true;
                    const Token &before = toks[k - 1];
                    const Token &after = toks[k + 1];
                    if (isPunct(before, "!") || isPunct(before, "(") ||
                        isPunct(before, ",") ||
                        isIdent(before, "return")) {
                        checked = true;
                    } else if (isPunct(after, ".") && k + 2 < e &&
                               toks[k + 2].kind ==
                                   TokenKind::Identifier) {
                        if (isConsumingMember(toks[k + 2].text))
                            checked = true;
                        else if (toks[k + 2].text == "value")
                            value_only = true;
                        else
                            checked = true; // unknown member: silent
                    } else {
                        checked = true; // unknown use: conservative
                    }
                }
                if (!any_use)
                    out.push_back(
                        {fn.file, toks[j].line, "unchecked-expected",
                         "result of " + callee + "() bound to '" +
                             var + "' but never consulted"});
                else if (value_only && !checked)
                    out.push_back(
                        {fn.file, toks[j].line, "unchecked-expected",
                         "'" + var + "' (result of " + callee +
                             "()) read via .value() without an "
                             "ok()/error() check"});
                continue;
            }
            // Argument position, negation, return, if-condition, or a
            // shape beyond the model: all fine.
        }
    }
}

// ---------------------------------------------------------------------
// guarded-shared-state

bool
guardedScope(const std::string &file)
{
    const std::string base = baseName(file);
    return startsWith(file, "src/") ||
        startsWith(base, "bad_guarded_shared_state") ||
        startsWith(base, "good_guarded_shared_state");
}

/** True when @p fn's body tokens or surrounding raw lines (including
 * the "Caller holds X." doc-comment idiom) name @p mutex. */
bool
accessorNamesMutex(const LexedFile &lexed, const FunctionDef &fn,
                   const std::string &mutex)
{
    for (size_t j = fn.bodyBegin;
         j < fn.bodyEnd && j < lexed.tokens.size(); ++j)
        if (isIdent(lexed.tokens[j], mutex.c_str()))
            return true;
    size_t first = fn.line > 4 ? fn.line - 4 : 1;
    size_t last = bodyEndLine(lexed.tokens, fn);
    for (size_t l = first; l <= last && l <= lexed.lines.size(); ++l)
        if (containsWord(lexed.lines[l - 1], mutex))
            return true;
    return false;
}

void
checkGuardedSharedState(const FileSet &files, const SymbolIndex &index,
                        const CallGraph &graph,
                        std::vector<Finding> &out)
{
    const auto &funcs = index.functions();

    // Roots: every function whose body launches parallelFor (worker
    // lambdas parse as part of the launching function, so the lambda
    // body and everything it calls is worker-reachable from here).
    std::vector<size_t> roots;
    for (size_t i = 0; i < funcs.size(); ++i)
        for (const CallSite &site : graph.callsOf(i))
            if (site.callee == "parallelFor") {
                roots.push_back(i);
                break;
            }
    if (roots.empty())
        return;
    std::vector<size_t> reach = graph.reachableFrom(roots);
    std::set<size_t> worker(reach.begin(), reach.end());

    for (const IndexedGlobal &g : index.globals()) {
        if (!guardedScope(g.file))
            continue;
        const GlobalVar &var = g.var;
        if (var.isConst || var.isThreadLocal || var.selfSynchronizing)
            continue;
        if (var.guardedBy == "internal")
            continue; // object synchronizes itself (internal mutex)
        auto fit = files.find(g.file);
        if (fit == files.end())
            continue;
        const LexedFile &lexed = fit->second;

        // Accessors: worker-reachable functions in the same file (all
        // such globals have internal linkage) whose body names the
        // variable.
        std::vector<size_t> accessors;
        for (size_t i : worker) {
            if (funcs[i].file != g.file)
                continue;
            const FunctionDef &def = funcs[i].def;
            for (size_t j = def.bodyBegin;
                 j < def.bodyEnd && j < lexed.tokens.size(); ++j) {
                if (!isIdent(lexed.tokens[j], var.name.c_str()))
                    continue;
                if (j > 0 && (isPunct(lexed.tokens[j - 1], ".") ||
                              isPunct(lexed.tokens[j - 1], ">")))
                    continue; // member of some object
                accessors.push_back(i);
                break;
            }
        }
        if (accessors.empty())
            continue;

        if (var.guardedBy.empty()) {
            out.push_back(
                {g.file, var.line, "guarded-shared-state",
                 "mutable shared state '" + var.name +
                     "' is reachable from parallelFor workers (via " +
                     funcs[accessors.front()].def.qualified +
                     ") but has no SNOOP_GUARDED_BY annotation"});
            continue;
        }
        for (size_t i : accessors) {
            if (accessorNamesMutex(lexed, funcs[i].def, var.guardedBy))
                continue;
            out.push_back(
                {g.file, funcs[i].def.line, "guarded-shared-state",
                 funcs[i].def.qualified + " accesses '" + var.name +
                     "' (SNOOP_GUARDED_BY(" + var.guardedBy +
                     ")) without naming the mutex"});
        }
    }
}

// ---------------------------------------------------------------------
// numeric-guard-coverage

struct Boundary {
    const char *file;
    const char *name;
};

/** The solver boundary roster: results that cross these functions are
 * the numbers the paper publishes. MvaLane::finish ends every MVA
 * solve, scalar and batch alike. */
const Boundary kBoundaries[] = {
    {"src/util/fixed_point.cc", "trySolve"},
    {"src/mva/lane.cc", "finish"},
    {"src/mva/multiclass.cc", "solveMulticlass"},
    {"src/mva/hierarchical.cc", "solveHierarchical"},
};

bool
isNumericBoundary(const IndexedFunction &fn)
{
    for (const Boundary &b : kBoundaries)
        if (fn.file == b.file && fn.def.name == b.name)
            return true;
    // Fixture opt-in: any try*/solve* definition in the fixture.
    if (startsWith(baseName(fn.file), "bad_numeric_guard_coverage"))
        return startsWith(fn.def.name, "try") ||
            startsWith(fn.def.name, "solve");
    return false;
}

bool
bodyHasGuard(const FileSet &files, const IndexedFunction &fn)
{
    auto fit = files.find(fn.file);
    if (fit == files.end())
        return false;
    const std::vector<Token> &toks = fit->second.tokens;
    for (size_t j = fn.def.bodyBegin;
         j < fn.def.bodyEnd && j < toks.size(); ++j)
        if (isIdent(toks[j], "NumericGuard") ||
            isIdent(toks[j], "SNOOP_NUMERIC_CHECK"))
            return true;
    return false;
}

void
checkNumericGuardCoverage(const FileSet &files, const SymbolIndex &index,
                          const CallGraph &graph,
                          std::vector<Finding> &out)
{
    const auto &funcs = index.functions();
    for (size_t i = 0; i < funcs.size(); ++i) {
        if (!isNumericBoundary(funcs[i]))
            continue;
        if (bodyHasGuard(files, funcs[i]))
            continue;
        // One level of same-file indirection: a helper that either
        // guards itself or returns SolveError (the recoverable
        // validation idiom) satisfies the boundary.
        bool covered = false;
        for (size_t callee : graph.edgesOf(i)) {
            if (funcs[callee].file != funcs[i].file)
                continue;
            if (bodyHasGuard(files, funcs[callee]) ||
                funcs[callee].def.returnText.find("SolveError") !=
                    std::string::npos) {
                covered = true;
                break;
            }
        }
        if (covered)
            continue;
        out.push_back(
            {funcs[i].file, funcs[i].def.line, "numeric-guard-coverage",
             "solver boundary " + funcs[i].def.qualified +
                 " does not route its result through NumericGuard/"
                 "SNOOP_NUMERIC_CHECK (directly or via a same-file "
                 "validator)"});
    }
}

} // namespace

std::vector<Finding>
runSemanticPasses(const FileSet &files)
{
    std::vector<Finding> out;
    SymbolIndex index = SymbolIndex::build(files);
    CallGraph graph = CallGraph::build(index, files);
    checkFatalReachability(files, index, graph, out);
    checkUncheckedExpected(files, index, out);
    checkGuardedSharedState(files, index, graph, out);
    checkNumericGuardCoverage(files, index, graph, out);
    return out;
}

} // namespace snoop::lint
