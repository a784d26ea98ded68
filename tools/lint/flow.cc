#include "lint/flow.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "lint/cfg.hh"
#include "lint/dataflow.hh"

namespace snoop::lint {

namespace {

/** Index after the template argument list opening at @p i (toks[i]
 * is '<'); falls back to i+1 when the angles do not balance before
 * a ';'. */
size_t
skipAngles(const std::vector<Token> &toks, size_t i)
{
    int depth = 0;
    for (size_t k = i; k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.kind != TokenKind::Punct)
            continue;
        if (t.text == "<")
            ++depth;
        else if (t.text == ">") {
            if (--depth == 0)
                return k + 1;
        } else if (t.text == ";") {
            break;
        }
    }
    return i + 1;
}

/** Render a witness path as "L10 -> L14 -> L20": the first statement
 * (or condition) line of each block on the shortest entry -> block
 * path. */
std::string
describePath(const Cfg &cfg, size_t target)
{
    std::ostringstream o;
    bool first = true;
    for (size_t b : pathToBlock(cfg, target)) {
        const CfgBlock &blk = cfg.blocks[b];
        size_t line = 0;
        if (!blk.stmts.empty())
            line = blk.stmts.front().line;
        else if (blk.hasCond())
            line = blk.condLine;
        if (line == 0)
            continue;
        if (!first)
            o << " -> ";
        o << "L" << line;
        first = false;
    }
    return o.str();
}

// ====================================================================
// fp-determinism
// ====================================================================

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

/** Functions that hand bytes to an output stream or serialized
 * form — the point past which iteration order becomes observable. */
const std::set<std::string> &
outputCalls()
{
    static const std::set<std::string> k = {
        "printf",    "fprintf", "fputs",     "fwrite",  "puts",
        "writeLine", "appendLine", "emit",   "print",   "serialize",
        "serializeJson", "toJson", "toCsv",  "jsonLine", "writeRow",
        "cellLine",  "dump",
    };
    return k;
}

/** Stream-ish identifiers that make `<<` an output statement rather
 * than a shift. */
const std::set<std::string> &
streamNames()
{
    static const std::set<std::string> k = {"cout", "cerr", "clog",
                                            "os",   "out",  "stream"};
    return k;
}

bool
fpScope(const std::string &file, const DeterminismRoster &roster)
{
    return roster.memberFile(file) ||
        fixtureOptsIn(file, "fp-determinism");
}

bool
fpKernel(const std::string &file, const DeterminismRoster &roster)
{
    return roster.kernelFile(file) ||
        (fixtureOptsIn(file, "fp-determinism") &&
         baseName(file).find("kernel") != std::string::npos);
}

bool
sanctionedName(const std::string &name, const DeterminismRoster &roster)
{
    // mvaExp2 is the repository's deterministic 2^x kernel
    // (src/mva/kernel.hh); it is sanctioned even in fixture runs
    // where no roster file exists.
    return name == "mvaExp2" || roster.sanctioned.count(name) > 0;
}

/** Variable names declared as unordered_{map,set,multimap,multiset}
 * within one function's extent (signature line through body end),
 * plus file-scope globals of unordered type. Scoping the scan to the
 * function keeps a `counts` parameter of unordered type in one
 * function from tainting an ordered `counts` in another. */
std::set<std::string>
unorderedVars(const LexedFile &lexed, const ParsedFile &parsed,
              const FunctionDef &fn)
{
    std::set<std::string> vars;
    const std::vector<Token> &toks = lexed.tokens;
    for (size_t i = 0; i + 1 < toks.size() && i < fn.bodyEnd; ++i) {
        const Token &t = toks[i];
        if (t.line < fn.line || t.kind != TokenKind::Identifier ||
            !startsWith(t.text, "unordered_"))
            continue;
        size_t k = i + 1;
        if (k < toks.size() && isPunct(toks[k], "<"))
            k = skipAngles(toks, k);
        while (k < toks.size() &&
               (isPunct(toks[k], "&") || isPunct(toks[k], "*") ||
                isIdent(toks[k], "const")))
            ++k;
        if (k < toks.size() && toks[k].kind == TokenKind::Identifier)
            vars.insert(toks[k].text);
    }
    for (const GlobalVar &g : parsed.globals)
        if (g.typeText.find("unordered_") != std::string::npos)
            vars.insert(g.name);
    return vars;
}

/** The identifier iterated by a RangeFor header `(decl : expr)`, if
 * the range expression names a known unordered container. */
std::string
unorderedRangeVar(const std::vector<Token> &toks, const CfgStmt &s,
                  const std::set<std::string> &unordered)
{
    // Find the top-level ':' separating decl from range expression.
    int depth = 0;
    size_t colon = s.end;
    for (size_t k = s.begin; k < s.end; ++k) {
        const Token &t = toks[k];
        if (t.kind != TokenKind::Punct)
            continue;
        if (t.text == "(" || t.text == "[" || t.text == "{")
            ++depth;
        else if (t.text == ")" || t.text == "]" || t.text == "}")
            --depth;
        else if (t.text == ":" && depth == 0) {
            bool dbl = (k + 1 < s.end && isPunct(toks[k + 1], ":")) ||
                (k > s.begin && isPunct(toks[k - 1], ":"));
            if (!dbl) {
                colon = k;
                break;
            }
        }
    }
    for (size_t k = colon; k < s.end; ++k)
        if (toks[k].kind == TokenKind::Identifier &&
            unordered.count(toks[k].text))
            return toks[k].text;
    return "";
}

/** Output call (or stream insertion) named by the statement, or ""
 * when it has none. */
std::string
outputCallIn(const std::vector<Token> &toks, const CfgStmt &s)
{
    bool hasShift = false;
    std::string stream;
    for (size_t k = s.begin; k < s.end; ++k) {
        const Token &t = toks[k];
        if (t.kind == TokenKind::Identifier) {
            // Free and member spellings both count: x.serialize()
            // makes iteration order just as observable.
            if (k + 1 < s.end && isPunct(toks[k + 1], "(") &&
                outputCalls().count(t.text))
                return t.text;
            if (streamNames().count(t.text))
                stream = t.text;
        } else if (isPunct(t, "<") && k + 1 < s.end &&
                   isPunct(toks[k + 1], "<")) {
            hasShift = true;
            ++k;
        }
    }
    if (hasShift && !stream.empty())
        return stream + " << ...";
    return "";
}

void
checkFpDeterminism(const FileSet &files, const SymbolIndex &index,
                   const DeterminismRoster &roster,
                   std::vector<Finding> &out)
{
    for (const auto &[file, lexed] : files) {
        if (!fpScope(file, roster))
            continue;
        const ParsedFile &parsed = index.parsed(file);
        const std::vector<Token> &toks = lexed.tokens;

        // Token ranges of sanctioned function bodies: the
        // deterministic kernel itself may use libm internally.
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

        // (a) Libm transcendental calls.
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokenKind::Identifier ||
                !transcendentals().count(t.text) ||
                !isPunct(toks[i + 1], "("))
                continue;
            if (i > 0 && (isPunct(toks[i - 1], ".") ||
                          isPunct(toks[i - 1], ">")))
                continue; // member call on some other type
            if (inSanctioned(i))
                continue;
            if (markerNearby(lexed, t.line, "fp-ok"))
                continue;
            out.push_back(
                {file, t.line, "fp-determinism",
                 "libm transcendental '" + t.text +
                     "' in a bit-identity-critical module "
                     "(tools/lint/determinism.txt); results differ "
                     "across libm versions -- use the deterministic "
                     "kernel (mvaExp2) or justify with "
                     "'// snoop-lint: fp-ok'"});
        }

        // (b) Unordered iteration on a path reaching output, and
        // (c) accumulation-order hazards in kernel files.
        bool kernel = fpKernel(file, roster);

        if (kernel) {
            for (size_t i = 0; i + 1 < toks.size(); ++i) {
                const Token &t = toks[i];
                if (t.kind != TokenKind::Identifier)
                    continue;
                if ((t.text == "reduce" || t.text == "execution") &&
                    i >= 3 && isPunct(toks[i - 1], ":") &&
                    isPunct(toks[i - 2], ":") &&
                    isIdent(toks[i - 3], "std")) {
                    if (markerNearby(lexed, t.line, "fp-ok"))
                        continue;
                    out.push_back(
                        {file, t.line, "fp-determinism",
                         "'std::" + t.text +
                             "' in a kernel file: accumulation order "
                             "is unspecified, which breaks "
                             "bit-identity (snoop-lint: fp-ok to "
                             "waive)"});
                }
            }
        }

        for (const FunctionDef &fn : parsed.functions) {
            std::set<std::string> unordered =
                unorderedVars(lexed, parsed, fn);
            if (unordered.empty())
                continue;
            Cfg cfg = buildCfg(lexed, fn);
            if (cfg.degraded)
                continue;
            for (size_t b = 0; b < cfg.blocks.size(); ++b) {
                for (const CfgStmt &s : cfg.blocks[b].stmts) {
                    if (s.kind != StmtKind::RangeFor)
                        continue;
                    std::string var =
                        unorderedRangeVar(toks, s, unordered);
                    if (var.empty())
                        continue;
                    if (markerNearby(lexed, s.line, "fp-ok"))
                        continue;
                    // Blocks reachable from the loop header: the
                    // body and everything after the loop.
                    std::vector<char> seen(cfg.blocks.size(), 0);
                    std::vector<size_t> queue{b};
                    seen[b] = 1;
                    std::string sink;
                    size_t sinkBlock = 0, sinkLine = 0;
                    for (size_t h = 0;
                         h < queue.size() && sink.empty(); ++h) {
                        for (const CfgStmt &q :
                             cfg.blocks[queue[h]].stmts) {
                            sink = outputCallIn(toks, q);
                            if (!sink.empty()) {
                                sinkBlock = queue[h];
                                sinkLine = q.line;
                                break;
                            }
                        }
                        for (const CfgEdge &e :
                             cfg.blocks[queue[h]].succs)
                            if (!seen[e.to]) {
                                seen[e.to] = 1;
                                queue.push_back(e.to);
                            }
                    }
                    if (!sink.empty()) {
                        out.push_back(
                            {file, s.line, "fp-determinism",
                             "iteration over unordered container '" +
                                 var +
                                 "' reaches output call '" + sink +
                                 "' (line " +
                                 std::to_string(sinkLine) +
                                 ", path " +
                                 describePath(cfg, sinkBlock) +
                                 "); hash iteration order is not "
                                 "deterministic across "
                                 "runs/platforms"});
                        continue;
                    }
                    if (!kernel)
                        continue;
                    // Kernel accumulation: `+=` folded inside the
                    // loop body (blocks on a cycle through the
                    // header).
                    std::vector<char> back(cfg.blocks.size(), 0);
                    std::vector<size_t> bq{b};
                    back[b] = 1;
                    // reverse reachability to the header
                    std::vector<std::vector<size_t>> preds(
                        cfg.blocks.size());
                    for (size_t p = 0; p < cfg.blocks.size(); ++p)
                        for (const CfgEdge &e : cfg.blocks[p].succs)
                            preds[e.to].push_back(p);
                    for (size_t h = 0; h < bq.size(); ++h)
                        for (size_t p : preds[bq[h]])
                            if (!back[p]) {
                                back[p] = 1;
                                bq.push_back(p);
                            }
                    for (size_t blkId = 0;
                         blkId < cfg.blocks.size(); ++blkId) {
                        if (!seen[blkId] || !back[blkId] ||
                            blkId == b)
                            continue;
                        for (const CfgStmt &q :
                             cfg.blocks[blkId].stmts) {
                            for (size_t k = q.begin;
                                 k + 1 < q.end; ++k)
                                if (isPunct(toks[k], "+") &&
                                    isPunct(toks[k + 1], "=")) {
                                    out.push_back(
                                        {file, q.line,
                                         "fp-determinism",
                                         "accumulation (`+=`) under "
                                         "iteration over unordered "
                                         "container '" + var +
                                         "' in a kernel file: "
                                         "fold order is not "
                                         "deterministic"});
                                    k = q.end;
                                }
                        }
                    }
                }
            }
        }
    }
}

// ====================================================================
// lockset
// ====================================================================

/**
 * Worker-shared state: a mutable global named in the body of a
 * function reachable from a parallelFor() launch must be const,
 * thread_local, or of a type that synchronizes itself: std::atomic,
 * std::mutex, ..., or Guarded<T> (src/util/guarded.hh), whose value
 * the compiler lets no code reach without its lock. Worker lambdas
 * parse as part of the launching function, so the launchers are the
 * reachability roots. Waiver: `// snoop-lint: lockset-ok` at the
 * declaration.
 */
void
checkWorkerGlobals(const FileSet &files, const SymbolIndex &index,
                   const CallGraph &graph, std::vector<Finding> &out)
{
    const auto &funcs = index.functions();
    std::vector<size_t> roots;
    for (size_t i = 0; i < funcs.size(); ++i)
        for (const CallSite &site : graph.callsOf(i))
            if (site.callee == "parallelFor") {
                roots.push_back(i);
                break;
            }
    if (roots.empty())
        return;
    const std::vector<size_t> worker = graph.reachableFrom(roots);

    for (const IndexedGlobal &g : index.globals()) {
        const GlobalVar &var = g.var;
        if (!(startsWith(g.file, "src/") ||
              fixtureOptsIn(g.file, "lockset")) ||
            var.isConst || var.isThreadLocal || var.selfSynchronizing)
            continue;
        auto fit = files.find(g.file);
        if (fit == files.end() ||
            markerNearby(fit->second, var.line, "lockset-ok"))
            continue;
        // Accessor: a worker-reachable function in the same file
        // (such globals have internal linkage) naming the variable
        // other than as a member of some object.
        for (size_t i : worker) {
            const FunctionDef &def = funcs[i].def;
            if (funcs[i].file != g.file ||
                !namesBare(fit->second.tokens, def.bodyBegin, def.bodyEnd,
                           var.name))
                continue;
            out.push_back(
                {g.file, var.line, "lockset",
                 "mutable shared state '" + var.name +
                     "' is reachable from parallelFor workers (via " +
                     def.qualified +
                     ") but is not const, thread_local or "
                     "self-synchronizing; wrap it in Guarded<T> "
                     "(util/guarded.hh)"});
            break;
        }
    }
}

// ====================================================================
// expected-flow
// ====================================================================

bool
expectedFlowScope(const std::string &file)
{
    return startsWith(file, "src/") ||
        fixtureOptsIn(file, "expected-flow");
}

enum class VState { Unchecked, CheckedOk, CheckedErr };

/** Per-variable check state of tracked Expected results. A variable
 * absent from the map is untracked (bound on only some paths, or
 * escaped) — the pass stays silent about it. */
struct EState {
    bool top = true;
    std::map<std::string, VState> vars;

    bool
    operator==(const EState &o) const
    {
        return top == o.top && vars == o.vars;
    }
};

/** One expected-flow report, collected by the reporting replay. */
struct ExpectedHit {
    enum Kind {
        UncheckedRead,  //!< tracked variable read unchecked on a path
        TemporaryRead,  //!< tryX(...).value() on the call temporary
        NeverConsulted, //!< tracked variable bound and never used
    } kind;
    std::string name; //!< the variable, or the callee of a temporary
    size_t line;
};

/** Token index of the ')' closing the call whose callee is toks[k]
 * when toks[k] names a function every declaration of which returns
 * Expected<...>; npos otherwise. */
size_t
expectedCallEnd(const std::vector<Token> &toks, size_t k, size_t end,
                const SymbolIndex &index)
{
    if (k + 1 >= end || toks[k].kind != TokenKind::Identifier ||
        !isPunct(toks[k + 1], "(") || !index.returnsExpected(toks[k].text))
        return std::string::npos;
    size_t close = matchBracket(toks, k + 1);
    return close < end ? close : std::string::npos;
}

class ExpectedFlowProblem : public DataflowProblem<EState>
{
  public:
    explicit ExpectedFlowProblem(const SymbolIndex &index) : index_(index)
    {
    }

    EState
    entryState() const override
    {
        EState s;
        s.top = false;
        return s;
    }

    EState
    initialState() const override
    {
        return EState{};
    }

    EState
    join(const EState &a, const EState &b) const override
    {
        if (a.top)
            return b;
        if (b.top)
            return a;
        EState j;
        j.top = false;
        for (const auto &[name, va] : a.vars) {
            auto it = b.vars.find(name);
            if (it == b.vars.end())
                continue; // tracked on one path only: drop
            VState vb = it->second;
            j.vars[name] =
                va == vb ? va : VState::Unchecked;
        }
        return j;
    }

    void
    transfer(EState &s, const LexedFile &file,
             const CfgStmt &stmt) const override
    {
        applyStmt(s, file, stmt, nullptr);
    }

    void
    edge(EState &s, const LexedFile &file, const CfgBlock &from,
         const CfgEdge &e) const override
    {
        if (!from.hasCond() || e.kind == EdgeKind::Next)
            return;
        const std::vector<Token> &toks = file.tokens;
        size_t b = from.condBegin, cend = from.condEnd;
        bool negated = false;
        while (b < cend && isPunct(toks[b], "!")) {
            negated = !negated;
            ++b;
        }
        if (b >= cend || toks[b].kind != TokenKind::Identifier)
            return;
        const std::string &name = toks[b].text;
        auto it = s.vars.find(name);
        if (it == s.vars.end())
            return;
        // Accept exactly `name`, `name.ok()`, `name.hasValue()`.
        bool atomic = b + 1 == cend;
        if (!atomic && b + 5 == cend && isPunct(toks[b + 1], ".") &&
            (isIdent(toks[b + 2], "ok") ||
             isIdent(toks[b + 2], "hasValue")) &&
            isPunct(toks[b + 3], "(") && isPunct(toks[b + 4], ")"))
            atomic = true;
        if (!atomic) {
            // Complex condition mentioning the variable: assume the
            // author checked it (conservative silence).
            it->second = VState::CheckedOk;
            return;
        }
        bool trueMeansOk = !negated;
        bool ok = (e.kind == EdgeKind::True) == trueMeansOk;
        it->second = ok ? VState::CheckedOk : VState::CheckedErr;
    }

    /** One statement, shared between the solver's transfer and the
     * reporting replay: when @p sink is non-null, the statement's
     * findings on a reachable path are appended to it. */
    void
    applyStmt(EState &s, const LexedFile &file, const CfgStmt &stmt,
              std::vector<ExpectedHit> *sink) const
    {
        const std::vector<Token> &toks = file.tokens;
        const bool report = sink && !s.top;

        // Binding: `[type] name = ... tryX( ... ) ...;` where every
        // declaration of tryX returns Expected<...>.
        size_t eq = stmt.end;
        int depth = 0;
        for (size_t k = stmt.begin; k < stmt.end; ++k) {
            const Token &t = toks[k];
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == "}")
                --depth;
            else if (t.text == "=" && depth == 0) {
                bool compound =
                    (k > stmt.begin &&
                     toks[k - 1].kind == TokenKind::Punct &&
                     std::string("<>!+-*/%&|^=").find(
                         toks[k - 1].text) != std::string::npos) ||
                    (k + 1 < stmt.end && isPunct(toks[k + 1], "="));
                if (!compound) {
                    eq = k;
                    break;
                }
            }
        }
        if (eq < stmt.end && eq > stmt.begin &&
            toks[eq - 1].kind == TokenKind::Identifier &&
            !(eq >= 2 && (isPunct(toks[eq - 2], ".") ||
                          isPunct(toks[eq - 2], ">")))) {
            const std::string &name = toks[eq - 1].text;
            // The bound value is the Expected itself only when no
            // member access (`.valueOr(...)`, `.ok()`) consumes the
            // call's result first.
            bool expectedRhs = false;
            for (size_t k = eq + 1; k < stmt.end; ++k) {
                size_t close = expectedCallEnd(toks, k, stmt.end, index_);
                if (close != std::string::npos &&
                    !(close + 1 < stmt.end &&
                      (isPunct(toks[close + 1], ".") ||
                       isPunct(toks[close + 1], "-"))))
                    expectedRhs = true;
            }
            if (expectedRhs) {
                if (!s.top)
                    s.vars[name] = VState::Unchecked;
                return;
            }
            // Re-assignment from a non-Expected source: stop
            // tracking the old binding.
            s.vars.erase(name);
        }

        // Event scan, left to right, so `r.ok() ? r.value() : d`
        // counts as checked before the read.
        for (size_t k = stmt.begin; k < stmt.end; ++k) {
            const Token &t = toks[k];
            if (t.kind != TokenKind::Identifier)
                continue;
            auto it = s.vars.find(t.text);
            if (it == s.vars.end())
                continue;
            if (k + 2 < stmt.end && isPunct(toks[k + 1], ".") &&
                toks[k + 2].kind == TokenKind::Identifier) {
                const std::string &m = toks[k + 2].text;
                if (m == "ok" || m == "hasValue" || m == "error" ||
                    m == "orThrow") {
                    it->second = VState::CheckedOk;
                } else if (m == "value") {
                    if (report && it->second != VState::CheckedOk)
                        sink->push_back({ExpectedHit::UncheckedRead,
                                         t.text, t.line});
                    it->second = VState::CheckedOk;
                }
                // valueOr and anything else: safe, no change.
                k += 2;
                continue;
            }
            // Bare use (returned, passed along, bool-tested inside a
            // larger expression): assume consumed/checked.
            it->second = VState::CheckedOk;
        }
    }

  private:
    const SymbolIndex &index_;
};

/**
 * The expected-flow cases that need no path, found by a token walk
 * over @p fn's body so they fire even where the CFG degrades or the
 * solve gives up: `.value()` read straight off a call temporary, and
 * a result bound by `name = tryX(...)` whose name never appears again.
 */
void
expectedTokenHits(const std::vector<Token> &toks, const FunctionDef &fn,
                  const SymbolIndex &index, std::vector<ExpectedHit> &hits)
{
    const size_t end = std::min(fn.bodyEnd, toks.size());
    for (size_t k = fn.bodyBegin; k < end; ++k) {
        size_t close = expectedCallEnd(toks, k, end, index);
        if (close != std::string::npos && close + 2 < end &&
            isPunct(toks[close + 1], ".") && isIdent(toks[close + 2], "value"))
            hits.push_back({ExpectedHit::TemporaryRead, toks[k].text,
                            toks[k].line});

        // Binding: `name = ...;` (not `==`, not a member) whose
        // right-hand side is an Expected call not consumed by a
        // member access first.
        if (toks[k].kind != TokenKind::Identifier || k + 2 >= end ||
            !isPunct(toks[k + 1], "=") || isPunct(toks[k + 2], "=") ||
            isPunct(toks[k - 1], ".") || isPunct(toks[k - 1], ">"))
            continue;
        size_t semi = k + 2;
        bool expectedRhs = false;
        for (int depth = 0; semi < end; ++semi) {
            const Token &t = toks[semi];
            if (t.kind == TokenKind::Punct &&
                (t.text == "(" || t.text == "[" || t.text == "{"))
                ++depth;
            else if (t.kind == TokenKind::Punct &&
                     (t.text == ")" || t.text == "]" || t.text == "}"))
                --depth;
            if (depth < 0 || (depth == 0 && isPunct(t, ";")))
                break;
            size_t c = expectedCallEnd(toks, semi, end, index);
            if (c != std::string::npos && c + 1 < end &&
                !isPunct(toks[c + 1], ".") && !isPunct(toks[c + 1], "-"))
                expectedRhs = true;
        }
        const std::string &name = toks[k].text;
        if (expectedRhs && !namesBare(toks, fn.bodyBegin, k, name) &&
            !namesBare(toks, semi, end, name))
            hits.push_back({ExpectedHit::NeverConsulted, name, toks[k].line});
    }
}

/** The finding text for one expected-flow hit; @p path describes the
 * unchecked path of an UncheckedRead. */
std::string
expectedMessage(const ExpectedHit &h, const FunctionDef &fn,
                const std::string &path)
{
    const std::string waive = "'// snoop-lint: expected-ok'";
    switch (h.kind) {
    case ExpectedHit::TemporaryRead:
        return "result of " + h.name +
            "() is read via .value() on the call temporary, which no "
            "path can have checked ok; bind and test it, use "
            "valueOr(), or waive with " + waive;
    case ExpectedHit::NeverConsulted:
        return "'" + h.name + "' holds an Expected result (in " +
            fn.name + "()) that is never consulted; check it, or "
            "drop the binding and (void)-cast the call";
    case ExpectedHit::UncheckedRead:
        break;
    }
    return "'" + h.name +
        "' holds an Expected result and is read via .value() on a "
        "path where it was never checked ok (path " + path + " in " +
        fn.name + "()); test it with ok()/operator bool on every path "
        "to the read, or waive with " + waive;
}

void
checkExpectedFlow(const FileSet &files, const SymbolIndex &index,
                  std::vector<Finding> &out)
{
    for (const auto &[file, lexed] : files) {
        if (!expectedFlowScope(file))
            continue;
        const ParsedFile &parsed = index.parsed(file);
        for (const FunctionDef &fn : parsed.functions) {
            std::set<std::pair<std::string, size_t>> reported;
            auto emit = [&](const std::vector<ExpectedHit> &hits,
                            const std::string &path) {
                for (const ExpectedHit &h : hits)
                    if (reported.insert({h.name, h.line}).second &&
                        !markerNearby(lexed, h.line, "expected-ok"))
                        out.push_back({file, h.line, "expected-flow",
                                       expectedMessage(h, fn, path)});
            };
            std::vector<ExpectedHit> tokenHits;
            expectedTokenHits(lexed.tokens, fn, index, tokenHits);
            emit(tokenHits, "");

            Cfg cfg = buildCfg(lexed, fn);
            if (cfg.degraded)
                continue;
            ExpectedFlowProblem problem(index);
            DataflowResult<EState> res =
                solveForward(cfg, lexed, problem);
            if (!res.converged)
                continue;
            for (size_t b = 0; b < cfg.blocks.size(); ++b) {
                EState s = res.in[b];
                std::vector<ExpectedHit> hits;
                for (const CfgStmt &stmt : cfg.blocks[b].stmts)
                    problem.applyStmt(s, lexed, stmt, &hits);
                if (!hits.empty())
                    emit(hits, describePath(cfg, b));
            }
        }
    }
}

} // namespace

// ====================================================================
// roster + entry point
// ====================================================================

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

std::vector<Finding>
runFlowPasses(const FileSet &files, const SymbolIndex &index,
              const CallGraph &graph, const DeterminismRoster &roster)
{
    std::vector<Finding> out;
    checkFpDeterminism(files, index, roster, out);
    checkWorkerGlobals(files, index, graph, out);
    checkExpectedFlow(files, index, out);
    return out;
}

} // namespace snoop::lint
