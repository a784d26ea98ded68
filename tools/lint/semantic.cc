#include "lint/semantic.hh"

#include <set>

namespace snoop::lint {

namespace {

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

/** The library paths the ROADMAP promises never terminate the
 * process: the model (src/mva/), everything built on it in src/core/,
 * and CsvWriter, which emits sweep and bench results, so a failed
 * write must surface through close(). */
bool
libraryFile(const std::string &file)
{
    return startsWith(file, "src/mva/") || startsWith(file, "src/core/") ||
        file == "src/util/csv.cc" ||
        fixtureOptsIn(file, "fatal-reachability");
}

/** Entry points: every external-linkage function of a library file (a
 * file-local helper is reached through them). */
bool
fatalEntry(const IndexedFunction &fn)
{
    return libraryFile(fn.file) && !fn.def.fileLocal;
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
            if (markerNearby(fit->second, site.line, "fatal-ok"))
                continue;
            sinks[i] = {true, site.callee, site.line};
            break;
        }
    }

    for (size_t i = 0; i < funcs.size(); ++i) {
        if (!fatalEntry(funcs[i]))
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
// numeric-guard-coverage

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
isNumericBoundary(const IndexedFunction &fn)
{
    for (const Boundary &b : kBoundaries)
        if (fn.file == b.file && fn.def.name == b.name)
            return true;
    // Fixture opt-in: any try*/solve* definition in the fixture.
    if (fixtureOptsIn(fn.file, "numeric-guard-coverage"))
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

// ---------------------------------------------------------------------
// lockset

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

} // namespace

std::vector<Finding>
runSemanticPasses(const FileSet &files, const SymbolIndex &index,
                  const CallGraph &graph)
{
    std::vector<Finding> out;
    checkFatalReachability(files, index, graph, out);
    checkNumericGuardCoverage(files, index, graph, out);
    checkWorkerGlobals(files, index, graph, out);
    return out;
}

} // namespace snoop::lint
