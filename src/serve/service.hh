#pragma once

/**
 * @file
 * The snoop_serve engine: batched analysis requests over the MVA
 * solver, with a canonicalized solution cache, per-request budgets,
 * and structured failure payloads (docs/SERVING.md). A cache miss is
 * a cold solve, so every answer is bit-identical to
 * MvaSolver::trySolve on the same request.
 *
 * Determinism contract: a response is a pure function of the request
 * history - never of SNOOP_JOBS, thread scheduling, or wall-clock.
 * All cache reads happen serially against the pre-batch cache state,
 * the solves run through the lockstep SoA batch engine
 * (BatchMvaSolver, itself bit-identical to the scalar solver at any
 * thread count), and inserts land serially in request order
 * afterwards. Replaying a session byte-for-byte reproduces every
 * response byte-for-byte at any thread count.
 */

#include <cstdint>
#include <vector>

#include "core/analyzer.hh"
#include "mva/batch_solver.hh"
#include "mva/solver.hh"
#include "serve/cache.hh"
#include "util/json.hh"
#include "serve/protocol.hh"
#include "workload/derived.hh"

namespace snoop {

/** The solver defaults the serve engine uses: MvaOptions{}, whose
 * Fatal non-convergence policy surfaces an unconverged solve as a
 * structured error, never as a number. */
inline MvaOptions
defaultServeSolverOptions()
{
    return MvaOptions{};
}

/** Configuration of a SolveService. */
struct ServeOptions
{
    /** Solution-cache entry bound (LRU beyond it). */
    size_t cacheCapacity = 4096;
    /** Cache-key canonicalization grid (serve/cache.hh). */
    double quantum = 1e-9;
    /**
     * Service-wide ceiling on the per-solve wall-clock budget in
     * seconds; 0 = unbudgeted. A request's own timeBudget can only
     * tighten this, never exceed it (admission control).
     */
    double maxTimeBudget = 0.0;
    /** Service-wide ceiling on per-solve iterations; 0 = unbudgeted. */
    long maxIterationBudget = 0;
    /**
     * Unused by SolveService, which always solves a miss cold. Its
     * only reader is perfbench's traced replay, which mirrors the
     * daemon's per-line path; false keeps that mirror cold too.
     */
    bool warmStart = false;
    /** Numerical options for the underlying solver. */
    MvaOptions solver = defaultServeSolverOptions();
    /** Bus/memory timing constants for workload derivation. */
    BusTiming timing;
};

/**
 * The request engine. One instance owns one solution cache; the
 * daemon (tools/snoop_serve.cc) drives it line by line, tests and
 * the benchmark drive it directly.
 *
 * Not internally synchronized: callers invoke handle()/handleBatch()
 * from one thread (the engine parallelizes internally via the batch
 * solver's lane blocks).
 */
class SolveService
{
  public:
    /** Throws SolveException (InvalidArgument) on malformed options. */
    explicit SolveService(ServeOptions opts = {});

    /** Serve one request (a singleton batch). */
    JsonValue handle(const Request &request);

    /**
     * Serve a deterministic batch: admission and cache reads against
     * the pre-batch state, solves in parallel, inserts and response
     * assembly in request order. Returns one response per request,
     * in request order.
     */
    std::vector<JsonValue> handleBatch(
        const std::vector<Request> &requests);

    /** The solution cache (inspection; tests and the stats op). */
    const SolutionCache &cache() const { return cache_; }

    /** The options in use. */
    const ServeOptions &options() const { return opts_; }

    /** One solve unit of a batch (implementation detail; public so
     * the response-assembly helpers in service.cc can see it). */
    struct Cell;

  private:
    JsonValue statsResult() const;
    MvaOptions cellSolverOptions(const Request &request) const;

    ServeOptions opts_;
    Analyzer analyzer_;
    BatchMvaSolver batch_;
    SolutionCache cache_;
    uint64_t requestsServed_ = 0;
};

} // namespace snoop
