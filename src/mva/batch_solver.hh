#pragma once

/**
 * @file
 * Structure-of-arrays batch engine for the customized MVA model: all
 * cells of a sweep (or all requests of a serve batch) iterate eqs.
 * (1)-(13) in lockstep, one contiguous array per model variable, with
 * dense slot compaction so converged cells drop out.
 *
 * Each lane is the same MvaLane record (mva/lane.hh) the scalar
 * MvaSolver::trySolve runs: admission, budgets, disposition and trace
 * replay are that shared code. Only the lockstep loop is the engine's
 * own - a fused SoA tick over the shared mvaStep - and a block with
 * an armed solver fault or a time-budgeted lane runs the shared
 * scalar lane driver instead.
 *
 * Determinism contract: every lane executes the *same arithmetic
 * sequence* as the scalar MvaSolver::trySolve of that cell (the step
 * itself is the shared mva/kernel.hh), so batch results are
 * bit-identical to per-cell scalar solves at any SNOOP_JOBS setting.
 * Parallelism is across fixed-size spans of a cost-sorted lane order
 * - the partition is a pure function of the batch, never of the pool
 * configuration - and SIMD-friendly SoA within a span, with retired
 * SIMD slots refilled from the span's queue, so the engine composes
 * multiplicatively with the thread pool.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "mva/result.hh"
#include "mva/solver.hh"
#include "util/expected.hh"

namespace snoop {

/** One lane of a batch solve: a full scalar-solve request. */
struct MvaJob
{
    DerivedInputs inputs; ///< derived model inputs for this cell
    unsigned n = 0;       ///< processor count
    /** Warm-start seed; the all-zero seed is the paper's cold start. */
    MvaSeed seed{};
    /** Per-lane numerical options (serve batches tighten budgets). */
    MvaOptions opts{};
    /**
     * TraceTaskScope id under which this lane's replayed trace events
     * (mva.solve span, mva.attempt / mva.iteration instants) are
     * recorded; 0 records under the recording thread's ambient task.
     * Use the same schedule-independent key the caller's fault sites
     * key on (sweep cell index + 1, serve request id + 1) so traces
     * stay byte-comparable across SNOOP_JOBS.
     */
    uint64_t traceKey = 0;
};

/** Options controlling batch layout. */
struct BatchOptions
{
    /**
     * Lanes iterating in lockstep (the SoA width of the fused tick).
     * One parallelFor work item spans several blockSize widths of the
     * cost-sorted lane order and refills retiring SIMD slots from
     * that span, so the work-item partition is a pure function of the
     * batch and blockSize - never SNOOP_JOBS - preserving trace and
     * fault determinism. 16 lanes fill two AVX-512 registers and give
     * the out-of-order window enough independent fixed points to hide
     * the division latency chain that bounds the scalar loop.
     */
    size_t blockSize = 16;
};

/**
 * Solves many independent MVA cells in lockstep.
 *
 * @code
 *   BatchMvaSolver batch;
 *   std::vector<MvaJob> jobs = ...;
 *   auto results = batch.solveBatch(jobs);  // results[i] <-> jobs[i]
 * @endcode
 *
 * Never throws: per-lane admission failures (bad options, n == 0, a
 * non-finite seed) and solve failures come back as the same
 * structured SolveErrors the scalar engine produces, in the slot of
 * the offending lane only.
 */
class BatchMvaSolver
{
  public:
    explicit BatchMvaSolver(BatchOptions opts = {});

    /**
     * Solve every job; result i corresponds to job i. Lane failures
     * are per-slot errors and never perturb neighboring lanes.
     */
    [[nodiscard]] std::vector<Expected<MvaResult>>
    solveBatch(const std::vector<MvaJob> &jobs) const;

    /** The options in use. */
    const BatchOptions &options() const { return opts_; }

  private:
    /**
     * Run one SoA block over the @p count jobs selected by @p idx
     * (indices into the batch), writing each result to its original
     * slot. Indirection rather than a contiguous span because blocks
     * are formed from the cost-sorted lane order, not batch order.
     */
    void solveBlock(const MvaJob *jobs, const size_t *idx,
                    std::optional<Expected<MvaResult>> *out,
                    size_t count) const;

    BatchOptions opts_;
};

} // namespace snoop
