#pragma once

/**
 * @file
 * Parameter sweeps: evaluate protocols across a range of one workload
 * parameter and tabulate the results - the "explore a large design
 * space quickly and interactively" workflow the paper's conclusion
 * advertises, packaged as a reusable facility.
 */

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.hh"
#include "util/expected.hh"
#include "util/table.hh"

namespace snoop {

/** Sets one workload parameter to a value. */
using ParamSetter = std::function<void(WorkloadParams &, double)>;

/**
 * Look up a setter for a parameter by its paper name: one of
 * "tau", "h_private", "h_sro", "h_sw", "r_private", "r_sw",
 * "amod_private", "amod_sw", "csupply_sro", "csupply_sw",
 * "wb_csupply", "rep_p", "rep_sw". Returns nullptr if unknown.
 */
ParamSetter findParamSetter(const std::string &name);

/** Names accepted by findParamSetter, for help text. */
std::vector<std::string> sweepableParams();

/**
 * Which slice of the sweep's cell grid this process evaluates.
 *
 * Cells are numbered v * P + p (row-major over values x protocols),
 * and shard index of count takes the contiguous range
 * [cells*index/count, cells*(index+1)/count). The slice depends only
 * on (index, count, grid shape) - never on scheduling - so the
 * concatenation of all N shards' cell outputs is bit-identical to the
 * unsharded run at any SNOOP_JOBS, the same construction as the
 * per-replication RNG substreams (docs/SHARDING.md).
 */
struct ShardSpec
{
    size_t index = 0; ///< this shard's position in [0, count)
    size_t count = 1; ///< total number of shards

    /** True for the default whole-grid (unsharded) descriptor. */
    bool isWhole() const { return count <= 1; }

    /** The [begin, end) slice of a @p cells-cell grid. */
    std::pair<size_t, size_t> cellRange(size_t cells) const;

    bool operator==(const ShardSpec &) const = default;
};

/** Specification of one sweep. */
struct SweepSpec
{
    WorkloadParams base;            ///< starting workload
    std::string paramName;          ///< swept parameter (display)
    ParamSetter set;                ///< how to apply a value
    std::vector<double> values;     ///< values to sweep
    std::vector<ProtocolConfig> protocols; ///< columns
    unsigned n = 16;                ///< system size

    /** The slice of the cell grid this run evaluates. */
    ShardSpec shard;

    /**
     * When non-empty, completed cells are persisted here every
     * checkpointEvery cells: the first commit creates the file
     * atomically (util/atomic_file.hh), each later one appends only
     * its new cells with write + fdatasync. A restart with the same
     * spec loads the file, drops a torn final append, skips the
     * solved cells, and produces byte-identical output. A checkpoint whose spec fingerprint does
     * not match is rejected with a structured error - never silently
     * reused (src/core/checkpoint.hh).
     */
    std::string checkpointPath;
    /** Cells solved between checkpoint commits (>= 1). */
    size_t checkpointEvery = 32;

    /**
     * Structured validity check: an InvalidArgument error naming the
     * offending field ("set", "values", "protocols", "n", "shard",
     * "checkpointEvery") on a malformed spec.
     */
    [[nodiscard]] Expected<void> validate() const;
};

/**
 * Results of a sweep: results[v][p] for value v, protocol p.
 *
 * A cell whose solve failed is an *error cell*: errors[v][p] holds
 * the structured failure, results[v][p] stays default-constructed,
 * table() renders an em dash, csv() emits "nan" plus an errors
 * column, and winners() skips it. One stiff grid point near bus
 * saturation no longer takes down the whole design-space exploration.
 */
struct SweepResult
{
    /** winners() marker for a row whose cells all failed. */
    static constexpr size_t kNoWinner = static_cast<size_t>(-1);

    SweepSpec spec;
    std::vector<std::vector<MvaResult>> results;
    /** errors[v][p] is set iff cell (v, p) failed. */
    std::vector<std::vector<std::optional<SolveError>>> errors;
    /**
     * evaluated[v][p] is true once cell (v, p) has been solved (or
     * restored from a checkpoint). A sharded run leaves the cells of
     * other shards unevaluated; an empty grid (hand-built results)
     * means everything counts as evaluated.
     */
    std::vector<std::vector<char>> evaluated;

    /** True when cell (v, p) failed (false for hand-built results
     *  with no error grid). */
    bool cellFailed(size_t v, size_t p) const;

    /** True when cell (v, p) was solved or restored (see evaluated). */
    bool cellEvaluated(size_t v, size_t p) const;

    /** Number of evaluated cells (the whole grid when no mask). */
    size_t evaluatedCount() const;

    /** Number of failed cells in the grid. */
    size_t failureCount() const;

    /**
     * One line per failed cell: "h_sw=0.3 Illinois: [code] ...".
     * Empty string when every cell succeeded.
     */
    std::string failureSummary() const;

    /**
     * Render as a table (one row per value, one column per protocol).
     * Cells another shard owns render as "·" (vs "—" for failures).
     */
    Table table() const;

    /** Emit as CSV (same layout as table(), plus an errors column;
     *  cells another shard owns are empty fields). */
    std::string csv() const;

    /**
     * Long-form per-cell CSV: one line per *evaluated* cell in global
     * cell order, columns cell,value,protocol,speedup,error and no
     * header line - so the concatenation of the N shards' cellCsv()
     * outputs, in shard order, is byte-identical to the unsharded
     * run's (the sharding determinism guarantee, docs/SHARDING.md).
     */
    std::string cellCsv() const;

    /**
     * The protocol index with the highest speedup at each swept value
     * (crossover detection). Ties resolve to the lowest protocol
     * index (column order of SweepSpec::protocols); error cells are
     * skipped and an all-failed row yields kNoWinner. A row with no
     * protocol columns, or a partial (sharded, un-merged) grid, is a
     * structured InvalidArgument error instead of a contract abort,
     * so a degenerate merged grid cannot take down the merge tool or
     * the serve layer.
     */
    [[nodiscard]] Expected<std::vector<size_t>> tryWinners() const;

    /** tryWinners() for infallible-grid callers; throws SolveException
     *  where tryWinners() would return an error. */
    std::vector<size_t> winners() const;
};

/**
 * Run a sweep with the given analyzer (or a default one).
 *
 * Cells of the value x protocol grid are evaluated in parallel on the
 * process-wide pool (util/parallel.hh; sized by SNOOP_JOBS). Results
 * land in pre-sized slots, so output is bit-identical to a serial run
 * at any thread count. A failing cell (bad workload value, solver
 * failure, injected fault) is captured as an error cell rather than
 * propagating; a warn() summary reports the failures at the end.
 *
 * With a sharded spec only the shard's slice is evaluated; with a
 * checkpointPath the run is crash-safe: completed cells (results and
 * error cells alike) are durably committed every checkpointEvery
 * cells, each appended once to the checkpoint log
 * (core/checkpoint.hh), and a restart resumes from the last commit
 * with output byte-identical to an uninterrupted run. Restored cells
 * carry every performance measure bit-exactly but not the solver
 * diagnostics (attempts, convergenceTrace, derived inputs) - see
 * docs/SHARDING.md.
 *
 * Run-level failures (malformed spec, unreadable or mismatched
 * checkpoint, failed checkpoint commit, an armed sweep.checkpoint
 * chaos fault) come back as a structured error; per-cell failures
 * never do.
 */
[[nodiscard]] Expected<SweepResult>
tryRunSweep(const SweepSpec &spec, const Analyzer &analyzer = Analyzer());

/** tryRunSweep() for infallible-spec callers; throws SolveException
 *  where tryRunSweep() would return an error. */
SweepResult runSweep(const SweepSpec &spec,
                     const Analyzer &analyzer = Analyzer());

} // namespace snoop
