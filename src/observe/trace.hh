#pragma once

/**
 * @file
 * Structured solver tracing: deterministic event records exported as
 * Chrome `trace_event` JSON.
 *
 * The paper's headline claim is efficiency - "a few iterations ... in
 * milliseconds" - and the solvers are now instrumented to prove it.
 * Hooks at every solve boundary (MVA and its multiclass /
 * hierarchical variants, sweep cells, validation points, replication
 * batches, parallelFor regions) record events into an in-process
 * buffer that is written out at process exit (or on an explicit
 * observeFinalize()) and loads directly into chrome://tracing or
 * Perfetto.
 *
 * Configuration mirrors the fault layer (util/fault.hh):
 *
 *     SNOOP_TRACE=<path>[:phase|:iteration]
 *
 * or programmatic setTrace(), with the same
 * "programmatic setup beats a later env read" once-flag contract. The
 * default level is `iteration` (everything); `phase` drops the
 * per-iteration instants and keeps attempt / cell / replication spans.
 *
 * Determinism contract (docs/CORRECTNESS.md §9): event *identity* is
 * (task, seq, name, key, args) - never a wall-clock time or a thread
 * id. `task` comes from a TraceTaskScope opened with a
 * schedule-independent index (the sweep cell index, the replication
 * index - the same keys the fault layer uses), and `seq` is a per-task
 * counter, so the recorded event set is bit-identical at any
 * SNOOP_JOBS. Timestamps and thread ids are carried for the timeline
 * view but excluded from identity; per-worker batch spans are
 * deliberately *not* recorded because which worker runs which cell is
 * scheduling, not behavior.
 *
 * When tracing is off every hook is one relaxed atomic load; the
 * solvers' numeric results are unconditionally unaffected (the hooks
 * only observe, never steer).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "util/expected.hh"

namespace snoop {

/** How much the trace layer records. */
enum class TraceLevel {
    Off = 0,       ///< nothing; hooks cost one atomic load
    Phase = 1,     ///< spans: attempts, cells, replications, regions
    Iteration = 2, ///< additionally per-iteration instants + residuals
};

/** One recorded event (a span or an instant). */
struct TraceEvent
{
    std::string name; ///< e.g. "mva.iteration", "sweep.cell"
    uint64_t task;    ///< enclosing TraceTaskScope id (0 = root)
    uint64_t seq;     ///< per-task record order
    uint64_t key;     ///< caller's schedule-independent key
    std::string args; ///< extra JSON fields ("\"residual\":1e-9,...")
    char phase;       ///< 'X' complete span, 'i' instant
    double ts_us;     ///< start, microseconds since process start
    double dur_us;    ///< span duration ('X' only)
    uint64_t tid;     ///< recording thread (display only, not identity)

    /** The schedule-independent identity tuple, for set comparison. */
    std::string identity() const;
};

/**
 * True when events at @p level are being recorded. Hooks use this to
 * skip argument formatting on the fast path; the recording functions
 * re-check internally.
 */
bool traceEnabled(TraceLevel level);

/**
 * Record an instant event at @p level. @p args is either empty or a
 * fragment of JSON object fields without braces, e.g.
 * `"\"residual\":1.5e-9"`; callers should build it only after a
 * traceEnabled() check.
 */
void traceInstant(TraceLevel level, const char *name, uint64_t key,
                  std::string args = std::string());

/**
 * RAII span: captures the start time at construction and records one
 * complete ('X') event at destruction. Inactive (and allocation-free)
 * when tracing is below @p level.
 */
class TraceSpan
{
  public:
    TraceSpan(TraceLevel level, const char *name, uint64_t key);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** True when this span will record; guard args formatting on it. */
    bool active() const { return active_; }

    /** Attach extra JSON fields (same format as traceInstant args). */
    void setArgs(std::string args) { args_ = std::move(args); }

  private:
    const char *name_;
    uint64_t key_;
    uint64_t seq_ = 0;
    double start_us_ = 0.0;
    std::string args_;
    bool active_;
};

/**
 * Establishes the deterministic task id for events recorded on this
 * thread: parallel region bodies open one with `index + 1` (the same
 * pre-sized slot index the fault layer keys on), so events group by
 * work item rather than by worker thread. Nests by save/restore; the
 * per-task seq counter restarts at 0 inside the scope.
 */
class TraceTaskScope
{
  public:
    explicit TraceTaskScope(uint64_t task);
    ~TraceTaskScope();

    TraceTaskScope(const TraceTaskScope &) = delete;
    TraceTaskScope &operator=(const TraceTaskScope &) = delete;

  private:
    uint64_t saved_task_;
    uint64_t saved_seq_;
};

/**
 * Enable tracing at @p level, buffering events for @p path (written at
 * observeFinalize() / process exit); an empty path buffers in memory
 * only, for tests that snapshot directly. Claims the env once-flag so
 * SNOOP_TRACE cannot overwrite this later.
 */
void setTrace(TraceLevel level, std::string path = std::string());

/** Disable tracing and drop all buffered events. */
void clearTrace();

/**
 * Re-read SNOOP_TRACE / SNOOP_METRICS (fatal() on malformed values -
 * they are user input at the process boundary). Called lazily on the
 * first hook; tests call it after setenv().
 */
void reloadObserveFromEnv();

/** The currently buffered events, in deterministic identity order. */
std::vector<TraceEvent> snapshotTraceEvents();

/** Events dropped after the buffer cap (identity order is preserved). */
uint64_t droppedTraceEvents();

/**
 * Write buffered events as Chrome trace_event JSON to @p path through
 * the atomic-file path (util/atomic_file.hh). Events are ordered by
 * identity so the file layout is schedule-independent apart from the
 * timestamp fields.
 */
Expected<void> writeTraceJson(const std::string &path);

/**
 * Flush everything that is enabled: the trace JSON to its configured
 * path, the metrics CSV to its path (observe/metrics.hh), and a
 * one-line inform() summary. Idempotent; registered via atexit when
 * env configuration arms either output, and called explicitly by CLI
 * tools and bench binaries so the summary lands before their output.
 */
void observeFinalize();

/**
 * Reset the whole observe layer to the unconfigured state (tracing
 * off, buffers empty, metrics disabled and cleared, env once-flag
 * claimed). Test isolation only.
 */
void observeReset();

/** Consume SNOOP_TRACE / SNOOP_METRICS if not yet consumed (internal). */
void observeEnsureConfigured();

} // namespace snoop
