#pragma once

/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and scoped
 * monotonic-clock timers, exported as a flat CSV.
 *
 * Where the trace layer (observe/trace.hh) answers "what happened in
 * what order", the registry answers "how much, in total": iteration
 * counts, solves, solve wall-clock. It is armed by
 * SNOOP_METRICS=<path> (the CSV is written at observeFinalize() /
 * process exit through the atomic-file path) or programmatically via
 * metrics().setEnabled(true).
 *
 * The disabled fast path is one relaxed atomic load and performs no
 * allocation and no locking - counters stay zero-allocated until the
 * registry is enabled, which is what keeps the always-compiled solver
 * hooks free when observability is off.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/expected.hh"
#include "util/guarded.hh"

namespace snoop {

/** One exported metric value. */
struct MetricEntry
{
    std::string name;
    char kind;       ///< 'c' counter, 'g' gauge, 't' timer
    uint64_t count;  ///< increments (counter), samples (timer), 1 (gauge)
    double total;    ///< counter sum / last gauge value / total microseconds
};

/**
 * The registry. One process-wide instance (metrics()); all mutation
 * goes through it. Thread-safe: the slot map is Guarded, and the
 * enabled flag is checked atomically before its lock is ever taken.
 */
class MetricsRegistry
{
  public:
    /** Arm or disarm recording. Disarming keeps accumulated values. */
    void setEnabled(bool enabled);

    /** True when mutations are being recorded. */
    bool enabled() const;

    /** Add @p delta to counter @p name (creates it at zero). */
    void add(const char *name, double delta = 1.0);

    /** Set gauge @p name to @p value (last write wins). */
    void set(const char *name, double value);

    /** Record one timer sample of @p us microseconds under @p name. */
    void recordTime(const char *name, double us);

    /** All entries, sorted by (kind, name). Empty when never enabled. */
    std::vector<MetricEntry> snapshot() const;

    /**
     * Write the snapshot as CSV (kind,name,count,total,mean) through
     * the atomic-file path.
     */
    Expected<void> writeCsv(const std::string &path) const;

    /**
     * One-line human summary for end-of-run reporting, e.g.
     * "metrics: 4 counters, 1 gauge, 2 timers; mva.solve 81x 12.3ms".
     * Empty string when nothing was recorded.
     */
    std::string summary() const;

    /** Drop all accumulated values (enabled state is unchanged). */
    void reset();

  private:
    struct Slot
    {
        char kind = 'c';
        uint64_t count = 0;
        double total = 0.0;
    };

    std::atomic<bool> enabled_{false};
    mutable Guarded<std::map<std::string, Slot>> slots_;
};

/** The process-wide registry. */
MetricsRegistry &metrics();

/** Counter shorthand for solver hooks (env-lazy, cheap when off). */
void metricAdd(const char *name, double delta = 1.0);

/** Gauge shorthand for solver hooks (env-lazy, cheap when off). */
void metricSet(const char *name, double value);

/**
 * RAII timer: samples the monotonic clock at construction and records
 * the elapsed microseconds under @p name at destruction. Whether it
 * records is latched at construction, so enabling mid-span does not
 * produce a torn sample.
 */
class ScopedMetricTimer
{
  public:
    explicit ScopedMetricTimer(const char *name);
    ~ScopedMetricTimer();

    ScopedMetricTimer(const ScopedMetricTimer &) = delete;
    ScopedMetricTimer &operator=(const ScopedMetricTimer &) = delete;

  private:
    const char *name_;
    double start_us_ = 0.0;
    bool active_;
};

} // namespace snoop
