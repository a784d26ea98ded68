#pragma once

/**
 * @file
 * Shared types of the repository benchmark: the run configuration,
 * the report every workload fills, and the small statistics helpers.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One benchmark run, as the command line describes it. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBin;       ///< path to the snoop_serve binary
    std::string designSpaceBin; ///< path to the design_space binary
    std::string workDir;        ///< scratch directory inside the checkout
    unsigned jobs = 1;          ///< nproc; SNOOP_JOBS of every child
};

/** A metric as printed: value, unit, and an optional note. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

/** What one run measured and which of its checks failed. */
class Report
{
  public:
    /** Count one attempted operation (request, invocation, check). */
    void attempt(uint64_t n = 1) { attempted_ += n; }

    /** Record one failed operation with a message (first few kept). */
    void fail(const std::string &message);

    /** Append a metric; names must be unique within a run. */
    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &note = "");

    /** A figure printed with the metrics but left out of the result
     *  line, for numbers too noisy to gate on. */
    void printedOnly(const std::string &name, double value,
                     const std::string &unit, const std::string &note = "");

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<Metric> &printed() const { return printed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::vector<Metric> metrics_;
    std::vector<Metric> printed_;
};

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Consecutive windows the measured samples of a run are split into. */
inline constexpr size_t kWindows = 10;

/**
 * The median, over kWindows consecutive equal-count windows of
 * @p samples (in the order they were taken), of each window's
 * q-quantile. A host stall that hits a few windows moves the pooled
 * tail of a run; it moves this only when it spans most of the run.
 */
double windowedQuantile(const std::vector<double> &samples, double q);

/**
 * The median, over the same windows, of each window's units per
 * second: sum of @p units over sum of @p seconds.
 */
double windowedRate(const std::vector<double> &seconds,
                    const std::vector<double> &units);

/** 64-bit FNV-1a of @p text (response fingerprints). */
uint64_t fnv1a(const std::string &text);

/** Run the serve_explore or serve_replay workload. */
void runServeWorkload(const RunConfig &cfg, Report &report);

/** Run the sweep_ckpt or sweep_grid workload. */
void runSweepWorkload(const RunConfig &cfg, Report &report);

} // namespace perfbench
