#pragma once

/**
 * @file
 * The deterministic, seeded input generator. Every request line and
 * every design_space argument list a run sends comes from here, as a
 * pure function of (workload, seed): the same seed gives
 * byte-identical inputs, and the binaries receive nothing else.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workload/params.hh"

namespace perfbench {

/** SplitMix64: a tiny, well-mixed, fully specified generator. */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state_(seed) {}

    uint64_t next();

    /** Uniform in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound). */
    uint64_t below(uint64_t bound);

  private:
    uint64_t state_;
};

/** Number of workload fields a serve query overrides. */
inline constexpr size_t kVariedFields = 6;

/** One analyze request before it is given an id. */
struct ServeQuery
{
    unsigned protocol = 0; ///< ProtocolConfig::fromIndex
    unsigned n = 0;
    /** Overrides of the appendixA5 preset, in kVariedFields order. */
    std::array<double, kVariedFields> values{};
    bool noCache = false;
    /** Index of the repeated key this query asks for; -1 = fresh. */
    int key = -1;

    /** The workload the request line describes. */
    snoop::WorkloadParams workload() const;
};

/** The wire line of @p query with request id @p id. */
std::string requestLine(const ServeQuery &query, int64_t id);

/** Solution-cache size every serve workload runs the daemon with. */
inline constexpr unsigned kServeCacheCapacity = 4096;

/**
 * The request stream of serve_explore or serve_replay: a priming set
 * (sent during set-up) and an unbounded measured stream.
 */
class ServeInputs
{
  public:
    ServeInputs(const std::string &workload, uint64_t seed);

    /** The requests set-up sends before measuring. */
    const std::vector<ServeQuery> &priming() const { return priming_; }

    /** The next request of the measured stream. */
    ServeQuery next();

  private:
    ServeQuery freshPoint();

    bool replay_;
    SplitMix64 points_;
    SplitMix64 picks_;
    std::vector<ServeQuery> priming_;
    std::vector<double> zipfCdf_;
    uint64_t served_ = 0;
};

/** One design_space sweep invocation. */
struct SweepJob
{
    std::string param;
    double from = 0.0;
    double to = 0.0;
    int steps = 2;
    unsigned n = 16;
    int sharing = 5;

    /** Cells of the 16-protocol grid. */
    size_t cells() const { return 16 * static_cast<size_t>(steps); }

    /** The generated design_space arguments (paths are added later). */
    std::vector<std::string> args() const;
};

/** The pool of sweeps a sweep_ckpt / sweep_grid run cycles through. */
std::vector<SweepJob> sweepJobs(const std::string &workload, uint64_t seed);

/** The smallest grid design_space accepts, timed as set-up. */
SweepJob sweepSetupJob(const std::string &workload, uint64_t seed);

} // namespace perfbench
