#include "inputs.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "protocol/config.hh"

namespace perfbench {

uint64_t
SplitMix64::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
SplitMix64::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
SplitMix64::below(uint64_t bound)
{
    return next() % bound;
}

namespace {

struct VariedField
{
    const char *wire;
    double snoop::WorkloadParams::*member;
    double lo, hi;
};

// Ranges inside which every one of the 16 protocols converges at
// every N in [4, 128]; the stream probabilities stay the preset's.
constexpr VariedField kVaried[kVariedFields] = {
    {"tau", &snoop::WorkloadParams::tau, 1.5, 4.0},
    {"hPrivate", &snoop::WorkloadParams::hPrivate, 0.90, 0.99},
    {"hSw", &snoop::WorkloadParams::hSw, 0.3, 0.9},
    {"rSw", &snoop::WorkloadParams::rSw, 0.3, 0.8},
    {"amodSw", &snoop::WorkloadParams::amodSw, 0.1, 0.6},
    {"csupplySw", &snoop::WorkloadParams::csupplySw, 0.2, 0.8},
};

/** Shortest round-trip decimal, so the wire value is the double. */
std::string
shortest(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
protocolWireName(unsigned index)
{
    // findProtocol takes a bare mod string, except for plain
    // Write-Once, whose mod string is empty.
    std::string mods = snoop::ProtocolConfig::fromIndex(index).modString();
    return mods.empty() ? "WriteOnce" : mods;
}

/** Keys a serve_replay dashboard asks for. */
constexpr size_t kReplayKeys = 256;
/** Every this-many-th replay request forces a fresh (noCache) solve. */
constexpr uint64_t kReplayUncachedEvery = 400;

} // namespace

snoop::WorkloadParams
ServeQuery::workload() const
{
    snoop::WorkloadParams w =
        snoop::presets::appendixA(snoop::SharingLevel::FivePercent);
    for (size_t i = 0; i < kVariedFields; ++i)
        w.*(kVaried[i].member) = values[i];
    return w;
}

std::string
requestLine(const ServeQuery &query, int64_t id)
{
    std::string line = "{\"id\":" + std::to_string(id) +
        ",\"op\":\"analyze\",\"protocol\":\"" +
        protocolWireName(query.protocol) +
        "\",\"preset\":\"appendixA5\",\"n\":" + std::to_string(query.n);
    if (query.noCache)
        line += ",\"noCache\":true";
    line += ",\"workload\":{";
    for (size_t i = 0; i < kVariedFields; ++i) {
        if (i > 0)
            line += ',';
        line += '"';
        line += kVaried[i].wire;
        line += "\":" + shortest(query.values[i]);
    }
    line += "}}";
    return line;
}

ServeInputs::ServeInputs(const std::string &workload, uint64_t seed)
    : replay_(workload == "serve_replay"),
      points_(seed * 2 + 1),
      picks_(seed * 2 + 2)
{
    if (workload != "serve_explore" && workload != "serve_replay")
        throw std::invalid_argument("not a serve workload: " + workload);
    // serve_explore fills the whole cache before measuring, so every
    // measured miss scans a full LRU list; serve_replay primes the
    // dashboard's key set, so the measured stream hits.
    size_t primed = replay_ ? kReplayKeys : kServeCacheCapacity;
    for (size_t i = 0; i < primed; ++i) {
        priming_.push_back(freshPoint());
        if (replay_)
            priming_.back().key = static_cast<int>(i);
    }
    if (replay_) {
        // Zipf(1) popularity over the primed keys: a few panels are
        // refreshed far more often than the rest.
        double total = 0.0;
        for (size_t k = 0; k < kReplayKeys; ++k) {
            total += 1.0 / static_cast<double>(k + 1);
            zipfCdf_.push_back(total);
        }
        for (double &c : zipfCdf_)
            c /= total;
    }
}

ServeQuery
ServeInputs::freshPoint()
{
    ServeQuery q;
    q.protocol = static_cast<unsigned>(points_.below(16));
    q.n = 4 + static_cast<unsigned>(points_.below(125));
    for (size_t i = 0; i < kVariedFields; ++i) {
        double u = points_.uniform();
        double v = kVaried[i].lo + u * (kVaried[i].hi - kVaried[i].lo);
        q.values[i] = std::round(v * 1e4) / 1e4;
    }
    return q;
}

ServeQuery
ServeInputs::next()
{
    ++served_;
    if (!replay_)
        return freshPoint();
    double u = picks_.uniform();
    size_t k = static_cast<size_t>(
        std::lower_bound(zipfCdf_.begin(), zipfCdf_.end(), u) -
        zipfCdf_.begin());
    ServeQuery q = priming_[std::min(k, priming_.size() - 1)];
    q.noCache = served_ % kReplayUncachedEvery == 0;
    return q;
}

std::vector<std::string>
SweepJob::args() const
{
    return {"--param=" + param,
            "--from=" + shortest(from),
            "--to=" + shortest(to),
            "--steps=" + std::to_string(steps),
            "--n=" + std::to_string(n),
            "--sharing=" + std::to_string(sharing)};
}

namespace {

struct SweptParam
{
    const char *name;
    double lo, hi;
};

// Every run sweeps the same four parameters (in a seeded order, over
// seeded sub-ranges), so the per-run cost mix does not depend on the
// seed.
constexpr SweptParam kSwept[] = {
    {"h_sw", 0.1, 0.9},
    {"tau", 1.5, 5.0},
    {"csupply_sw", 0.1, 0.9},
    {"amod_sw", 0.05, 0.6},
};

int
gridSteps(const std::string &workload)
{
    if (workload == "sweep_grid")
        return 256; // 4096 cells: solving, not start-up, dominates
    if (workload == "sweep_ckpt")
        return 8; // 128 cells, 16 full-snapshot commits
    throw std::invalid_argument("not a sweep workload: " + workload);
}

SweepJob
randomJob(const SweptParam &p, int steps, SplitMix64 &rng)
{
    SweepJob job;
    job.param = p.name;
    double span = p.hi - p.lo;
    job.from = std::round((p.lo + 0.1 * span * rng.uniform()) * 1e4) / 1e4;
    job.to = std::round((p.hi - 0.1 * span * rng.uniform()) * 1e4) / 1e4;
    job.steps = steps;
    job.n = 16 + static_cast<unsigned>(rng.below(33));
    return job;
}

} // namespace

std::vector<SweepJob>
sweepJobs(const std::string &workload, uint64_t seed)
{
    const int steps = gridSteps(workload);
    SplitMix64 rng(seed * 2 + 1);
    std::vector<size_t> order = {0, 1, 2, 3};
    for (size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    std::vector<SweepJob> jobs;
    for (size_t i : order)
        jobs.push_back(randomJob(kSwept[i], steps, rng));
    return jobs;
}

SweepJob
sweepSetupJob(const std::string &workload, uint64_t seed)
{
    gridSteps(workload); // validates the workload name
    SplitMix64 rng(seed * 2 + 2);
    return randomJob(kSwept[rng.below(4)], 2, rng);
}

} // namespace perfbench
