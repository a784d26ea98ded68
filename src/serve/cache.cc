#include "serve/cache.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "observe/metrics.hh"

namespace snoop {

bool
CacheKey::operator==(const CacheKey &other) const
{
    return protocolIndex == other.protocolIndex && n == other.n &&
        std::memcmp(workload.data(), other.workload.data(),
                    sizeof workload) == 0;
}

size_t
CacheKeyHash::operator()(const CacheKey &key) const
{
    // FNV-1a over the canonical bytes. The quantized doubles carry
    // canonical bit patterns (no NaN, no -0.0), so hashing bytes is
    // hashing values.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *data, size_t len) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < len; ++i) {
            h ^= p[i];
            h *= 1099511628211ull;
        }
    };
    mix(&key.protocolIndex, sizeof key.protocolIndex);
    mix(&key.n, sizeof key.n);
    mix(key.workload.data(), sizeof key.workload);
    return static_cast<size_t>(h);
}

namespace {

/** The canonicalized fields, in a fixed published order. */
struct NamedField
{
    const char *name;
    double WorkloadParams::*member;
};

constexpr NamedField kFields[kCacheKeyFields] = {
    {"tau", &WorkloadParams::tau},
    {"pPrivate", &WorkloadParams::pPrivate},
    {"pSro", &WorkloadParams::pSro},
    {"pSw", &WorkloadParams::pSw},
    {"hPrivate", &WorkloadParams::hPrivate},
    {"hSro", &WorkloadParams::hSro},
    {"hSw", &WorkloadParams::hSw},
    {"rPrivate", &WorkloadParams::rPrivate},
    {"rSw", &WorkloadParams::rSw},
    {"amodPrivate", &WorkloadParams::amodPrivate},
    {"amodSw", &WorkloadParams::amodSw},
    {"csupplySro", &WorkloadParams::csupplySro},
    {"csupplySw", &WorkloadParams::csupplySw},
    {"wbCsupply", &WorkloadParams::wbCsupply},
    {"repP", &WorkloadParams::repP},
    {"repSw", &WorkloadParams::repSw},
};

} // namespace

Expected<CacheKey>
canonicalKey(const ProtocolConfig &protocol,
             const WorkloadParams &workload, unsigned n, double quantum)
{
    if (n == 0) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "serve::canonicalKey",
                         "need at least one processor");
    }
    if (!(quantum > 0.0) || !std::isfinite(quantum)) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "serve::canonicalKey",
                         "quantum %g must be positive and finite",
                         quantum);
    }
    CacheKey key;
    key.protocolIndex = protocol.index();
    key.n = n;
    for (size_t i = 0; i < kCacheKeyFields; ++i) {
        double v = workload.*(kFields[i].member);
        if (!std::isfinite(v)) {
            return makeError(
                SolveErrorCode::InvalidArgument, "serve::canonicalKey",
                "workload field %s = %g is not finite",
                kFields[i].name, v);
        }
        // Snap to the grid; "+ 0.0" collapses -0.0 to +0.0 so the
        // two zero bit patterns share one key.
        key.workload[i] = std::round(v / quantum) * quantum + 0.0;
    }
    return key;
}

SolutionCache::SolutionCache(size_t capacity, double quantum)
    : capacity_(capacity < 1 ? 1 : capacity), quantum_(quantum)
{
    SNOOP_REQUIRE(quantum > 0.0 && std::isfinite(quantum),
                  "SolutionCache: quantum must be positive and finite");
}

const MvaResult *
SolutionCache::find(const CacheKey &key)
{
    Lru::iterator *it = index_.find(key);
    if (it == nullptr)
        return nullptr;
    lru_.splice(lru_.begin(), lru_, *it);
    return &(*it)->result;
}

void
SolutionCache::insert(const CacheKey &key, MvaResult result)
{
    SNOOP_REQUIRE(key.protocolIndex < kProtocolCount,
                  "SolutionCache: protocol index out of range");
    if (Lru::iterator *it = index_.find(key)) {
        (*it)->result = std::move(result);
        lru_.splice(lru_.begin(), lru_, *it);
        return;
    }
    if (index_.size() >= capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
        metricAdd("serve.evictions");
    }
    lru_.push_front(Entry{key, std::move(result)});
    index_.insertOrAssign(key, lru_.begin());
}

std::optional<MvaSeed>
SolutionCache::nearest(const CacheKey &key) const
{
    const Entry *best = nullptr;
    double best_dist = 0.0;
    for (const Entry &entry : lru_) {
        if (entry.key.protocolIndex != key.protocolIndex ||
            entry.key == key)
            continue;
        double dist = 0.0;
        for (size_t i = 0; i < kCacheKeyFields; ++i) {
            double a = key.workload[i], b = entry.key.workload[i];
            double scale =
                std::max({1.0, std::fabs(a), std::fabs(b)});
            double d = (a - b) / scale;
            dist += d * d;
        }
        double dn = (static_cast<double>(key.n) -
                     static_cast<double>(entry.key.n)) /
            static_cast<double>(std::max(key.n, entry.key.n));
        dist += dn * dn;
        // Strict '<' keeps the earliest (most recently used) entry
        // on ties, so the choice is a pure function of the request
        // history.
        if (best == nullptr || dist < best_dist) {
            best = &entry;
            best_dist = dist;
        }
    }
    if (best == nullptr)
        return std::nullopt;
    return MvaSeed::fromResult(best->result);
}

void
SolutionCache::clear()
{
    index_.clear();
    lru_.clear();
}

} // namespace snoop
