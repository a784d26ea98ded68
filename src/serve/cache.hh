#pragma once

/**
 * @file
 * The memoized solution cache behind snoop_serve: canonicalized keys
 * over (protocol, workload, N) and LRU eviction (docs/SERVING.md).
 *
 * Key canonicalization quantizes every workload field to a fixed
 * grid, so two requests that differ below the solver's resolving
 * power (default quantum 1e-9, an order under the 1e-10 convergence
 * tolerance) hash to the same entry; -0.0 collapses to +0.0 and
 * non-finite fields are rejected at admission - NaN never reaches
 * the solver through this layer.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>

#include "mva/result.hh"
#include "mva/solver.hh"
#include "protocol/config.hh"
#include "util/expected.hh"
#include "util/lookup_map.hh"
#include "workload/params.hh"

namespace snoop {

/** Number of workload fields a key canonicalizes (WorkloadParams). */
inline constexpr size_t kCacheKeyFields = 16;

/**
 * A canonical cache key: protocol index, system size, and the
 * quantized workload fields. Equality is bitwise (canonicalKey never
 * produces NaN or -0.0, so bitwise equality is value equality).
 */
struct CacheKey
{
    unsigned protocolIndex = 0;
    unsigned n = 0;
    std::array<double, kCacheKeyFields> workload{};

    bool operator==(const CacheKey &other) const;
};

/** FNV-1a over the key bytes (quantized doubles have canonical bits). */
struct CacheKeyHash
{
    size_t operator()(const CacheKey &key) const;
};

/**
 * Canonicalize one query. Errors with InvalidArgument on n == 0, a
 * non-positive quantum, or any non-finite workload field (named in
 * the message) - the admission-control half of the cache contract.
 */
Expected<CacheKey> canonicalKey(const ProtocolConfig &protocol,
                                const WorkloadParams &workload,
                                unsigned n, double quantum);

/**
 * A bounded LRU map from canonical keys to finished solves. Not
 * internally synchronized: the serve engine mutates it only from the
 * serial phases around each batch (see SolveService::handleBatch).
 */
class SolutionCache
{
  public:
    /**
     * @param capacity maximum entries (>= 1) before LRU eviction
     * @param quantum  canonicalization grid step (> 0)
     */
    explicit SolutionCache(size_t capacity = 4096,
                           double quantum = 1e-9);

    /** The canonicalization grid step. */
    double quantum() const { return quantum_; }

    /** Entries currently held. */
    size_t size() const { return index_.size(); }

    /** The eviction bound. */
    size_t capacity() const { return capacity_; }

    /** Total evictions since construction. */
    uint64_t evictions() const { return evictions_; }

    /**
     * The cached result for @p key, or nullptr. A hit refreshes the
     * entry's LRU position; the pointer is valid until the next
     * insert().
     */
    const MvaResult *find(const CacheKey &key);

    /**
     * Insert or overwrite @p key, evicting the least recently used
     * entry if full. Requires key.protocolIndex < kProtocolCount.
     * The result is taken by value, so a caller done with its solve
     * moves it in instead of copying its attempts and inputs.
     */
    void insert(const CacheKey &key, MvaResult result);

    /**
     * The seed of the nearest cached neighbor: same protocol, any
     * (workload, n), by squared relative distance over the key
     * fields. Exact matches are excluded (they are find()'s
     * business). The scan walks the whole LRU list, most recently
     * used first, skipping other protocols; ties keep the most
     * recently used entry. SolveService does not call it (every
     * miss is a cold solve); perfbench's traced replay does.
     */
    std::optional<MvaSeed> nearest(const CacheKey &key) const;

    /** Drop every entry (counters are unchanged). */
    void clear();

  private:
    struct Entry
    {
        CacheKey key;
        MvaResult result;
    };
    using Lru = std::list<Entry>;

    size_t capacity_;
    double quantum_;
    uint64_t evictions_ = 0;
    Lru lru_; // front = most recently used
    LookupMap<CacheKey, Lru::iterator, CacheKeyHash> index_;
};

} // namespace snoop
