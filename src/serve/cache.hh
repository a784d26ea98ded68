#pragma once

/**
 * @file
 * The memoized solution cache behind snoop_serve: canonicalized keys
 * over (protocol, workload, N), LRU eviction, and nearest-neighbor
 * lookup for warm-start continuation (docs/SERVING.md).
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
 * A bounded LRU map from canonical keys to finished solves, plus the
 * nearest-neighbor scan that feeds warm-start seeds. Not internally
 * synchronized: the serve engine mutates it only from the serial
 * phases around each batch (see SolveService::handleBatch).
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
     * entry (across all protocols) if full. Requires
     * key.protocolIndex < kProtocolCount.
     */
    void insert(const CacheKey &key, const MvaResult &result);

    /**
     * The seed of the nearest cached neighbor: same protocol, any
     * (workload, n), by squared relative distance over the key
     * fields. Exact matches are excluded (they are find()'s
     * business). Only the request protocol's recency list is
     * scanned, most recently used first, so the visit order is the
     * single global LRU order restricted to that protocol.
     * Deterministic: ties keep the most recently used entry - a pure
     * function of the request history, never of thread scheduling.
     * An out-of-range protocol index has no neighbors.
     */
    std::optional<MvaSeed> nearest(const CacheKey &key) const;

    /** Drop every entry (counters are unchanged). */
    void clear();

  private:
    struct Entry
    {
        CacheKey key;
        MvaResult result;
        uint64_t lastUse; ///< clock_ at the last insert or hit
    };
    using Recency = std::list<Entry>;

    /** Move @p it to the front of its protocol's list and stamp it. */
    void touch(Recency::iterator it);

    size_t capacity_;
    double quantum_;
    uint64_t evictions_ = 0;
    uint64_t clock_ = 0; // bumped on every insert and hit
    // One list per protocol, front = most recently used. Each list is
    // the global LRU order restricted to its protocol, so the global
    // LRU entry is the list tail with the smallest lastUse.
    std::array<Recency, kProtocolCount> recency_;
    LookupMap<CacheKey, Recency::iterator, CacheKeyHash> index_;
};

} // namespace snoop
