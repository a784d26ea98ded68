/**
 * Tests for the canonicalized solution cache: key quantization
 * (sub-quantum perturbations collapse, -0.0 equals +0.0, NaN is
 * rejected at admission), LRU bookkeeping, and the deterministic
 * nearest-neighbor scan that feeds warm-start seeds. A differential
 * test replays random operation streams against a copy of the
 * original single-list cache and requires identical answers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <list>
#include <unordered_map>

#include "random/rng.hh"
#include "serve/cache.hh"

namespace snoop {
namespace {

WorkloadParams
baseWorkload()
{
    return presets::appendixA(SharingLevel::FivePercent);
}

CacheKey
key(const WorkloadParams &wl, unsigned n = 8,
    double quantum = 1e-9)
{
    auto k = canonicalKey(ProtocolConfig::writeOnce(), wl, n, quantum);
    EXPECT_TRUE(bool(k));
    return k ? k.value() : CacheKey{};
}

MvaResult
resultWith(double speedup)
{
    MvaResult r;
    r.speedup = speedup;
    r.wBus = 1.0;
    r.wMem = 0.5;
    r.responseTime = 4.0;
    return r;
}

TEST(ServeCache, SubQuantumPerturbationsShareOneKey)
{
    auto wl = baseWorkload();
    auto a = key(wl);
    wl.hSw += 1e-12; // far below the 1e-9 grid
    auto b = key(wl);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(CacheKeyHash{}(a), CacheKeyHash{}(b));
}

TEST(ServeCache, SupraQuantumPerturbationsSeparate)
{
    auto wl = baseWorkload();
    auto a = key(wl);
    wl.hSw += 1e-6;
    EXPECT_FALSE(a == key(wl));
}

TEST(ServeCache, NegativeZeroCollapsesToPositiveZero)
{
    auto wl = baseWorkload();
    wl.repSw = 0.0;
    auto a = key(wl);
    wl.repSw = -0.0;
    auto b = key(wl);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(CacheKeyHash{}(a), CacheKeyHash{}(b));
}

TEST(ServeCache, NonFiniteFieldsAreRejectedByName)
{
    auto wl = baseWorkload();
    wl.hSw = std::nan("");
    auto k = canonicalKey(ProtocolConfig::writeOnce(), wl, 8, 1e-9);
    ASSERT_FALSE(bool(k));
    EXPECT_EQ(k.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(k.error().message.find("hSw"), std::string::npos);

    wl = baseWorkload();
    wl.tau = INFINITY;
    k = canonicalKey(ProtocolConfig::writeOnce(), wl, 8, 1e-9);
    ASSERT_FALSE(bool(k));
    EXPECT_NE(k.error().message.find("tau"), std::string::npos);
}

TEST(ServeCache, ZeroProcessorsAndBadQuantumAreRejected)
{
    auto wl = baseWorkload();
    EXPECT_FALSE(bool(
        canonicalKey(ProtocolConfig::writeOnce(), wl, 0, 1e-9)));
    EXPECT_FALSE(bool(
        canonicalKey(ProtocolConfig::writeOnce(), wl, 8, 0.0)));
    EXPECT_FALSE(bool(
        canonicalKey(ProtocolConfig::writeOnce(), wl, 8, -1e-9)));
}

TEST(ServeCache, DistinctProtocolsAndSizesSeparate)
{
    auto wl = baseWorkload();
    auto a = canonicalKey(ProtocolConfig::writeOnce(), wl, 8, 1e-9)
                 .value();
    auto b = canonicalKey(ProtocolConfig::fromModString("1"), wl, 8,
                          1e-9)
                 .value();
    auto c = canonicalKey(ProtocolConfig::writeOnce(), wl, 9, 1e-9)
                 .value();
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(ServeCache, FindReturnsInsertedResult)
{
    SolutionCache cache(4);
    auto k = key(baseWorkload());
    EXPECT_EQ(cache.find(k), nullptr);
    cache.insert(k, resultWith(3.0));
    ASSERT_NE(cache.find(k), nullptr);
    EXPECT_EQ(cache.find(k)->speedup, 3.0);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeCache, InsertOverwritesExistingKey)
{
    SolutionCache cache(4);
    auto k = key(baseWorkload());
    cache.insert(k, resultWith(1.0));
    cache.insert(k, resultWith(2.0));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.find(k)->speedup, 2.0);
}

TEST(ServeCache, LruEvictionDropsLeastRecentlyUsed)
{
    SolutionCache cache(2);
    auto wl = baseWorkload();
    auto k1 = key(wl, 1);
    auto k2 = key(wl, 2);
    auto k3 = key(wl, 3);
    cache.insert(k1, resultWith(1.0));
    cache.insert(k2, resultWith(2.0));
    // Touch k1 so k2 becomes the LRU victim.
    EXPECT_NE(cache.find(k1), nullptr);
    cache.insert(k3, resultWith(3.0));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.find(k2), nullptr);
    EXPECT_NE(cache.find(k1), nullptr);
    EXPECT_NE(cache.find(k3), nullptr);
}

TEST(ServeCache, NearestPicksClosestSameProtocolEntry)
{
    SolutionCache cache(8);
    auto wl = baseWorkload();
    auto near = wl;
    near.hSw += 1e-3;
    auto far = wl;
    far.hSw += 0.2;
    cache.insert(key(far), resultWith(7.0));
    MvaResult near_result = resultWith(5.0);
    near_result.wBus = 2.5;
    near_result.responseTime = 6.0;
    cache.insert(key(near), near_result);

    auto seed = cache.nearest(key(wl));
    ASSERT_TRUE(seed.has_value());
    EXPECT_EQ(seed->wBus, 2.5);
    EXPECT_EQ(seed->rTotal, 6.0);
}

TEST(ServeCache, NearestExcludesExactMatchAndOtherProtocols)
{
    SolutionCache cache(8);
    auto wl = baseWorkload();
    auto exact = key(wl);
    cache.insert(exact, resultWith(1.0));
    // The only entry is the exact match: no neighbor.
    EXPECT_FALSE(cache.nearest(exact).has_value());

    // An entry under a different protocol never seeds this one.
    auto other = canonicalKey(ProtocolConfig::fromModString("1"), wl,
                              8, 1e-9)
                     .value();
    cache.insert(other, resultWith(2.0));
    EXPECT_FALSE(cache.nearest(exact).has_value());
}

TEST(ServeCache, NearestOnEmptyCacheIsEmpty)
{
    SolutionCache cache(8);
    EXPECT_FALSE(cache.nearest(key(baseWorkload())).has_value());
}

TEST(ServeCache, ClearDropsEntriesKeepsCounters)
{
    SolutionCache cache(1);
    auto wl = baseWorkload();
    cache.insert(key(wl, 1), resultWith(1.0));
    cache.insert(key(wl, 2), resultWith(2.0)); // evicts
    EXPECT_EQ(cache.evictions(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.find(key(wl, 2)), nullptr);
}

TEST(ServeCache, LruEvictionSpansProtocols)
{
    SolutionCache cache(2);
    auto wl = baseWorkload();
    auto a = canonicalKey(ProtocolConfig::fromIndex(3), wl, 8, 1e-9)
                 .value();
    auto b = canonicalKey(ProtocolConfig::fromIndex(9), wl, 8, 1e-9)
                 .value();
    auto c = canonicalKey(ProtocolConfig::fromIndex(3), wl, 9, 1e-9)
                 .value();
    cache.insert(a, resultWith(1.0));
    cache.insert(b, resultWith(2.0));
    // Overwriting a re-touches it, so b (another protocol) is the
    // global LRU victim even though a's list is the one that grows.
    cache.insert(a, resultWith(1.5));
    cache.insert(c, resultWith(3.0));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.find(b), nullptr);
    ASSERT_NE(cache.find(a), nullptr);
    EXPECT_EQ(cache.find(a)->speedup, 1.5);
    EXPECT_NE(cache.find(c), nullptr);
}

TEST(ServeCache, NearestOutOfRangeProtocolIsEmpty)
{
    SolutionCache cache(8);
    auto k = key(baseWorkload());
    cache.insert(k, resultWith(1.0));
    k.protocolIndex = kProtocolCount;
    k.n = 9;
    EXPECT_FALSE(cache.nearest(k).has_value());
}

TEST(ServeCacheDeathTest, InsertRejectsOutOfRangeProtocol)
{
    SolutionCache cache(8);
    auto k = key(baseWorkload());
    k.protocolIndex = kProtocolCount;
    EXPECT_DEATH(cache.insert(k, resultWith(1.0)),
                 "protocol index out of range");
}

/** A key with workload field 0 at @p field0 and every other field 0. */
CacheKey
dyadicKey(double field0, unsigned protocol = 5, unsigned n = 8)
{
    CacheKey k;
    k.protocolIndex = protocol;
    k.n = n;
    k.workload[0] = field0;
    return k;
}

TEST(ServeCache, NearestTieKeepsMostRecentlyUsed)
{
    // 0.25 and 0.75 sit exactly 0.25 from the 0.5 query (every value
    // is dyadic, so both squared distances are exactly 0.0625).
    SolutionCache cache(8);
    MvaResult low = resultWith(1.0), high = resultWith(2.0);
    low.wBus = 11.0;
    high.wBus = 22.0;
    cache.insert(dyadicKey(0.25), low);
    cache.insert(dyadicKey(0.75), high);
    // A closer entry under another protocol must not interfere.
    cache.insert(dyadicKey(0.5, 6, 9), resultWith(3.0));

    auto seed = cache.nearest(dyadicKey(0.5));
    ASSERT_TRUE(seed.has_value());
    EXPECT_EQ(seed->wBus, 22.0); // inserted last

    // Re-touching the older entry flips the winner.
    ASSERT_NE(cache.find(dyadicKey(0.25)), nullptr);
    seed = cache.nearest(dyadicKey(0.5));
    ASSERT_TRUE(seed.has_value());
    EXPECT_EQ(seed->wBus, 11.0);
}

/**
 * The original single-list cache, kept verbatim (minus metrics) as
 * the oracle for the per-protocol layout: one global LRU list, and a
 * nearest() that walks all of it, skipping other protocols.
 */
class OracleCache
{
  public:
    explicit OracleCache(size_t capacity)
        : capacity_(capacity < 1 ? 1 : capacity)
    {
    }

    size_t size() const { return index_.size(); }
    uint64_t evictions() const { return evictions_; }

    const MvaResult *
    find(const CacheKey &key)
    {
        auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return &it->second->result;
    }

    void
    insert(const CacheKey &key, const MvaResult &result)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->result = result;
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (index_.size() >= capacity_) {
            index_.erase(lru_.back().key);
            lru_.pop_back();
            ++evictions_;
        }
        lru_.push_front(Entry{key, result});
        index_[key] = lru_.begin();
    }

    std::optional<MvaSeed>
    nearest(const CacheKey &key) const
    {
        const Entry *best = nullptr;
        double best_dist = 0.0;
        for (const Entry &entry : lru_) {
            if (entry.key.protocolIndex != key.protocolIndex)
                continue;
            if (entry.key == key)
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
    clear()
    {
        index_.clear();
        lru_.clear();
    }

  private:
    struct Entry
    {
        CacheKey key;
        MvaResult result;
    };

    size_t capacity_;
    uint64_t evictions_ = 0;
    std::list<Entry> lru_;
    std::unordered_map<CacheKey, std::list<Entry>::iterator,
                       CacheKeyHash>
        index_;
};

/** Bitwise seed equality: both empty, or all three fields' bits equal. */
void
expectSameSeed(const std::optional<MvaSeed> &got,
               const std::optional<MvaSeed> &want, const char *where)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (!got)
        return;
    EXPECT_EQ(std::bit_cast<uint64_t>(got->wBus),
              std::bit_cast<uint64_t>(want->wBus))
        << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(got->wMem),
              std::bit_cast<uint64_t>(want->wMem))
        << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(got->rTotal),
              std::bit_cast<uint64_t>(want->rTotal))
        << where;
}

/**
 * A random key over all 16 protocols. Half the keys come from
 * canonicalKey over a jittered Appendix A workload; the other half
 * put small dyadic values in a few fields, so equal distances (ties)
 * and near-duplicates are common.
 */
CacheKey
randomKey(uint64_t &state)
{
    uint64_t r = splitMix64(state);
    unsigned protocol = static_cast<unsigned>(r % kProtocolCount);
    unsigned n = 1 + static_cast<unsigned>((r >> 8) % 6);
    if ((r >> 16) & 1) {
        CacheKey k;
        k.protocolIndex = protocol;
        k.n = n;
        for (unsigned f = 0; f < 3; ++f) {
            uint64_t s = splitMix64(state);
            k.workload[s % kCacheKeyFields] =
                0.25 * static_cast<double>((s >> 8) % 5);
        }
        return k;
    }
    WorkloadParams wl = baseWorkload();
    wl.hSw += 1e-3 * static_cast<double>((r >> 20) % 7);
    wl.pSw += 1e-4 * static_cast<double>((r >> 24) % 3);
    wl.tau += 0.5 * static_cast<double>((r >> 28) % 2);
    return canonicalKey(ProtocolConfig::fromIndex(protocol), wl, n, 1e-9)
        .value();
}

TEST(ServeCache, MatchesSingleListOracleOnRandomStreams)
{
    for (size_t capacity : {1u, 7u, 64u}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            uint64_t state = seed * 0x9e3779b97f4a7c15ull + capacity;
            std::vector<CacheKey> pool;
            for (int i = 0; i < 160; ++i)
                pool.push_back(randomKey(state));

            SolutionCache cache(capacity);
            OracleCache oracle(capacity);
            std::vector<CacheKey> recent;
            for (int op = 0; op < 6000; ++op) {
                uint64_t r = splitMix64(state);
                // Half the draws revisit one of the last few keys, so
                // hits, overwrites and re-touches are frequent.
                const CacheKey &k = !recent.empty() && (r & 1)
                    ? recent[(r >> 1) % recent.size()]
                    : pool[(r >> 1) % pool.size()];
                unsigned kind = static_cast<unsigned>((r >> 32) % 100);
                if (kind < 40) {
                    MvaResult res;
                    res.wBus = static_cast<double>(op) + 0.5;
                    res.wMem = static_cast<double>(op) * 0.25;
                    res.responseTime = static_cast<double>(op) + 3.0;
                    cache.insert(k, res);
                    oracle.insert(k, res);
                } else if (kind < 70) {
                    const MvaResult *got = cache.find(k);
                    const MvaResult *want = oracle.find(k);
                    ASSERT_EQ(got == nullptr, want == nullptr)
                        << "find, op " << op;
                    if (got)
                        expectSameSeed(MvaSeed::fromResult(*got),
                                       MvaSeed::fromResult(*want),
                                       "find");
                } else if (kind < 98) {
                    expectSameSeed(cache.nearest(k), oracle.nearest(k),
                                   "nearest");
                } else {
                    cache.clear();
                    oracle.clear();
                }
                // A probe after every op compares the whole state
                // the scan sees, not just the op's own answer.
                const CacheKey &probe =
                    pool[(r >> 40) % pool.size()];
                expectSameSeed(cache.nearest(probe),
                               oracle.nearest(probe), "probe");
                if (recent.size() < 8)
                    recent.push_back(k);
                else
                    recent[op % 8] = k;
                ASSERT_EQ(cache.size(), oracle.size()) << "op " << op;
                ASSERT_EQ(cache.evictions(), oracle.evictions())
                    << "op " << op;
                if (HasFatalFailure() || HasNonfatalFailure())
                    FAIL() << "capacity " << capacity << ", seed "
                           << seed << ", op " << op;
            }
        }
    }
}

} // namespace
} // namespace snoop
