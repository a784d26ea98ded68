/**
 * Tests for the canonicalized solution cache: key quantization
 * (sub-quantum perturbations collapse, -0.0 equals +0.0, NaN is
 * rejected at admission), LRU bookkeeping, and the deterministic
 * nearest-neighbor scan.
 */

#include <gtest/gtest.h>

#include <cmath>

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
    // LRU victim even though c shares a's protocol.
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

} // namespace
} // namespace snoop
