/** Unit tests for the snoop_parallel execution layer. */

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/guarded.hh"
#include "util/parallel.hh"

namespace snoop {
namespace {

TEST(ThreadPool, StartAndStopAtEverySize)
{
    // Construction spawns the workers; destruction joins them. A pool
    // that wedges on start/stop hangs this test rather than failing.
    for (unsigned workers : {0u, 1u, 2u, 7u}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.workerCount(), workers);
    }
}

TEST(ThreadPool, ParallelForCoversExactlyTheRange)
{
    ThreadPool pool(3);
    for (size_t n : {size_t(0), size_t(1), size_t(2), size_t(17),
                     size_t(1000)}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](size_t i) {
            ASSERT_LT(i, n);
            hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ResultsLandInPreSizedSlots)
{
    ThreadPool pool(4);
    std::vector<double> out(257, -1.0);
    pool.parallelFor(out.size(), [&](size_t i) {
        out[i] = static_cast<double>(i) * 2.0;
    });
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<double>(i) * 2.0);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives a failed region and keeps working.
    std::atomic<size_t> count{0};
    pool.parallelFor(50, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPool, ExceptionCancelsRemainingIndices)
{
    ThreadPool pool(2);
    std::atomic<size_t> executed{0};
    try {
        pool.parallelFor(100000, [&](size_t) {
            executed.fetch_add(1);
            throw std::runtime_error("first");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &) {
    }
    // Cancellation is advisory (indices already claimed still finish)
    // but the bulk of the range must be skipped.
    EXPECT_LT(executed.load(), 100000u);
}

TEST(ThreadPool, NestedCallsRunSerially)
{
    // A nested parallelFor from inside a worker must not deadlock the
    // fixed-size pool; it runs inline on the worker.
    ThreadPool pool(2);
    std::atomic<size_t> inner_total{0};
    pool.parallelFor(8, [&](size_t) {
        pool.parallelFor(8, [&](size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), 64u);
}

TEST(GlobalParallelFor, RespectsJobOverride)
{
    setParallelJobs(3);
    EXPECT_EQ(parallelJobs(), 3u);
    std::vector<int> out(64, 0);
    parallelFor(out.size(), [&](size_t i) { out[i] = 1; });
    for (int v : out)
        EXPECT_EQ(v, 1);
    setParallelJobs(0);
    EXPECT_EQ(parallelJobs(), defaultJobs());
}

TEST(GlobalParallelFor, SerialFallbackAtOneJob)
{
    setParallelJobs(1);
    // With total parallelism 1 everything runs on the calling thread.
    std::vector<size_t> order;
    parallelFor(10, [&](size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i); // strictly in index order when serial
    setParallelJobs(0);
}

TEST(GlobalParallelFor, GuardedCounterIsExact)
{
    // Every worker's read-modify-write goes through the lock handle,
    // so no increment is lost at any job count.
    setParallelJobs(4);
    Guarded<uint64_t> total;
    constexpr size_t kWorkers = 8;
    constexpr uint64_t kAdds = 10000;
    parallelFor(kWorkers, [&](size_t) {
        for (uint64_t k = 0; k < kAdds; ++k) {
            auto value = total.lock();
            *value += 1;
        }
    });
    auto value = total.lock();
    EXPECT_EQ(*value, kWorkers * kAdds);
    setParallelJobs(0);
}

TEST(DefaultJobs, AlwaysPositive)
{
    EXPECT_GE(defaultJobs(), 1u);
}

} // namespace
} // namespace snoop
