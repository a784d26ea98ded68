#include "util/parallel.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/guarded.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

/** Set while a thread is executing pool work (nested-call detection). */
thread_local bool t_inPoolWorker = false;

/** Shared state of one parallelFor invocation. */
struct ForState
{
    size_t n = 0;
    const std::function<void(size_t)> *fn = nullptr;
    std::atomic<size_t> next{0};     ///< next unclaimed index
    std::atomic<size_t> finished{0}; ///< indices accounted for
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;
};

/**
 * Claim and run indices until the range is exhausted. Exceptions
 * cancel the remaining indices; every claimed index still counts
 * toward completion so the caller always wakes.
 */
void
runIndices(ForState &state)
{
    for (;;) {
        size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= state.n)
            return;
        if (!state.cancelled.load(std::memory_order_relaxed)) {
            try {
                (*state.fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state.mutex);
                if (!state.error)
                    state.error = std::current_exception();
                state.cancelled.store(true, std::memory_order_relaxed);
            }
        }
        if (state.finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            state.n) {
            // Lock so the notify cannot race the caller between its
            // predicate check and its wait.
            std::lock_guard<std::mutex> lock(state.mutex);
            state.done.notify_all();
        }
    }
}

} // namespace

struct ThreadPool::Impl
{
    std::vector<std::thread> workers;
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<std::function<void()>> tasks;
    bool stopping = false;

    void
    workerLoop()
    {
        t_inPoolWorker = true;
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex);
                wake.wait(lock,
                          [this] { return stopping || !tasks.empty(); });
                if (stopping && tasks.empty())
                    return;
                task = std::move(tasks.front());
                tasks.pop_front();
            }
            task();
        }
    }
};

ThreadPool::ThreadPool(unsigned workers) : impl_(new Impl)
{
    impl_->workers.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        impl_->workers.emplace_back([this] { impl_->workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->wake.notify_all();
    for (auto &w : impl_->workers) {
        // exit() from inside a task runs static destructors - and so
        // this one - on a worker thread; joining that thread would
        // self-deadlock, so let process teardown reap it instead.
        if (w.get_id() == std::this_thread::get_id())
            w.detach();
        else
            w.join();
    }
}

unsigned
ThreadPool::workerCount() const
{
    return static_cast<unsigned>(impl_->workers.size());
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1 || impl_->workers.empty() || t_inPoolWorker) {
        // Serial fallback; nested calls run inline on the worker so a
        // fixed-size pool cannot deadlock on itself.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto state = std::make_shared<ForState>();
    state->n = n;
    state->fn = &fn;

    // Enqueue one helper per worker (capped at the range size); the
    // calling thread participates too, so helpers that arrive after
    // the range drained simply return.
    size_t helpers = std::min<size_t>(impl_->workers.size(), n);
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        for (size_t h = 0; h < helpers; ++h)
            impl_->tasks.emplace_back([state] { runIndices(*state); });
    }
    impl_->wake.notify_all();

    runIndices(*state);
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(lock, [&] {
            return state->finished.load(std::memory_order_acquire) ==
                state->n;
        });
    }
    if (state->error)
        std::rethrow_exception(state->error);
}

namespace {

/** The process-wide pool and the job count it is (re)built at. */
struct PoolState
{
    std::unique_ptr<ThreadPool> pool;
    unsigned jobsOverride = 0; ///< setParallelJobs(); 0 = SNOOP_JOBS
};

Guarded<PoolState> g_pool;

ThreadPool &
globalPool()
{
    auto state = g_pool.lock();
    if (!state->pool) {
        unsigned jobs =
            state->jobsOverride ? state->jobsOverride : defaultJobs();
        state->pool = std::make_unique<ThreadPool>(jobs - 1);
    }
    return *state->pool;
}

} // namespace

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SNOOP_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<unsigned>(v);
        warn("SNOOP_JOBS='%s' is not a positive integer; using "
             "hardware concurrency", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
setParallelJobs(unsigned jobs)
{
    auto state = g_pool.lock();
    state->jobsOverride = jobs;
    state->pool.reset(); // lazily recreated at the new size
}

unsigned
parallelJobs()
{
    {
        auto state = g_pool.lock();
        if (state->jobsOverride)
            return state->jobsOverride;
    }
    return defaultJobs();
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    // The region span is recorded from the *calling* thread on every
    // path (serial, nested, pooled), so the event exists - with the
    // same identity - at any SNOOP_JOBS. Per-worker batch spans are
    // deliberately not recorded: which worker runs which index is
    // scheduling, not behavior.
    TraceSpan region_span(TraceLevel::Phase, "parallel.for", n);
    metricAdd("parallel.for.calls");
    if (n <= 1 || t_inPoolWorker) {
        // Skip pool construction entirely for trivial or nested calls.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    globalPool().parallelFor(n, fn);
}

} // namespace snoop
