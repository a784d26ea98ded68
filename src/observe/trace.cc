#include "observe/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "observe/metrics.hh"
#include "util/atomic_file.hh"
#include "util/guarded.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

namespace {

// Hard cap on buffered events: a runaway iteration-level trace of a
// huge sweep degrades to dropped events (counted and reported), not
// to memory exhaustion.
constexpr size_t kMaxEvents = size_t(1) << 22; // ~4M events

// g_level is the fast path: Off (the default) means every hook
// returns after one relaxed load. The buffer and configuration are
// Guarded; configuration changes must not race active parallel
// regions (same contract as setFaultSpecs / setParallelJobs).
std::atomic<int> g_level{static_cast<int>(TraceLevel::Off)};
std::atomic<uint64_t> g_dropped{0};
std::once_flag g_env_once;
std::once_flag g_atexit_once;

/** The event buffer and output configuration. */
struct TraceState
{
    std::vector<TraceEvent> events;
    std::string tracePath;
    std::string metricsPath;
    bool finalized = false;
    /** Recording threads in first-event order; display id = index + 1. */
    std::vector<std::thread::id> threadIds;
};

// constinit: a hook that runs during another file's static
// initialization must find the state already constructed.
constinit Guarded<TraceState> g_state;

// The deterministic event identity: which task scope this thread is
// recording under, and how many events that scope has recorded. Both
// are pure functions of the work item, never of the worker schedule.
thread_local uint64_t t_task = 0;
thread_local uint64_t t_seq = 0;

double
nowMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - t0)
        .count();
}

/** Small dense display id for the recording thread. */
uint64_t
threadDisplayId(TraceState &state)
{
    std::vector<std::thread::id> &ids = state.threadIds;
    const std::thread::id self = std::this_thread::get_id();
    auto it = std::find(ids.begin(), ids.end(), self);
    if (it == ids.end())
        it = ids.insert(ids.end(), self);
    return static_cast<uint64_t>(it - ids.begin()) + 1;
}

/** Append one event (or count a drop past the cap). */
void
record(const char *name, uint64_t key, std::string args, char phase,
       double ts_us, double dur_us)
{
    uint64_t task = t_task;
    uint64_t seq = t_seq++;
    auto state = g_state.lock();
    if (state->events.size() >= kMaxEvents) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    state->events.push_back(TraceEvent{name, task, seq, key,
                                       std::move(args), phase, ts_us,
                                       dur_us, threadDisplayId(*state)});
}

bool
identityLess(const TraceEvent &a, const TraceEvent &b)
{
    if (a.task != b.task)
        return a.task < b.task;
    if (a.seq != b.seq)
        return a.seq < b.seq;
    if (a.name != b.name)
        return a.name < b.name;
    if (a.key != b.key)
        return a.key < b.key;
    return a.args < b.args;
}

/** Minimal JSON string escaping (names/args are ASCII identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += strprintf("\\u%04x", c);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void
installTrace(TraceLevel level, std::string path)
{
    auto state = g_state.lock();
    state->tracePath = std::move(path);
    g_level.store(static_cast<int>(level), std::memory_order_release);
}

/**
 * Arrange for observeFinalize() to run at normal process exit. fatal()
 * terminates via _Exit, which skips this on purpose: a half-traced
 * failed run writes nothing rather than a misleading file.
 */
void
registerAtExit()
{
    std::call_once(g_atexit_once,
                   [] { std::atexit([] { observeFinalize(); }); });
}

void
loadEnvImpl()
{
    const char *trace = std::getenv("SNOOP_TRACE");
    if (trace && !trim(trace).empty()) {
        std::string spec = trim(trace);
        TraceLevel level = TraceLevel::Iteration;
        // The level suffix is the field after the last ':' - but only
        // when it names a level, so plain paths may contain colons.
        size_t colon = spec.rfind(':');
        if (colon != std::string::npos) {
            std::string suffix = toLower(trim(spec.substr(colon + 1)));
            if (suffix == "phase" || suffix == "iteration") {
                level = suffix == "phase" ? TraceLevel::Phase
                                          : TraceLevel::Iteration;
                spec = trim(spec.substr(0, colon));
            } else if (suffix == "off" || suffix.empty()) {
                fatal("SNOOP_TRACE: bad level ':%s' in '%s' "
                      "(expected :phase or :iteration)",
                      suffix.c_str(), trace);
            }
        }
        if (spec.empty()) {
            fatal("SNOOP_TRACE: empty path in '%s'", trace);
        }
        installTrace(level, spec);
        registerAtExit();
    }
    const char *metricsPath = std::getenv("SNOOP_METRICS");
    if (metricsPath && !trim(metricsPath).empty()) {
        {
            auto state = g_state.lock();
            state->metricsPath = trim(metricsPath);
        }
        metrics().setEnabled(true);
        registerAtExit();
    }
}

void
markEnvConsumed()
{
    std::call_once(g_env_once, [] {});
}

} // namespace

std::string
TraceEvent::identity() const
{
    return strprintf("%llu/%llu %s key=%llu %c {%s}",
                     static_cast<unsigned long long>(task),
                     static_cast<unsigned long long>(seq), name.c_str(),
                     static_cast<unsigned long long>(key), phase,
                     args.c_str());
}

void
observeEnsureConfigured()
{
    std::call_once(g_env_once, [] { loadEnvImpl(); });
}

bool
traceEnabled(TraceLevel level)
{
    observeEnsureConfigured();
    return g_level.load(std::memory_order_acquire) >=
        static_cast<int>(level);
}

void
traceInstant(TraceLevel level, const char *name, uint64_t key,
             std::string args)
{
    if (!traceEnabled(level))
        return;
    record(name, key, std::move(args), 'i', nowMicros(), 0.0);
}

TraceSpan::TraceSpan(TraceLevel level, const char *name, uint64_t key)
    : name_(name), key_(key), active_(traceEnabled(level))
{
    if (!active_)
        return;
    // The seq slot is claimed at construction so a span orders before
    // the events recorded inside it, matching the timeline nesting.
    seq_ = t_seq++;
    start_us_ = nowMicros();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    double end_us = nowMicros();
    uint64_t task = t_task;
    auto state = g_state.lock();
    if (state->events.size() >= kMaxEvents) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    state->events.push_back(TraceEvent{name_, task, seq_, key_,
                                       std::move(args_), 'X', start_us_,
                                       end_us - start_us_,
                                       threadDisplayId(*state)});
}

TraceTaskScope::TraceTaskScope(uint64_t task)
    : saved_task_(t_task), saved_seq_(t_seq)
{
    t_task = task;
    t_seq = 0;
}

TraceTaskScope::~TraceTaskScope()
{
    t_task = saved_task_;
    t_seq = saved_seq_;
}

void
setTrace(TraceLevel level, std::string path)
{
    markEnvConsumed();
    installTrace(level, std::move(path));
}

void
clearTrace()
{
    markEnvConsumed();
    {
        auto state = g_state.lock();
        g_level.store(static_cast<int>(TraceLevel::Off),
                      std::memory_order_release);
        state->events.clear();
        state->tracePath.clear();
        g_dropped.store(0, std::memory_order_relaxed);
    }
    // Restart the calling thread's root sequence so a later re-enable
    // produces the same event identities as a fresh process would.
    t_task = 0;
    t_seq = 0;
}

void
reloadObserveFromEnv()
{
    markEnvConsumed();
    loadEnvImpl();
}

std::vector<TraceEvent>
snapshotTraceEvents()
{
    std::vector<TraceEvent> events;
    {
        auto state = g_state.lock();
        events = state->events;
    }
    std::stable_sort(events.begin(), events.end(), identityLess);
    return events;
}

uint64_t
droppedTraceEvents()
{
    return g_dropped.load(std::memory_order_relaxed);
}

Expected<void>
writeTraceJson(const std::string &path)
{
    std::vector<TraceEvent> events = snapshotTraceEvents();
    AtomicFile out(path);
    if (!out.ok()) {
        return makeError(SolveErrorCode::IoError, "writeTraceJson",
                         "cannot open '%s' for writing", path.c_str());
    }
    auto &os = out.stream();
    os << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &e = events[i];
        os << strprintf(
            "{\"name\":\"%s\",\"cat\":\"snoop\",\"ph\":\"%c\","
            "\"ts\":%.3f,",
            jsonEscape(e.name).c_str(), e.phase, e.ts_us);
        if (e.phase == 'X')
            os << strprintf("\"dur\":%.3f,", e.dur_us);
        else
            os << "\"s\":\"t\",";
        os << strprintf(
            "\"pid\":1,\"tid\":%llu,\"args\":{\"task\":%llu,"
            "\"seq\":%llu,\"key\":%llu",
            static_cast<unsigned long long>(e.tid),
            static_cast<unsigned long long>(e.task),
            static_cast<unsigned long long>(e.seq),
            static_cast<unsigned long long>(e.key));
        if (!e.args.empty())
            os << "," << e.args;
        os << "}}";
        if (i + 1 < events.size())
            os << ",";
        os << "\n";
    }
    os << "]}\n";
    return out.commit();
}

void
observeFinalize()
{
    observeEnsureConfigured();
    std::string tracePath, metricsPath;
    size_t eventCount = 0;
    {
        auto state = g_state.lock();
        if (state->finalized)
            return;
        state->finalized = true;
        tracePath = state->tracePath;
        metricsPath = state->metricsPath;
        eventCount = state->events.size();
    }
    bool traced = !tracePath.empty() &&
        g_level.load(std::memory_order_acquire) !=
            static_cast<int>(TraceLevel::Off);
    if (traced) {
        auto ok = writeTraceJson(tracePath);
        if (!ok) {
            warn("observe: trace not written: %s",
                 ok.error().describe().c_str());
            traced = false;
        }
    }
    bool metered = !metricsPath.empty();
    if (metered) {
        auto ok = metrics().writeCsv(metricsPath);
        if (!ok) {
            warn("observe: metrics not written: %s",
                 ok.error().describe().c_str());
            metered = false;
        }
    }
    if (!traced && !metered)
        return;
    std::string line = "observe:";
    if (traced) {
        uint64_t dropped = droppedTraceEvents();
        line += strprintf(" %zu events%s -> %s", eventCount,
                          dropped ? strprintf(" (%llu dropped)",
                                              static_cast<unsigned long long>(
                                                  dropped))
                                        .c_str()
                                  : "",
                          tracePath.c_str());
    }
    if (metered) {
        std::string s = metrics().summary();
        line += strprintf("%s %s -> %s", traced ? ";" : "",
                          s.empty() ? "no metrics recorded" : s.c_str(),
                          metricsPath.c_str());
    }
    inform("%s", line.c_str());
}

void
observeReset()
{
    markEnvConsumed();
    {
        auto state = g_state.lock();
        g_level.store(static_cast<int>(TraceLevel::Off),
                      std::memory_order_release);
        state->events.clear();
        state->tracePath.clear();
        state->metricsPath.clear();
        g_dropped.store(0, std::memory_order_relaxed);
        state->finalized = false;
    }
    metrics().setEnabled(false);
    metrics().reset();
    t_task = 0; // restart the calling thread's root sequence
    t_seq = 0;
}

} // namespace snoop
