#include "observe/metrics.hh"

#include <chrono>

#include "observe/trace.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

double
nowMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - t0)
        .count();
}

} // namespace

void
MetricsRegistry::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_release);
}

bool
MetricsRegistry::enabled() const
{
    return enabled_.load(std::memory_order_acquire);
}

void
MetricsRegistry::add(const char *name, double delta)
{
    if (!enabled())
        return;
    auto slots = slots_.lock();
    Slot &slot = (*slots)[name];
    slot.kind = 'c';
    slot.count += 1;
    slot.total += delta;
}

void
MetricsRegistry::set(const char *name, double value)
{
    if (!enabled())
        return;
    auto slots = slots_.lock();
    Slot &slot = (*slots)[name];
    slot.kind = 'g';
    slot.count = 1;
    slot.total = value;
}

void
MetricsRegistry::recordTime(const char *name, double us)
{
    if (!enabled())
        return;
    auto slots = slots_.lock();
    Slot &slot = (*slots)[name];
    slot.kind = 't';
    slot.count += 1;
    slot.total += us;
}

std::vector<MetricEntry>
MetricsRegistry::snapshot() const
{
    std::vector<MetricEntry> entries;
    auto slots = slots_.lock();
    entries.reserve(slots->size());
    for (const auto &[name, slot] : *slots)
        entries.push_back({name, slot.kind, slot.count, slot.total});
    return entries; // std::map iteration is already name-sorted
}

Expected<void>
MetricsRegistry::writeCsv(const std::string &path) const
{
    std::vector<MetricEntry> entries = snapshot();
    AtomicFile out(path);
    if (!out.ok()) {
        return makeError(SolveErrorCode::IoError,
                         "MetricsRegistry::writeCsv",
                         "cannot open '%s' for writing", path.c_str());
    }
    auto &os = out.stream();
    os << "kind,name,count,total,mean\n";
    for (const auto &e : entries) {
        double mean = e.count ? e.total / static_cast<double>(e.count)
                              : 0.0;
        os << strprintf("%c,%s,%llu,%.17g,%.17g\n", e.kind,
                        e.name.c_str(),
                        static_cast<unsigned long long>(e.count),
                        e.total, mean);
    }
    return out.commit();
}

std::string
MetricsRegistry::summary() const
{
    std::vector<MetricEntry> entries = snapshot();
    if (entries.empty())
        return std::string();
    size_t counters = 0, gauges = 0, timers = 0;
    const MetricEntry *slowest = nullptr;
    for (const auto &e : entries) {
        if (e.kind == 'c')
            ++counters;
        else if (e.kind == 'g')
            ++gauges;
        else {
            ++timers;
            if (!slowest || e.total > slowest->total)
                slowest = &e;
        }
    }
    std::string line =
        strprintf("%zu counters, %zu gauges, %zu timers", counters,
                  gauges, timers);
    if (slowest) {
        line += strprintf("; %s %llux %.1fms", slowest->name.c_str(),
                          static_cast<unsigned long long>(slowest->count),
                          slowest->total / 1000.0);
    }
    return line;
}

void
MetricsRegistry::reset()
{
    auto slots = slots_.lock();
    slots->clear();
}

MetricsRegistry &
metrics()
{
    // snoop-lint: lockset-ok (justification: tools/lint/allowlist.txt)
    static MetricsRegistry registry;
    return registry;
}

void
metricAdd(const char *name, double delta)
{
    observeEnsureConfigured();
    metrics().add(name, delta);
}

void
metricSet(const char *name, double value)
{
    observeEnsureConfigured();
    metrics().set(name, value);
}

ScopedMetricTimer::ScopedMetricTimer(const char *name) : name_(name)
{
    observeEnsureConfigured();
    active_ = metrics().enabled();
    if (active_)
        start_us_ = nowMicros();
}

ScopedMetricTimer::~ScopedMetricTimer()
{
    if (active_)
        metrics().recordTime(name_, nowMicros() - start_us_);
}

} // namespace snoop
