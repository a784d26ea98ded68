#pragma once

/**
 * @file
 * The traced run's span recorder. Spans are recorded by the
 * benchmark around its calls into each layer, kept in memory, and
 * summarized per layer name at the end: count, inclusive time, self
 * time (duration minus the time covered by child spans), and every
 * duration for percentiles. A disabled recorder costs one branch per
 * span, which is what the untraced replay pays.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        long parent; ///< index of the enclosing span; -1 for a root
    };

    static constexpr size_t kOff = static_cast<size_t>(-1);

    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    size_t open(const char *name)
    {
        if (!on_)
            return kOff;
        long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
        spans_.push_back(Span{name, nowNs(), 0, parent});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void close(size_t index)
    {
        if (index == kOff)
            return;
        spans_[index].endNs = nowNs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    static int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    bool on_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** Records one span for the lifetime of the scope. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.open(name))
    {
    }
    ~SpanScope() { tracer_.close(index_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    size_t index_;
};

/** Per-name summary of a trace. */
struct LayerStats
{
    size_t count = 0;
    double totalUs = 0.0;          ///< inclusive
    double selfUs = 0.0;           ///< minus child spans
    std::vector<double> durUs;     ///< each span's inclusive duration
};

/** The trace's accounting: roots are the in-process total. */
struct TraceSummary
{
    std::map<std::string, LayerStats> layers; ///< non-root spans
    double rootUs = 0.0;      ///< sum of root span durations
    double layerSelfUs = 0.0; ///< sum of non-root self times
    std::vector<double> rootDurUs;
};

TraceSummary summarize(const Tracer &tracer);

} // namespace perfbench
