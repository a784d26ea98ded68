#include <algorithm>
#include <cmath>

#include "bench.hh"
#include "spans.hh"

namespace perfbench {

void
Report::fail(const std::string &message)
{
    ++failed_;
    if (failures_.size() < 10)
        failures_.push_back(message);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    // A ratio over an empty set (an idle layer) has no value; report
    // the measured nothing as 0 rather than emit a non-JSON NaN.
    metrics_.push_back(
        Metric{name, std::isfinite(value) ? value : 0.0, unit, note});
}

void
Report::printedOnly(const std::string &name, double value,
                    const std::string &unit, const std::string &note)
{
    printed_.push_back(
        Metric{name, std::isfinite(value) ? value : 0.0, unit, note});
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

/** Windows of @p n samples: kWindows, or one when there are fewer. */
size_t
windowCount(size_t n)
{
    return n < kWindows ? 1 : kWindows;
}

} // namespace

double
windowedQuantile(const std::vector<double> &samples, double q)
{
    const size_t n = samples.size(), windows = windowCount(n);
    std::vector<double> perWindow;
    for (size_t w = 0; w < windows; ++w) {
        perWindow.push_back(
            quantile(std::vector<double>(samples.begin() + n * w / windows,
                                         samples.begin() +
                                             n * (w + 1) / windows),
                     q));
    }
    return quantile(perWindow, 0.5);
}

double
windowedRate(const std::vector<double> &seconds,
             const std::vector<double> &units)
{
    const size_t n = seconds.size(), windows = windowCount(n);
    std::vector<double> perWindow;
    for (size_t w = 0; w < windows; ++w) {
        const size_t b = n * w / windows, e = n * (w + 1) / windows;
        double s = 0.0, u = 0.0;
        for (size_t i = b; i < e; ++i) {
            s += seconds[i];
            u += units[i];
        }
        perWindow.push_back(s > 0.0 ? u / s : 0.0);
    }
    return quantile(perWindow, 0.5);
}

uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

TraceSummary
summarize(const Tracer &tracer)
{
    const auto &spans = tracer.spans();
    std::vector<double> childUs(spans.size(), 0.0);
    for (const Tracer::Span &s : spans) {
        if (s.parent >= 0)
            childUs[static_cast<size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs) / 1e3;
    }
    TraceSummary out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        double dur = static_cast<double>(s.endNs - s.startNs) / 1e3;
        if (s.parent < 0) {
            out.rootUs += dur;
            out.rootDurUs.push_back(dur);
            continue;
        }
        LayerStats &l = out.layers[s.name];
        ++l.count;
        l.totalUs += dur;
        l.selfUs += dur - childUs[i];
        l.durUs.push_back(dur);
        out.layerSelfUs += dur - childUs[i];
    }
    return out;
}

} // namespace perfbench
