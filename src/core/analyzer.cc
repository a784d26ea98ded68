#include "core/analyzer.hh"

#include <algorithm>
#include <optional>

#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/contracts.hh"
#include "util/logging.hh"

namespace snoop {

Analyzer::Analyzer(MvaOptions options, BusTiming timing)
    : solver_(options), timing_(timing)
{
    SNOOP_REQUIRE_OK(timing_.check());
}

MvaResult
Analyzer::analyze(const std::string &protocol,
                  const WorkloadParams &workload, unsigned n) const
{
    return tryAnalyze(protocol, workload, n).orThrow();
}

MvaResult
Analyzer::analyze(const ProtocolConfig &protocol,
                  const WorkloadParams &workload, unsigned n) const
{
    return tryAnalyze(protocol, workload, n).orThrow();
}

Expected<MvaResult>
Analyzer::tryAnalyze(const std::string &protocol,
                     const WorkloadParams &workload, unsigned n) const
{
    auto cfg = findProtocol(protocol);
    if (!cfg) {
        return makeError(
            SolveErrorCode::UnknownProtocol, "Analyzer",
            "unknown protocol '%s' (try a catalog name like 'Illinois' "
            "or a mod string like '13')", protocol.c_str());
    }
    return tryAnalyze(*cfg, workload, n);
}

Expected<MvaResult>
Analyzer::tryAnalyze(const ProtocolConfig &protocol,
                     const WorkloadParams &workload, unsigned n) const
{
    metricAdd("analyze.calls");
    ScopedMetricTimer analyze_timer("analyze.call_us");
    TraceSpan analyze_span(TraceLevel::Phase, "analyze", n);
    if (analyze_span.active()) {
        analyze_span.setArgs(
            strprintf("\"protocol\":\"%s\"", protocol.name().c_str()));
    }
    // Check the workload up front: DerivedInputs::compute states it
    // as a precondition (SNOOP_REQUIRE_OK), which exits the process.
    if (auto ok = workload.check(); !ok) {
        return SolveError(ok.error())
            .withContext(strprintf("Analyzer::tryAnalyze(%s, N=%u)",
                                   protocol.name().c_str(), n));
    }
    return solver_.trySolve(
        DerivedInputs::compute(workload, protocol, timing_), n);
}

std::vector<Expected<MvaResult>>
Analyzer::tryAnalyzeBatch(
    const std::vector<AnalysisRequest> &requests) const
{
    std::vector<Expected<MvaResult>> out;
    out.reserve(requests.size());
    std::vector<MvaJob> jobs;
    jobs.reserve(requests.size());
    std::vector<size_t> slot;
    slot.reserve(requests.size());

    // Admission runs serially in request order: the analyze span,
    // analyze.calls, and workload validation happen exactly once per
    // request under its trace task, before any parallel work - that
    // keeps the event stream byte-comparable across SNOOP_JOBS.
    for (size_t i = 0; i < requests.size(); ++i) {
        const AnalysisRequest &req = requests[i];
        std::optional<TraceTaskScope> scope;
        if (req.traceKey != 0)
            scope.emplace(req.traceKey);
        metricAdd("analyze.calls");
        TraceSpan analyze_span(TraceLevel::Phase, "analyze", req.n);
        if (analyze_span.active()) {
            analyze_span.setArgs(strprintf(
                "\"protocol\":\"%s\"", req.protocol.name().c_str()));
        }
        // Check the workload up front: DerivedInputs::compute states
        // it as a precondition (SNOOP_REQUIRE_OK), which exits the
        // process.
        if (auto ok = req.workload.check(); !ok) {
            out.emplace_back(SolveError(ok.error()).withContext(
                strprintf("Analyzer::tryAnalyze(%s, N=%u)",
                          req.protocol.name().c_str(), req.n)));
            continue;
        }
        MvaJob job;
        job.inputs =
            DerivedInputs::compute(req.workload, req.protocol, timing_);
        job.n = req.n;
        job.seed = req.seed;
        job.opts = solver_.options();
        job.traceKey = req.traceKey;
        jobs.push_back(std::move(job));
        slot.push_back(i);
        out.emplace_back(makeError(SolveErrorCode::Internal,
                                   "Analyzer::tryAnalyzeBatch",
                                   "cell %zu pending", i));
    }

    std::vector<Expected<MvaResult>> solved = batch_.solveBatch(jobs);
    for (size_t k = 0; k < solved.size(); ++k)
        out[slot[k]] = std::move(solved[k]);
    return out;
}

std::vector<MvaResult>
Analyzer::sweep(const ProtocolConfig &protocol,
                const WorkloadParams &workload,
                const std::vector<unsigned> &ns) const
{
    return solver_.sweep(
        DerivedInputs::compute(workload, protocol, timing_), ns);
}

std::vector<MvaResult>
Analyzer::rankDesignSpace(const WorkloadParams &workload, unsigned n) const
{
    std::vector<MvaResult> results;
    results.reserve(16);
    for (unsigned idx = 0; idx < 16; ++idx)
        results.push_back(
            analyze(ProtocolConfig::fromIndex(idx), workload, n));
    std::sort(results.begin(), results.end(),
              [](const MvaResult &a, const MvaResult &b) {
                  return a.speedup > b.speedup;
              });
    return results;
}

unsigned
Analyzer::saturationPoint(const ProtocolConfig &protocol,
                          const WorkloadParams &workload, double target,
                          unsigned limit) const
{
    return trySaturationPoint(protocol, workload, target, limit)
        .orThrow();
}

Expected<unsigned>
Analyzer::trySaturationPoint(const ProtocolConfig &protocol,
                             const WorkloadParams &workload,
                             double target, unsigned limit) const
{
    // Negated-inside-the-parens form: a NaN target fails every
    // comparison, so `target <= 0.0 || target > 1.0` waved it
    // through to the binary search. This form rejects NaN along with
    // everything else outside (0, 1].
    if (!(target > 0.0 && target <= 1.0)) {
        return makeError(
            SolveErrorCode::InvalidArgument, "Analyzer::saturationPoint",
            "target = %g must be in (0, 1]", target);
    }
    if (limit == 0) {
        return makeError(
            SolveErrorCode::InvalidArgument, "Analyzer::saturationPoint",
            "limit must be >= 1");
    }
    if (auto ok = workload.check(); !ok) {
        return SolveError(ok.error())
            .withContext(strprintf("Analyzer::trySaturationPoint(%s)",
                                   protocol.name().c_str()));
    }
    auto inputs = DerivedInputs::compute(workload, protocol, timing_);
    // Probes near the knee may end unconverged; the search only
    // compares their busUtil against the target, so they are accepted
    // rather than turned into errors.
    MvaOptions accept = solver_.options();
    accept.onNonConvergence = NonConvergencePolicy::Accept;
    const MvaSolver prober(accept);
    auto probe = [&](unsigned n) -> Expected<double> {
        SNOOP_TRY_OR(const MvaResult &r, prober.trySolve(inputs, n),
                     [&](SolveError &&e) {
                         return std::move(e).withContext(strprintf(
                             "Analyzer::trySaturationPoint(%s, probe N=%u)",
                             protocol.name().c_str(), n));
                     });
        return r.busUtil;
    };
    // Utilization is monotone in N, so binary search.
    unsigned lo = 1, hi = limit;
    SNOOP_TRY(double top, probe(hi));
    if (top < target)
        return 0u;
    while (lo < hi) {
        unsigned mid = lo + (hi - lo) / 2;
        SNOOP_TRY(double u, probe(mid));
        if (u >= target)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace snoop
