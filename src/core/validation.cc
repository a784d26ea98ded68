#include "core/validation.hh"

#include <algorithm>
#include <cmath>

#include "mva/solver.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/strutil.hh"

namespace snoop {

std::vector<ComparisonPoint>
validate(const ValidationConfig &config)
{
    MvaSolver solver;
    auto inputs = DerivedInputs::compute(config.workload, config.protocol,
                                         config.timing);
    // One MVA-vs-simulation comparison per N, evaluated in parallel
    // into pre-sized slots (each point's seed depends only on N, so
    // the output is identical to the serial loop at any thread count).
    std::vector<ComparisonPoint> points(config.ns.size());
    ScopedMetricTimer validate_timer("validate.run_us");
    TraceSpan validate_span(TraceLevel::Phase, "validate.run",
                            config.ns.size());
    parallelFor(config.ns.size(), [&](size_t i) {
        unsigned n = config.ns[i];
        ComparisonPoint &p = points[i];
        p.numProcessors = n;
        TraceTaskScope task(i + 1);
        TraceSpan point_span(TraceLevel::Phase, "validate.point", i);
        if (point_span.active())
            point_span.setArgs(strprintf("\"n\":%u", n));
        metricAdd("validate.points");
        // Isolate failures per point: an exception escaping into
        // parallelFor would cancel the remaining comparison points.
        try {
            if (faultFires("validate.point", i)) {
                throw SolveException(
                    injectedFault("validate.point", i));
            }
            p.mva = solver.solve(inputs, n);

            SimConfig sim_cfg;
            sim_cfg.numProcessors = n;
            sim_cfg.workload = config.workload;
            sim_cfg.protocol = config.protocol;
            sim_cfg.timing = config.timing;
            sim_cfg.seed = config.seed + n; // distinct but reproducible
            sim_cfg.warmupRequests = config.warmupRequests;
            sim_cfg.measuredRequests = config.measuredRequests;
            sim_cfg.check().orThrow();
            p.sim = simulate(sim_cfg);
        } catch (const SolveException &e) {
            p.error = e.error();
        } catch (const std::exception &e) {
            p.error = makeError(SolveErrorCode::Internal, "validate",
                                "unexpected exception at N=%u: %s", n,
                                e.what());
        }
    });
    size_t failed = 0;
    for (const auto &p : points)
        failed += p.ok() ? 0 : 1;
    if (failed > 0) {
        warn("validate: %zu of %zu comparison points failed", failed,
             points.size());
    }
    return points;
}

Table
comparisonTable(const std::vector<ComparisonPoint> &points,
                const std::string &title)
{
    Table t({"N", "MVA speedup", "sim speedup", "sim 95% CI", "error"});
    t.setTitle(title);
    for (const auto &p : points) {
        if (!p.ok()) {
            t.addRow({strprintf("%u", p.numProcessors), "—", "—", "—",
                      "—"});
            continue;
        }
        t.addRow({
            strprintf("%u", p.numProcessors),
            formatDouble(p.mva.speedup, 3),
            formatDouble(p.sim.speedup, 3),
            strprintf("[%.3f, %.3f]", p.sim.speedupCi.lower(),
                      p.sim.speedupCi.upper()),
            formatPercent(p.speedupError(), 2),
        });
    }
    return t;
}

double
maxAbsError(const std::vector<ComparisonPoint> &points)
{
    double worst = 0.0;
    for (const auto &p : points) {
        if (p.ok())
            worst = std::max(worst, std::fabs(p.speedupError()));
    }
    return worst;
}

} // namespace snoop
