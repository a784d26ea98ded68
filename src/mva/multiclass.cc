#include "mva/multiclass.hh"

#include <algorithm>
#include <cmath>

#include "mva/kernel.hh"
#include "mva/lane.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/contracts.hh"
#include "util/expected.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

MulticlassResult
solveOnce(const std::vector<ProcessorClass> &classes,
          const MvaOptions &opts)
{
    const size_t num_classes = classes.size();
    const BusTiming &timing = classes.front().inputs.timing;
    const double t_write = timing.tWrite;
    const double t_supply = timing.tSupply;
    const double d_mem = timing.dMem;
    const double inv_modules = 1.0 / static_cast<double>(timing.numModules);
    const double damping = opts.damping;

    double n_total = 0.0;
    for (const auto &c : classes)
        n_total += static_cast<double>(c.count);

    std::vector<MvaAppendixB> appendix_b(num_classes);
    for (size_t k = 0; k < num_classes; ++k)
        appendix_b[k] = mvaAppendixB(classes[k].inputs, n_total);

    std::vector<double> w_bus(num_classes, 0.0);
    double w_mem = 0.0;
    std::vector<double> r(num_classes);
    for (size_t k = 0; k < num_classes; ++k)
        r[k] = classes[k].inputs.tau + t_supply;
    std::vector<double> r_bc(num_classes), r_rr(num_classes),
        q(num_classes), r_new(num_classes);

    MulticlassResult res;
    res.classes.resize(num_classes);

    for (int it = 1; it <= opts.maxIterations; ++it) {
        // Per-class bus cycle components at current waits.
        for (size_t k = 0; k < num_classes; ++k) {
            const auto &d = classes[k].inputs;
            r_bc[k] = d.pBc * (w_bus[k] + w_mem + t_write);
            r_rr[k] = d.pRr * (w_bus[k] + d.tRead);
        }

        // The bus queue an arriving class-k request finds, eq. (6):
        // every class's population with one class-k customer removed.
        for (size_t k = 0; k < num_classes; ++k) {
            double qk = 0.0;
            for (size_t j = 0; j < num_classes; ++j) {
                double pop = static_cast<double>(classes[j].count) -
                    (j == k ? 1.0 : 0.0);
                qk += pop * (r_bc[j] + r_rr[j]) / r[j];
            }
            q[k] = std::clamp(qk, 0.0, n_total - 1.0);
        }

        // New response times, eqs. (1)-(4) with eq. (13).
        for (size_t k = 0; k < num_classes; ++k) {
            const auto &d = classes[k].inputs;
            double r_local = d.pLocal *
                mvaInterference(appendix_b[k], q[k]) * appendix_b[k].tInt;
            r_new[k] = d.tau + r_local + r_bc[k] + r_rr[k] + t_supply;
        }

        // Shared-resource utilizations from the new response times.
        double u_bus = 0.0, u_mem = 0.0;
        double rate_total = 0.0;
        double t_bus_num = 0.0, t_res_num = 0.0, t_res_den = 0.0;
        for (size_t k = 0; k < num_classes; ++k) {
            const auto &d = classes[k].inputs;
            double pop = static_cast<double>(classes[k].count);
            double demand =
                d.pBc * (w_mem + t_write) + d.pRr * d.tRead;
            u_bus += pop * demand / r_new[k];
            u_mem += pop * inv_modules * d.memFactor * d_mem / r_new[k];
            res.classes[k].busDemandShare = pop * demand / r_new[k];

            double lam_bc = pop * d.pBc / r_new[k];
            double lam_rr = pop * d.pRr / r_new[k];
            rate_total += lam_bc + lam_rr;
            t_bus_num +=
                lam_bc * (t_write + w_mem) + lam_rr * d.tRead;
            // residual life: duration-weighted half-durations
            t_res_num += lam_bc * (t_write + w_mem) *
                    (t_write + w_mem) / 2.0 +
                lam_rr * d.tRead * d.tRead / 2.0;
            t_res_den +=
                lam_bc * (t_write + w_mem) + lam_rr * d.tRead;
        }
        double t_bus = rate_total > 0.0 ? t_bus_num / rate_total : 0.0;
        double t_res = t_res_den > 0.0 ? t_res_num / t_res_den : 0.0;
        double p_busy_bus = mvaPBusy(u_bus, n_total);
        double p_busy_mem = mvaPBusy(u_mem, n_total);

        // Damped update of every wait; the step is the largest
        // relative change over all waits and response times.
        double step = 0.0;
        for (size_t k = 0; k < num_classes; ++k) {
            double w_new = mvaResidualWait(n_total, q[k], p_busy_bus,
                                           t_bus, t_res);
            double w_next = damping * w_new + (1.0 - damping) * w_bus[k];
            step = std::max(step, std::max(mvaRelStep(w_next, w_bus[k]),
                                           mvaRelStep(r_new[k], r[k])));
            w_bus[k] = w_next;
        }
        double w_mem_next = damping * (p_busy_mem * d_mem / 2.0) +
            (1.0 - damping) * w_mem;
        step = std::max(step, mvaRelStep(w_mem_next, w_mem));
        w_mem = w_mem_next;
        r.swap(r_new);

        res.iterations = it;
        res.busUtil = std::min(u_bus, 1.0);
        res.memUtil = std::min(u_mem, 1.0);
        if (mvaConverged(step, opts.tolerance)) {
            res.converged = true;
            break;
        }
    }

    double share_total = 0.0;
    res.totalSpeedup = 0.0;
    res.wBus = 0.0;
    res.wMem = w_mem;
    for (size_t k = 0; k < num_classes; ++k) {
        const auto &cls = classes[k];
        res.classes[k].name = cls.name;
        res.classes[k].count = cls.count;
        res.classes[k].responseTime = r[k];
        res.classes[k].speedup = static_cast<double>(cls.count) *
            (cls.inputs.tau + t_supply) / r[k];
        res.totalSpeedup += res.classes[k].speedup;
        share_total += res.classes[k].busDemandShare;
        // population-weighted mean bus wait
        res.wBus += static_cast<double>(cls.count) * w_bus[k] / n_total;
    }
    if (share_total > 0.0) {
        for (auto &c : res.classes)
            c.busDemandShare /= share_total;
    }
    return res;
}

} // namespace

MulticlassResult
solveMulticlass(const std::vector<ProcessorClass> &classes,
                const MvaOptions &options)
{
    if (classes.empty()) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "solveMulticlass",
            "need at least one class"));
    }
    for (const auto &c : classes) {
        if (c.count == 0) {
            throw SolveException(makeError(
                SolveErrorCode::InvalidArgument, "solveMulticlass",
                "class '%s' has zero processors", c.name.c_str()));
        }
        const BusTiming &a = classes.front().inputs.timing;
        const BusTiming &b = c.inputs.timing;
        if (std::fabs(a.tWrite - b.tWrite) > 1e-12 ||
            std::fabs(a.tSupply - b.tSupply) > 1e-12 ||
            std::fabs(a.dMem - b.dMem) > 1e-12 ||
            a.numModules != b.numModules) {
            throw SolveException(makeError(
                SolveErrorCode::InvalidArgument, "solveMulticlass",
                "classes disagree on bus timing"));
        }
    }

    metricAdd("mva.multiclass.solves");
    ScopedMetricTimer solve_timer("mva.multiclass.solve_us");
    TraceSpan solve_span(TraceLevel::Phase, "mva.multiclass.solve",
                         classes.size());
    MulticlassResult res = solveExtension(
        options, "mva.multiclass", "solveMulticlass", "",
        [&] { return solveOnce(classes, options); });

    NumericGuard guard("solveMulticlass",
                       strprintf("%zu classes", classes.size()));
    guard.positive("totalSpeedup", res.totalSpeedup)
        .utilization("busUtil", res.busUtil)
        .utilization("memUtil", res.memUtil)
        .nonNegative("wBus", res.wBus)
        .nonNegative("wMem", res.wMem);
    for (const auto &c : res.classes) {
        guard.positive("class.responseTime", c.responseTime)
            .positive("class.speedup", c.speedup)
            .probability("class.busDemandShare", c.busDemandShare);
    }
    return res;
}

} // namespace snoop
