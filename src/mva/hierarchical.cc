#include "mva/hierarchical.hh"

#include <algorithm>
#include <cmath>

#include "mva/kernel.hh"
#include "mva/lane.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/contracts.hh"
#include "util/expected.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

void
HierarchicalConfig::validate() const
{
    if (clusters == 0 || processorsPerCluster == 0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "need at least one cluster and one processor per cluster"));
    }
    if (tau < 0.0 || tSupply <= 0.0 || tLocalBus <= 0.0 ||
        tGlobalBus <= 0.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "times must be positive (tau may be zero)"));
    }
    if (pLocal < 0.0 || pLocal > 1.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "pLocal = %g is not a probability", pLocal));
    }
    if (pRemote < 0.0 || pRemote > 1.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "HierarchicalConfig",
            "pRemote = %g is not a probability", pRemote));
    }
}

std::string
HierarchicalResult::summary() const
{
    return strprintf(
        "N=%u speedup=%.3f R=%.3f U_local=%.3f U_global=%.3f "
        "w_l=%.3f w_g=%.3f (%d iterations%s)",
        totalProcessors, speedup, responseTime, localBusUtil,
        globalBusUtil, wLocalBus, wGlobalBus, iterations,
        converged ? "" : ", NOT converged");
}

namespace {

HierarchicalResult
solveOnce(const HierarchicalConfig &c, const MvaOptions &opts)
{
    const double damping = opts.damping;
    const double proc_total = static_cast<double>(c.totalProcessors());
    const double proc_cluster =
        static_cast<double>(c.processorsPerCluster);
    const double p_bus = 1.0 - c.pLocal;

    HierarchicalResult res;
    res.totalProcessors = c.totalProcessors();

    double w_l = 0.0, w_g = 0.0;
    double r_total = c.tau + c.tSupply;

    for (int it = 1; it <= opts.maxIterations; ++it) {
        // Local-bus holding time: the local phase plus, for remote
        // transactions, the global-bus wait and transfer (the local
        // bus is held through the remote phase).
        double remote_leg = w_g + c.tGlobalBus;
        double t_hold = c.tLocalBus + c.pRemote * remote_leg;
        // Residual life of the holding-time mixture.
        double short_leg = c.tLocalBus;
        double long_leg = c.tLocalBus + remote_leg;
        double second_moment = (1.0 - c.pRemote) * short_leg * short_leg
            + c.pRemote * long_leg * long_leg;
        double t_res_l =
            t_hold > 0.0 ? second_moment / (2.0 * t_hold) : 0.0;

        // Response time (eq. (1) analogue).
        double r_new =
            c.tau + c.tSupply + p_bus * (w_l + t_hold);

        // Local bus: contention from the P-1 cluster peers.
        double q_l = (proc_cluster - 1.0) * p_bus * (w_l + t_hold) /
            r_new;
        q_l = std::clamp(q_l, 0.0, proc_cluster - 1.0);
        double u_l = proc_cluster * p_bus * t_hold / r_new;
        double p_busy_l = mvaPBusy(u_l, proc_cluster);
        double w_l_new =
            mvaResidualWait(proc_cluster, q_l, p_busy_l, t_hold, t_res_l);

        // Global bus: only a request holding its local bus can compete
        // for the global bus, so at most one per cluster - the
        // effective population at the global bus is the cluster count.
        double competitors =
            std::min(proc_total, static_cast<double>(c.clusters));
        double q_g = (proc_total - 1.0) * p_bus * c.pRemote *
            (w_g + c.tGlobalBus) / r_new;
        q_g = std::clamp(q_g, 0.0, competitors - 1.0);
        double u_g = proc_total * p_bus * c.pRemote * c.tGlobalBus /
            r_new;
        double p_busy_g = mvaPBusy(u_g, competitors);
        double w_g_new = mvaResidualWait(competitors, q_g, p_busy_g,
                                         c.tGlobalBus, c.tGlobalBus / 2.0);

        // Damped update; the step is the largest relative change over
        // both waits and R.
        double w_l_next = damping * w_l_new + (1.0 - damping) * w_l;
        double w_g_next = damping * w_g_new + (1.0 - damping) * w_g;
        double step = std::max(mvaRelStep(r_new, r_total),
                               std::max(mvaRelStep(w_l_next, w_l),
                                        mvaRelStep(w_g_next, w_g)));
        w_l = w_l_next;
        w_g = w_g_next;
        r_total = r_new;
        res.iterations = it;
        res.localBusUtil = std::min(u_l, 1.0);
        res.globalBusUtil = std::min(u_g, 1.0);
        if (mvaConverged(step, opts.tolerance)) {
            res.converged = true;
            break;
        }
    }

    res.wLocalBus = w_l;
    res.wGlobalBus = w_g;
    res.responseTime = r_total;
    res.speedup = proc_total * (c.tau + c.tSupply) / r_total;
    return res;
}

} // namespace

HierarchicalResult
solveHierarchical(const HierarchicalConfig &config,
                  const MvaOptions &options)
{
    config.validate();
    metricAdd("mva.hierarchical.solves");
    ScopedMetricTimer solve_timer("mva.hierarchical.solve_us");
    TraceSpan solve_span(TraceLevel::Phase, "mva.hierarchical.solve",
                         config.totalProcessors());
    HierarchicalResult res = solveExtension(
        options, "mva.hierarchical", "solveHierarchical",
        strprintf(" (C=%u, P=%u)", config.clusters,
                  config.processorsPerCluster),
        [&] { return solveOnce(config, options); });
    NumericGuard("solveHierarchical",
                 strprintf("C=%u P=%u", config.clusters,
                           config.processorsPerCluster))
        .positive("responseTime", res.responseTime)
        .positive("speedup", res.speedup)
        .nonNegative("wLocalBus", res.wLocalBus)
        .nonNegative("wGlobalBus", res.wGlobalBus)
        .utilization("localBusUtil", res.localBusUtil)
        .utilization("globalBusUtil", res.globalBusUtil);
    return res;
}

HierarchicalConfig
hierarchicalFromFlat(const DerivedInputs &d, unsigned clusters,
                     unsigned processors_per_cluster,
                     double cluster_share)
{
    if (cluster_share < 0.0 || cluster_share > 1.0) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, "hierarchicalFromFlat",
            "cluster_share = %g is not a probability", cluster_share));
    }

    HierarchicalConfig c;
    c.clusters = clusters;
    c.processorsPerCluster = processors_per_cluster;
    c.tau = d.tau;
    c.tSupply = d.timing.tSupply;
    c.pLocal = d.pLocal;

    double p_bus = d.pBc + d.pRr;
    if (p_bus <= 0.0) {
        c.pRemote = 0.0;
        return c;
    }

    // Local phase: broadcasts snoop the local bus for the word time;
    // reads move a block over the local bus.
    c.tLocalBus = (d.pBc * d.timing.tWrite +
                   d.pRr * d.timing.tReadCache) / p_bus;

    // Remote phase: broadcasts that update memory, and reads not
    // satisfied within the cluster, traverse the global bus.
    double bc_remote =
        d.protocol.broadcastUpdatesMemory() ? (1.0 - cluster_share) : 0.0;
    double rr_remote = 1.0 - cluster_share;
    double remote_bc = d.pBc * bc_remote;
    double remote_rr = d.pRr * rr_remote;
    double remote_total = remote_bc + remote_rr;
    c.pRemote = remote_total / p_bus;
    c.tGlobalBus = remote_total > 0.0
        ? (remote_bc * d.timing.tWrite +
           remote_rr * d.timing.tReadMem) / remote_total
        : d.timing.tReadMem;
    return c;
}

} // namespace snoop
