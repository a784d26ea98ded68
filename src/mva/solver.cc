#include "mva/solver.hh"

#include <optional>

#include "mva/kernel.hh"
#include "mva/lane.hh"
#include "observe/metrics.hh"
#include "util/logging.hh"

namespace snoop {

std::string
MvaResult::summary() const
{
    return strprintf(
        "N=%u speedup=%.3f R=%.3f U_bus=%.3f w_bus=%.3f U_mem=%.3f "
        "(%d iterations%s)",
        numProcessors, speedup, responseTime, busUtil, wBus, memUtil,
        iterations, converged ? "" : ", NOT converged");
}

MvaSolver::MvaSolver(MvaOptions opts) : opts_(opts)
{
    if (auto err = checkMvaOptions(opts_))
        throw SolveException(std::move(*err));
}

Expected<MvaResult>
MvaSolver::trySolve(const DerivedInputs &d, unsigned n,
                    const MvaSeed &seed) const
{
    // One stack-resident lane through the shared scalar driver (the
    // budgets, disposition and trace all live in mva/lane.cc).
    MvaLane lane(d, n, seed, opts_);
    if (auto err = lane.admit(MvaFaults::armed()))
        return std::move(*err);
    ScopedMetricTimer solve_timer("mva.solve_us");
    std::optional<Expected<MvaResult>> out;
    runMvaLanes(&lane, 1, [&](size_t) { out.emplace(lane.finish()); });
    return std::move(*out);
}

MvaResult
MvaSolver::solve(const DerivedInputs &d, unsigned n) const
{
    return trySolve(d, n).orThrow();
}

MvaResult
MvaSolver::solve(const WorkloadParams &params,
                 const ProtocolConfig &protocol, unsigned n,
                 const BusTiming &timing) const
{
    return solve(DerivedInputs::compute(params, protocol, timing), n);
}

std::vector<MvaResult>
MvaSolver::sweep(const DerivedInputs &inputs,
                 const std::vector<unsigned> &ns) const
{
    std::vector<MvaResult> out;
    out.reserve(ns.size());
    for (unsigned n : ns)
        out.push_back(solve(inputs, n));
    return out;
}

} // namespace snoop
