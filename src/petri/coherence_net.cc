#include "petri/coherence_net.hh"

#include <cmath>

#include "util/contracts.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

Expected<void>
CoherenceNetParams::check() const
{
    auto invalid = [](const char *what) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "CoherenceNetParams", "%s", what);
    };
    if (numProcessors == 0)
        return invalid("need at least one processor");
    if (execTime <= 0.0 || tWrite <= 0.0 || tRead <= 0.0)
        return invalid("times must be positive");
    if (pLocal < 0.0 || pBc < 0.0 || pRr < 0.0)
        return invalid("probabilities must be non-negative");
    if (std::fabs(pLocal + pBc + pRr - 1.0) > 1e-9) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "CoherenceNetParams",
                         "pLocal + pBc + pRr must sum to 1 (got %g)",
                         pLocal + pBc + pRr);
    }
    return {};
}

CoherenceNet
makeCoherenceNet(const CoherenceNetParams &p)
{
    SNOOP_REQUIRE_OK(p.check());
    CoherenceNet cn;
    cn.busFree = cn.net.addPlace("bus_free", 1);

    for (unsigned i = 0; i < p.numProcessors; ++i) {
        std::string suffix = strprintf("_%u", i);
        PlaceId think = cn.net.addPlace("thinking" + suffix, 1);
        PlaceId wait_bc = cn.net.addPlace("wait_bc" + suffix, 0);
        PlaceId wait_rr = cn.net.addPlace("wait_rr" + suffix, 0);
        cn.thinking.push_back(think);
        cn.waitBroadcast.push_back(wait_bc);
        cn.waitRead.push_back(wait_rr);

        // Execute for tau + T_supply, then classify the next request.
        TransitionId exec =
            cn.net.addTransition("exec" + suffix, p.execTime);
        cn.net.addInput(exec, think);
        if (p.pLocal > 0.0)
            cn.net.addOutcome(exec, p.pLocal, {{think, 1}});
        if (p.pBc > 0.0)
            cn.net.addOutcome(exec, p.pBc, {{wait_bc, 1}});
        if (p.pRr > 0.0)
            cn.net.addOutcome(exec, p.pRr, {{wait_rr, 1}});
        cn.exec.push_back(exec);

        // Bus transactions: seize (near-immediate, removes the bus
        // token) then serve (timed, returns it).
        constexpr double kSeize = 1e-6;
        PlaceId svc_bc = cn.net.addPlace("svc_bc" + suffix, 0);
        TransitionId seize_bc =
            cn.net.addTransition("seize_bc" + suffix, kSeize);
        cn.net.addInput(seize_bc, wait_bc);
        cn.net.addInput(seize_bc, cn.busFree);
        cn.net.addOutcome(seize_bc, 1.0, {{svc_bc, 1}});
        TransitionId bc = cn.net.addTransition("bus_bc" + suffix,
                                               p.tWrite);
        cn.net.addInput(bc, svc_bc);
        cn.net.addOutcome(bc, 1.0, {{think, 1}, {cn.busFree, 1}});
        cn.busBc.push_back(bc);

        PlaceId svc_rr = cn.net.addPlace("svc_rr" + suffix, 0);
        TransitionId seize_rr =
            cn.net.addTransition("seize_rr" + suffix, kSeize);
        cn.net.addInput(seize_rr, wait_rr);
        cn.net.addInput(seize_rr, cn.busFree);
        cn.net.addOutcome(seize_rr, 1.0, {{svc_rr, 1}});
        TransitionId rr = cn.net.addTransition("bus_rr" + suffix,
                                               p.tRead);
        cn.net.addInput(rr, svc_rr);
        cn.net.addOutcome(rr, 1.0, {{think, 1}, {cn.busFree, 1}});
        cn.busRr.push_back(rr);
    }
    return cn;
}

double
coherenceNetSpeedup(const CoherenceNet &net, const GtpnAnalysis &a)
{
    double s = 0.0;
    for (TransitionId t : net.exec)
        s += a.utilization[t];
    return s;
}

double
coherenceNetBusUtilization(const CoherenceNet &net, const GtpnAnalysis &a)
{
    double u = 0.0;
    for (TransitionId t : net.busBc)
        u += a.utilization[t];
    for (TransitionId t : net.busRr)
        u += a.utilization[t];
    return u;
}

} // namespace snoop
