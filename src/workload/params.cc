#include "workload/params.hh"

#include <cmath>

#include "util/contracts.hh"
#include "util/logging.hh"

namespace snoop {

std::string
to_string(SharingLevel level)
{
    switch (level) {
      case SharingLevel::OnePercent:
        return "1%";
      case SharingLevel::FivePercent:
        return "5%";
      case SharingLevel::TwentyPercent:
        return "20%";
    }
    panic("to_string(SharingLevel): bad level %d", static_cast<int>(level));
}

Expected<void>
WorkloadParams::check() const
{
    if (std::isnan(tau) || tau < 0.0) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "WorkloadParams",
                         "tau = %g must be non-negative", tau);
    }
    struct Field { const char *name; double value; };
    const Field streams[] = {
        {"pPrivate", pPrivate}, {"pSro", pSro}, {"pSw", pSw}};
    const Field probs[] = {
        {"hPrivate", hPrivate},       {"hSro", hSro},
        {"hSw", hSw},                 {"rPrivate", rPrivate},
        {"rSw", rSw},                 {"amodPrivate", amodPrivate},
        {"amodSw", amodSw},           {"csupplySro", csupplySro},
        {"csupplySw", csupplySw},     {"wbCsupply", wbCsupply},
        {"repP", repP},               {"repSw", repSw}};
    auto checkProb = [](const Field &f) -> Expected<void> {
        if (std::isnan(f.value) || f.value < 0.0 || f.value > 1.0) {
            return makeError(SolveErrorCode::InvalidArgument,
                             "WorkloadParams",
                             "%s = %g is not a probability", f.name,
                             f.value);
        }
        return {};
    };
    for (const auto &f : streams) {
        if (auto ok = checkProb(f); !ok)
            return ok;
    }
    double sum = pPrivate + pSro + pSw;
    if (std::fabs(sum - 1.0) > 1e-9) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "WorkloadParams",
                         "stream probabilities sum to %g, not 1", sum);
    }
    for (const auto &f : probs) {
        if (auto ok = checkProb(f); !ok)
            return ok;
    }
    return {};
}

WorkloadParams
WorkloadParams::adjustedFor(const ProtocolConfig &cfg) const
{
    WorkloadParams p = *this;
    if (cfg.mod1) {
        // Exclusive loads extend block tenure in the modified state, so
        // the replacement write-back probability rises (0.2 -> 0.3 in
        // the paper's workload). Scale so customized base values keep
        // their intent (0 stays 0).
        p.repP = repP * (0.3 / 0.2);
    }
    if (cfg.mod2 && cfg.mod3)
        p.repSw = repSw * (0.7 / 0.5);
    else if (cfg.mod2 || cfg.mod3)
        p.repSw = repSw * (0.6 / 0.5);
    if (cfg.mod1 && cfg.mod4) {
        // Broadcast updates keep copies valid, so the sw hit rate rises
        // to the private/sro level (Appendix A note).
        p.hSw = 0.95;
    }
    // Probabilities must stay probabilities even for custom bases.
    p.repP = std::min(p.repP, 1.0);
    p.repSw = std::min(p.repSw, 1.0);
    return p;
}

namespace presets {

WorkloadParams
appendixA(SharingLevel level)
{
    WorkloadParams p; // defaults are the Appendix A common values
    switch (level) {
      case SharingLevel::OnePercent:
        p.pPrivate = 0.99;
        p.pSro = 0.01;
        p.pSw = 0.00;
        break;
      case SharingLevel::FivePercent:
        p.pPrivate = 0.95;
        p.pSro = 0.03;
        p.pSw = 0.02;
        break;
      case SharingLevel::TwentyPercent:
        p.pPrivate = 0.80;
        p.pSro = 0.15;
        p.pSw = 0.05;
        break;
    }
    SNOOP_REQUIRE_OK(p.check());
    return p;
}

WorkloadParams
stressTest()
{
    WorkloadParams p;
    p.pPrivate = 0.75;
    p.pSro = 0.05;
    p.pSw = 0.20;
    p.hSw = 0.1;
    p.repP = 0.0;
    p.repSw = 0.0;
    p.amodSw = 0.0;
    p.csupplySro = 1.0;
    p.csupplySw = 1.0;
    SNOOP_REQUIRE_OK(p.check());
    return p;
}

WorkloadParams
highSharing()
{
    WorkloadParams p;
    p.pPrivate = 0.01;
    p.pSro = 0.00;
    p.pSw = 0.99;
    p.csupplySw = 0.9;
    p.hSw = 0.8;
    SNOOP_REQUIRE_OK(p.check());
    return p;
}

WorkloadParams
archibaldBaer(SharingLevel level)
{
    WorkloadParams p = appendixA(level);
    p.amodPrivate = 0.95;
    SNOOP_REQUIRE_OK(p.check());
    return p;
}

} // namespace presets

} // namespace snoop
