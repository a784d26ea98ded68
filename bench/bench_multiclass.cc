/**
 * Extension experiment: heterogeneous processor classes sharing one
 * snooping bus. The paper's model assumes statistically identical
 * processors; the multi-class solver relaxes that, answering design
 * questions like "what happens to the compute cluster when I add
 * I/O processors with poor locality?".
 */

#include "common.hh"
#include "mva/multiclass.hh"

namespace snoop::bench {
namespace {

DerivedInputs
inputsFor(SharingLevel level, const char *mods, double tau)
{
    WorkloadParams wl = presets::appendixA(level);
    wl.tau = tau;
    return DerivedInputs::compute(wl,
                                  ProtocolConfig::fromModString(mods));
}

void
report()
{
    banner("extension: heterogeneous processor classes");

    // Scenario: 8 compute processors (tau 2.5, 5% sharing) joined by
    // k I/O processors with poor locality (20% sharing, tau 1.0).
    std::printf("8 compute processors (5%% sharing, tau 2.5) plus k "
                "I/O processors (20%% sharing, tau 1.0), Write-Once:\n\n");
    auto compute = inputsFor(SharingLevel::FivePercent, "", 2.5);
    auto io = inputsFor(SharingLevel::TwentyPercent, "", 1.0);

    Table t({"I/O procs", "compute speedup", "I/O speedup", "U_bus",
             "compute R"});
    for (unsigned k : {0u, 1u, 2u, 4u, 8u}) {
        std::vector<ProcessorClass> classes = {{"compute", 8, compute}};
        if (k > 0)
            classes.push_back({"io", k, io});
        auto r = solveMulticlass(classes);
        t.addRow({strprintf("%u", k),
                  formatDouble(r.classes[0].speedup, 2),
                  k ? formatDouble(r.classes[1].speedup, 2)
                    : std::string("-"),
                  formatPercent(r.busUtil, 1),
                  formatDouble(r.classes[0].responseTime, 2)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\neach I/O processor added costs the compute class "
                "speedup (its requests lengthen the shared bus queue) "
                "- quantified in microseconds per design point.\n\n");

    // Scenario: phased upgrade - migrating processors from Write-Once
    // to Dragon one group at a time on a 16-processor machine.
    std::printf("phased protocol upgrade: 16 processors split between "
                "Write-Once and Dragon (5%% sharing):\n\n");
    auto wo = inputsFor(SharingLevel::FivePercent, "", 2.5);
    auto dragon = inputsFor(SharingLevel::FivePercent, "1234", 2.5);
    Table u({"Dragon procs", "total speedup", "WO per-proc",
             "Dragon per-proc"});
    for (unsigned k : {0u, 4u, 8u, 12u, 16u}) {
        std::vector<ProcessorClass> classes;
        if (k < 16)
            classes.push_back({"wo", 16 - k, wo});
        if (k > 0)
            classes.push_back({"dragon", k, dragon});
        auto r = solveMulticlass(classes);
        double wo_pp = (k < 16)
            ? r.classes[0].speedup / static_cast<double>(16 - k) : 0.0;
        double dr_pp = (k > 0)
            ? r.classes[classes.size() - 1].speedup /
                static_cast<double>(k)
            : 0.0;
        u.addRow({strprintf("%u", k),
                  formatDouble(r.totalSpeedup, 2),
                  (k < 16) ? formatDouble(wo_pp, 3) : std::string("-"),
                  (k > 0) ? formatDouble(dr_pp, 3) : std::string("-")});
    }
    std::fputs(u.render().c_str(), stdout);
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
