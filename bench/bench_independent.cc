/**
 * Experiments E8-E10 (Section 4.4): agreement with independent
 * evaluation studies.
 *
 *  E8: processing power for mods 1+2+3, N=9, 5% sharing - the paper's
 *      MVA gives 4.32 (GTPN 4.1, and both agree with [PaPa84]).
 *  E9: bus-utilization increase of Write-Once over a protocol with
 *      mods 2+3 at very high sharing and unsaturated load - ~10%,
 *      matching the trace-driven results of [KEWP85].
 *  E10: with amod_p = 0.95 (as in most [ArBa86] experiments),
 *      modification 2 performs roughly equal to modification 1 at 1%
 *      sharing - reconciling the two studies.
 */

#include <cmath>

#include "common.hh"

namespace snoop::bench {
namespace {

void
reportProcessingPower()
{
    banner("E8: processing power, mods 1+2+3, N=9, 5% sharing");
    MvaSolver solver;
    auto r = solver.solve(
        DerivedInputs::compute(presets::appendixA(SharingLevel::FivePercent),
                               ProtocolConfig::fromModString("123")),
        9);
    auto spots = paperSpotChecks();
    Table t({"source", "processing power"});
    t.setAlign(0, Align::Left);
    t.addRow({"paper MVA", formatDouble(spots.processingPowerMva, 2)});
    t.addRow({"paper GTPN", formatDouble(spots.processingPowerGtpn, 2)});
    t.addRow({"this library (MVA)", formatDouble(r.processingPower, 2)});
    std::fputs(t.render().c_str(), stdout);
    std::printf("deviation from the paper's MVA: %s\n",
                relErr(r.processingPower, spots.processingPowerMva)
                    .c_str());
}

void
reportBusUtilIncrease()
{
    banner("E9: Write-Once vs mods 2+3 bus utilization, ~99% sharing, "
           "unsaturated");
    // High-sharing workload; pick N small enough that the bus is not
    // saturated, and make write hits to dirty blocks rare (the paper's
    // condition: "the probability that a block is unmodified on a
    // write hit decreases significantly in the protocol with mod 2" -
    // i.e. Write-Once re-broadcasts writes that mods 2+3 avoid).
    WorkloadParams wl = presets::highSharing();
    MvaSolver solver;
    Table t({"N", "U_bus WriteOnce", "U_bus mods 2+3", "increase"});
    double shown = 0.0;
    for (unsigned n : {2u, 3u, 4u}) {
        auto wo = solver.solve(
            DerivedInputs::compute(wl, ProtocolConfig::writeOnce()), n);
        auto m23 = solver.solve(
            DerivedInputs::compute(wl,
                                   ProtocolConfig::fromModString("23")),
            n);
        double inc = wo.busUtil / m23.busUtil - 1.0;
        if (n == 3)
            shown = inc;
        t.addRow({strprintf("%u", n), formatPercent(wo.busUtil, 1),
                  formatPercent(m23.busUtil, 1),
                  formatPercent(inc, 1)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("paper: \"the MVA models predict a 10%% increase in "
                "bus utilization for the Write-Once protocol\" "
                "([KEWP85] agreement); this library: %s at N=3.\n",
                formatPercent(shown, 1).c_str());
}

void
reportArchibaldBaer()
{
    banner("E10: amod_p = 0.95 reconciliation with [ArBa86]");
    MvaSolver solver;

    Table t({"amod_p", "N", "speedup +mod1", "speedup +mod2",
             "mod2 / mod1"});
    for (double amod : {0.7, 0.95}) {
        for (unsigned n : {6u, 10u}) {
            WorkloadParams wl =
                presets::appendixA(SharingLevel::OnePercent);
            wl.amodPrivate = amod;
            auto m1 = solver.solve(
                DerivedInputs::compute(
                    wl, ProtocolConfig::fromModString("1")), n);
            auto m2 = solver.solve(
                DerivedInputs::compute(
                    wl, ProtocolConfig::fromModString("2")), n);
            t.addRow({formatDouble(amod, 2), strprintf("%u", n),
                      formatDouble(m1.speedup, 3),
                      formatDouble(m2.speedup, 3),
                      formatDouble(m2.speedup / m1.speedup, 3)});
        }
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("paper: \"If we set amod_p to 0.95, as in many of "
                "their experiments, we also find the performance of "
                "modification 2 to be roughly equal to the performance "
                "of modification 1 for the 1%% sharing case\" - the "
                "mod2/mod1 ratio approaches 1 as amod_p rises because "
                "mod 1's advantage (suppressing first-write broadcasts "
                "to private blocks) vanishes when nearly every write "
                "hit finds the block already modified.\n");
}

void
report()
{
    reportProcessingPower();
    reportBusUtilIncrease();
    reportArchibaldBaer();
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
