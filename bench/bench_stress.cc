/**
 * Experiment E7 (Section 4.3): accuracy under stress. The paper sets
 * rep_p = rep_sw = amod_sw = 0, csupply_sro = csupply_sw = 1,
 * p_sw = 0.2, h_sw = 0.1 - maximizing cache interference, the effect
 * the MVA represents least precisely - and still finds agreement
 * within 5% of the detailed model.
 */

#include "common.hh"

namespace snoop::bench {
namespace {

void
report()
{
    banner("Section 4.3: stress test (maximal cache interference)");
    std::printf("workload: rep_p = rep_sw = amod_sw = 0, csupply = 1, "
                "p_sw = 0.2, h_sw = 0.1\n\n");

    for (const char *mods : {"", "1"}) {
        ValidationConfig cfg;
        cfg.workload = presets::stressTest();
        cfg.protocol = ProtocolConfig::fromModString(mods);
        cfg.ns = {1, 2, 4, 6, 8, 10};
        cfg.measuredRequests = 300000;
        auto pts = validate(cfg);
        auto table = comparisonTable(
            pts, strprintf("stress workload, %s",
                           cfg.protocol.name().c_str()));
        std::fputs(table.render().c_str(), stdout);
        std::printf("max |error| = %s   (paper: within 5%% in all "
                    "stress experiments)\n\n",
                    formatPercent(maxAbsError(pts), 2).c_str());
    }

    // Show the interference components the stress test exercises.
    MvaSolver solver;
    auto inputs = DerivedInputs::compute(presets::stressTest(),
                                         ProtocolConfig::writeOnce());
    Table t({"N", "n_interference", "t_interference",
             "R_local (cycles)", "share of R"});
    for (unsigned n : {2u, 6u, 10u}) {
        auto r = solver.solve(inputs, n);
        t.addRow({strprintf("%u", n), formatDouble(r.nInterference, 4),
                  formatDouble(r.tInterference, 3),
                  formatDouble(r.rLocal, 4),
                  formatPercent(r.rLocal / r.responseTime, 2)});
    }
    std::fputs(t.render().c_str(), stdout);
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
