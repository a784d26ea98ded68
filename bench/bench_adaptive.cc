/**
 * Extension experiment (Section 2.2): the RWB protocol's adaptive
 * invalidate/broadcast switching, modeled as a probabilistic mixture
 * of the mods-1+3 (invalidate) and mods-1+3+4 (broadcast) operating
 * points. Sweeps the switch probability to locate the preferred
 * operating point per workload - the kind of policy question the
 * MVA's speed makes interactively answerable.
 */

#include "common.hh"
#include "workload/adaptive.hh"

namespace snoop::bench {
namespace {

void
report()
{
    banner("extension: RWB adaptive invalidate/broadcast switching");
    std::printf("speedup at N=20 as the broadcast probability sweeps "
                "0 -> 1 (0 = pure invalidate = mods 1+3, 1 = pure "
                "broadcast = mods 1+3+4):\n\n");

    MvaSolver solver;
    Table t({"p_broadcast", "1% sharing", "5% sharing", "20% sharing"});
    for (double p : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
        std::vector<std::string> row = {formatDouble(p, 1)};
        for (auto level : kSharingLevels) {
            auto inputs =
                rwbAdaptiveInputs(presets::appendixA(level), p);
            row.push_back(
                formatDouble(solver.solve(inputs, 20).speedup, 3));
        }
        t.addRow(row);
    }
    std::fputs(t.render().c_str(), stdout);

    std::printf("\nWith the Appendix A assumption that broadcast "
                "updates keep sw copies valid (h_sw 0.5 -> 0.95), the "
                "broadcast end dominates and the gain grows with "
                "sharing - consistent with the paper's finding that "
                "mod 4's advantage grows with sharing level and system "
                "size. The switching capability matters for workloads "
                "where broadcasts do NOT lift the sw hit rate (e.g. "
                "migratory data written many times before the next "
                "reader); assign workload-measured h_sw values per "
                "phase and the same sweep locates the crossover.\n");
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
