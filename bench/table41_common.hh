#pragma once

/**
 * @file
 * Shared implementation of the three Table 4.1 regeneration benches
 * (experiments E1-E3 of DESIGN.md). Each sub-table bench calls
 * reportTable41() with its sub-table id and registers the same solver
 * timing benchmarks.
 */

#include <vector>

#include "common.hh"
#include "sim/prob_sim.hh"
#include "util/parallel.hh"

namespace snoop::bench {

/**
 * Regenerate one Table 4.1 sub-table: our MVA speedups next to the
 * paper's MVA column for every N, the paper's GTPN column for N <= 10,
 * and our detailed simulator (the GTPN's stand-in) for N <= 10.
 */
inline void
reportTable41(Table41 sub_table, const std::string &caption)
{
    banner(strprintf("Table 4.1(%c): %s", static_cast<char>(sub_table),
                     caption.c_str()));
    std::printf("paper columns: MVA and GTPN as published; ours: this "
                "library's MVA and its detailed discrete-event "
                "simulator (GTPN stand-in, 300k requests).\n\n");

    MvaSolver solver;
    auto mods = ProtocolConfig::fromModString(table41Mods(sub_table));

    // The expensive cells are the detailed simulations (one per
    // sharing level x simulated N). Run the whole grid in parallel
    // into pre-sized slots first; table rendering below stays serial
    // and ordered.
    const auto &rows = paperTable41(sub_table);
    const size_t sim_ns = table41GtpnNs().size();
    std::vector<std::vector<double>> sim_speedups(
        rows.size(), std::vector<double>(sim_ns, 0.0));
    parallelFor(rows.size() * sim_ns, [&](size_t idx) {
        size_t r = idx / sim_ns;
        size_t i = idx % sim_ns;
        SimConfig sc;
        sc.numProcessors = table41Ns()[i];
        sc.workload = presets::appendixA(rows[r].level);
        sc.protocol = mods;
        sc.seed = 1000 + table41Ns()[i];
        sc.measuredRequests = 300000;
        sim_speedups[r][i] = simulate(sc).speedup;
    });

    double worst_vs_paper = 0.0;
    for (size_t r = 0; r < rows.size(); ++r) {
        const auto &row = rows[r];
        auto workload = presets::appendixA(row.level);
        auto inputs = DerivedInputs::compute(workload, mods);

        Table t({"N", "our MVA", "paper MVA", "err", "our sim",
                 "paper GTPN"});
        t.setTitle(strprintf("%s sharing", to_string(row.level).c_str()));
        const auto &ns = table41Ns();
        for (size_t i = 0; i < ns.size(); ++i) {
            auto mva = solver.solve(inputs, ns[i]);
            double err = (mva.speedup - row.mva[i]) / row.mva[i];
            worst_vs_paper = std::max(worst_vs_paper, std::fabs(err));

            std::string sim_cell = "-", gtpn_cell = "-";
            if (i < sim_ns) {
                sim_cell = formatDouble(sim_speedups[r][i], 2);
                gtpn_cell = formatDouble(row.gtpn[i], 2);
            }
            t.addRow({strprintf("%u", ns[i]),
                      formatDouble(mva.speedup, 3),
                      formatDouble(row.mva[i], 3),
                      relErr(mva.speedup, row.mva[i]), sim_cell,
                      gtpn_cell});
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("\n");
    }
    std::printf("worst deviation of our MVA from the paper's published "
                "MVA column: %s\n",
                formatPercent(worst_vs_paper, 2).c_str());
}

/** google-benchmark: one full sub-table of MVA solves. */
inline void
mvaSubTableTiming(benchmark::State &state, Table41 sub_table)
{
    MvaSolver solver;
    auto mods = ProtocolConfig::fromModString(table41Mods(sub_table));
    for (auto _ : state) {
        double acc = 0.0;
        for (const auto &row : paperTable41(sub_table)) {
            auto inputs = DerivedInputs::compute(
                presets::appendixA(row.level), mods);
            for (unsigned n : table41Ns())
                acc += solver.solve(inputs, n).speedup;
        }
        benchmark::DoNotOptimize(acc);
    }
}

} // namespace snoop::bench
