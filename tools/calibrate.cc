/**
 * @file
 * Reproduces the one-time calibration of the bus-timing constants
 * (DESIGN.md Section 3): grid-search (tReadMem, tReadCache,
 * tWriteBack) to minimize the RMS deviation of this library's MVA
 * speedups from the paper's published MVA values across all of
 * Table 4.1 (81 points). This is the C++ twin of
 * prototype/mva_proto.py; it exists so the calibration is auditable
 * and re-runnable inside the repository.
 *
 *   ./calibrate                 # coarse grid, prints the winner
 *   ./calibrate --fine          # half-cycle steps around the winner
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/paper_data.hh"
#include "mva/solver.hh"
#include "observe/trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace snoop;

namespace {

struct Fit
{
    BusTiming timing;
    double rms = 0.0;
    double worst = 0.0;
};

Fit
evaluate(const BusTiming &timing)
{
    MvaSolver solver;
    double sum_sq = 0.0, worst = 0.0;
    size_t count = 0;
    for (Table41 sub : {Table41::A, Table41::B, Table41::C}) {
        auto mods = ProtocolConfig::fromModString(table41Mods(sub));
        for (const auto &row : paperTable41(sub)) {
            auto inputs = DerivedInputs::compute(
                presets::appendixA(row.level), mods, timing);
            const auto &ns = table41Ns();
            for (size_t i = 0; i < ns.size(); ++i) {
                double got = solver.solve(inputs, ns[i]).speedup;
                double rel = (got - row.mva[i]) / row.mva[i];
                sum_sq += rel * rel;
                worst = std::max(worst, std::fabs(rel));
                ++count;
            }
        }
    }
    Fit f;
    f.timing = timing;
    f.rms = std::sqrt(sum_sq / static_cast<double>(count));
    f.worst = worst;
    return f;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("calibrate",
                  "grid-search bus timing constants against the "
                  "paper's Table 4.1 MVA values");
    cli.addFlag("fine", "use half-cycle steps");
    cli.addOption("top", "8", "how many best fits to print");
    cli.parse(argc, argv);

    double step = cli.getFlag("fine") ? 0.5 : 1.0;
    std::vector<Fit> fits;
    for (double tm = 7.0; tm <= 10.0 + 1e-9; tm += step) {
        for (double tc = 1.0; tc <= 5.0 + 1e-9; tc += step) {
            for (double twb = 1.0; twb <= 5.0 + 1e-9; twb += step) {
                BusTiming t;
                t.tReadMem = tm;
                t.tReadCache = tc;
                t.tWriteBack = twb;
                fits.push_back(evaluate(t));
            }
        }
    }
    std::sort(fits.begin(), fits.end(),
              [](const Fit &a, const Fit &b) { return a.rms < b.rms; });

    size_t top = std::min(fits.size(),
                          static_cast<size_t>(cli.getInt("top")));
    Table t({"tReadMem", "tReadCache", "tWriteBack", "rms", "worst"});
    t.setTitle(strprintf(
        "best %zu of %zu grid points (81 Table 4.1 values each)", top,
        fits.size()));
    for (size_t i = 0; i < top; ++i) {
        t.addRow({formatCompact(fits[i].timing.tReadMem, 1),
                  formatCompact(fits[i].timing.tReadCache, 1),
                  formatCompact(fits[i].timing.tWriteBack, 1),
                  formatPercent(fits[i].rms, 2),
                  formatPercent(fits[i].worst, 2)});
    }
    std::fputs(t.render().c_str(), stdout);

    BusTiming defaults;
    auto current = evaluate(defaults);
    std::printf("\nshipped defaults (tReadMem=%g, tReadCache=%g, "
                "tWriteBack=%g): rms %s, worst %s\n",
                defaults.tReadMem, defaults.tReadCache,
                defaults.tWriteBack,
                formatPercent(current.rms, 2).c_str(),
                formatPercent(current.worst, 2).c_str());
    observeFinalize();
    return 0;
}
