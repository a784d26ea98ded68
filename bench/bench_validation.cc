/**
 * Experiment E6 (Section 4.2): agreement between the mean-value model
 * and the detailed model. The paper validates its MVA against the
 * GTPN of [VeHo86]; here the detailed model is the discrete-event
 * simulator (DESIGN.md Section 3), and the comparison covers speedup,
 * bus utilization (the paper's 77% vs 81% example at N=6), and the
 * direction of the MVA's biases.
 */

#include <array>
#include <vector>

#include "common.hh"
#include "util/parallel.hh"

namespace snoop::bench {
namespace {

void
report()
{
    banner("Section 4.2: MVA vs detailed model");

    // The full mods x sharing-level grid runs in parallel; each cell
    // renders its own table into a pre-sized slot and the ordered
    // printout happens afterwards (workers never touch stdout).
    constexpr std::array<const char *, 3> kMods = {"", "1", "14"};
    const size_t levels = std::size(kSharingLevels);
    std::vector<std::string> cells(kMods.size() * levels);
    parallelFor(cells.size(), [&](size_t idx) {
        const char *mods = kMods[idx / levels];
        auto level = kSharingLevels[idx % levels];
        ValidationConfig cfg;
        cfg.workload = presets::appendixA(level);
        cfg.protocol = ProtocolConfig::fromModString(mods);
        cfg.ns = {1, 2, 4, 6, 8, 10};
        cfg.measuredRequests = 300000;
        auto pts = validate(cfg);
        auto table = comparisonTable(
            pts,
            strprintf("%s, %s sharing", cfg.protocol.name().c_str(),
                      to_string(level).c_str()));
        cells[idx] = table.render() +
            strprintf("max |error| = %s\n\n",
                      formatPercent(maxAbsError(pts), 2).c_str());
    });
    for (const auto &cell : cells)
        std::fputs(cell.c_str(), stdout);

    // The bus-utilization spot check.
    banner("bus utilization at N=6, 5% sharing, Write-Once");
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.protocol = ProtocolConfig::writeOnce();
    cfg.ns = {6};
    cfg.measuredRequests = 400000;
    auto pts = validate(cfg);
    auto spots = paperSpotChecks();
    Table t({"source", "abstract model (MVA)", "detailed model"});
    t.setAlign(0, Align::Left);
    t.addRow({"paper", formatPercent(spots.busUtilMva6, 0),
              formatPercent(spots.busUtilGtpn6, 0) + " (GTPN)"});
    t.addRow({"this library", formatPercent(pts[0].mva.busUtil, 0),
              formatPercent(pts[0].sim.busUtilization, 0) + " (sim)"});
    std::fputs(t.render().c_str(), stdout);
    std::printf("\npaper: \"the approximate MVA equations generally "
                "underestimate bus utilization and overestimate memory "
                "and cache interference relative to the GTPN model\" - "
                "the same bias direction as above (MVA %s detailed).\n",
                pts[0].mva.busUtil <= pts[0].sim.busUtilization
                    ? "<" : ">");
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
