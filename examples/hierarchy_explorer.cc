/**
 * @file
 * Hierarchy exploration: apply the customized-MVA technique to the
 * two-level cache/bus machines of [Wils87] (the paper's future-work
 * pointer). Finds, for a given processor budget, the cluster
 * partitioning that maximizes speedup, and shows how cluster caching
 * moves the answer.
 *
 *   ./hierarchy_explorer --budget=64 --protocol=1 --cluster-share=0.5
 */

#include <cstdio>

#include "mva/hierarchical.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/table.hh"
#include "protocol/catalog.hh"

using namespace snoop;

int
main(int argc, char **argv)
{
    CliParser cli("hierarchy_explorer",
                  "two-level bus hierarchy design exploration");
    cli.addOption("budget", "64", "total processors (power of two)");
    cli.addOption("protocol", "1", "protocol name or mod string");
    cli.addOption("sharing", "5", "sharing level in percent (1, 5, 20)");
    cli.addOption("cluster-share", "0.5",
                  "fraction of would-be-remote transactions satisfied "
                  "by the cluster cache");
    cli.parse(argc, argv);

    unsigned budget = static_cast<unsigned>(cli.getInt("budget"));
    if (budget == 0 || (budget & (budget - 1)) != 0)
        fatal("--budget must be a power of two");
    SharingLevel level;
    switch (cli.getInt("sharing")) {
      case 1:
        level = SharingLevel::OnePercent;
        break;
      case 5:
        level = SharingLevel::FivePercent;
        break;
      case 20:
        level = SharingLevel::TwentyPercent;
        break;
      default:
        fatal("--sharing must be 1, 5, or 20");
    }
    auto protocol = findProtocol(cli.get("protocol"));
    if (!protocol)
        fatal("unknown protocol '%s'", cli.get("protocol").c_str());
    double share = cli.getDouble("cluster-share");

    auto d = DerivedInputs::compute(presets::appendixA(level), *protocol);

    std::printf("Partitioning %u processors (%s, %s sharing, cluster "
                "cache share %.0f%%):\n\n", budget,
                protocol->name().c_str(), to_string(level).c_str(),
                share * 100.0);

    Table t({"clusters x size", "speedup", "U_local", "U_global",
             "bottleneck"});
    double best = 0.0;
    std::string best_shape;
    for (unsigned clusters = 1; clusters <= budget; clusters *= 2) {
        unsigned per = budget / clusters;
        auto cfg = hierarchicalFromFlat(d, clusters, per, share);
        auto r = solveHierarchical(cfg);
        const char *bottleneck =
            r.localBusUtil > r.globalBusUtil ? "local buses"
                                             : "global bus";
        t.addRow({strprintf("%ux%u", clusters, per),
                  formatDouble(r.speedup, 2),
                  formatPercent(r.localBusUtil, 1),
                  formatPercent(r.globalBusUtil, 1), bottleneck});
        if (r.speedup > best) {
            best = r.speedup;
            best_shape = strprintf("%ux%u", clusters, per);
        }
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nbest partitioning: %s (speedup %.2f)\n",
                best_shape.c_str(), best);
    std::printf("each design point above solved in microseconds - the "
                "whole exploration is interactive, which is the "
                "paper's thesis.\n");
    return 0;
}
