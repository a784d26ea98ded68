/**
 * @file
 * Generate a self-contained markdown analysis report for one protocol
 * configuration - workload, derived model inputs, predicted speedups,
 * and optional validation against the detailed simulator.
 *
 *   ./make_report --protocol=Berkeley --sharing=20 \
 *       --validate-up-to=8 --out=berkeley.md
 */

#include <cstdio>

#include "core/report.hh"
#include "protocol/catalog.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

using namespace snoop;

int
main(int argc, char **argv)
{
    CliParser cli("make_report",
                  "write a markdown analysis report for a protocol");
    cli.addOption("protocol", "WriteOnce", "catalog name or mod string");
    cli.addOption("sharing", "5", "sharing level in percent (1, 5, 20)");
    cli.addOption("validate-up-to", "0",
                  "also simulate system sizes up to this N (0 = skip)");
    cli.addOption("requests", "200000",
                  "measured requests per validation run");
    cli.addOption("out", "", "output file (default: stdout)");
    cli.parse(argc, argv);

    ReportSpec spec;
    switch (cli.getInt("sharing")) {
      case 1:
        spec.workload = presets::appendixA(SharingLevel::OnePercent);
        break;
      case 5:
        spec.workload = presets::appendixA(SharingLevel::FivePercent);
        break;
      case 20:
        spec.workload = presets::appendixA(SharingLevel::TwentyPercent);
        break;
      default:
        fatal("--sharing must be 1, 5, or 20");
    }
    auto protocol = findProtocol(cli.get("protocol"));
    if (!protocol)
        fatal("unknown protocol '%s'", cli.get("protocol").c_str());
    spec.protocol = *protocol;
    spec.title = strprintf("%s at %d%% sharing",
                           protocol->name().c_str(),
                           cli.getInt("sharing"));
    spec.validateUpTo =
        static_cast<unsigned>(cli.getInt("validate-up-to"));
    spec.measuredRequests =
        static_cast<uint64_t>(cli.getInt("requests"));

    std::string out = cli.get("out");
    if (out.empty()) {
        auto md = generateReport(spec);
        if (!md)
            fatal("%s", md.error().describe().c_str());
        std::fputs(md.value().c_str(), stdout);
    } else {
        if (auto written = writeReport(spec, out); !written)
            fatal("%s", written.error().describe().c_str());
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
