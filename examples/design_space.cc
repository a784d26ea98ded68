/**
 * @file
 * Design-space exploration over all 16 combinations of the four
 * Write-Once modifications (Section 2.2) - the "explore a large
 * design space quickly and interactively" use case of the paper's
 * conclusion, in two modes:
 *
 * Rank mode (default): evaluate the 16 combinations at one system
 * size and sharing level, ranked by speedup:
 *
 *   ./design_space --n=20 --sharing=5
 *
 * Sweep mode (--param): sweep one workload parameter across the full
 * 16-protocol grid - the Table 4-1-sized mega-sweep - with the
 * crash-safety controls of docs/SHARDING.md:
 *
 *   ./design_space --param=h_sw --from=0.1 --to=0.7 --steps=7 \
 *       --shard=1/4 --checkpoint=shard1.ckpt --cell-csv=shard1.csv
 *
 * --shard=i/N evaluates one deterministic slice of the cell grid;
 * --checkpoint makes the run resumable (rerun the same command after
 * a crash and it continues from the last commit, with byte-identical
 * final output); --chaos-kill turns the sweep.checkpoint fault site's
 * injected abort into a real SIGKILL, which is how tools/run_chaos.sh
 * proves the resume path against genuine process death.
 */

#include <csignal>
#include <cstdio>

#include "core/analyzer.hh"
#include "core/sweep.hh"
#include "observe/trace.hh"
#include "util/atomic_file.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace snoop;

namespace {

WorkloadParams
workloadForSharing(int sharing)
{
    switch (sharing) {
      case 1:
        return presets::appendixA(SharingLevel::OnePercent);
      case 5:
        return presets::appendixA(SharingLevel::FivePercent);
      case 20:
        return presets::appendixA(SharingLevel::TwentyPercent);
      default:
        fatal("--sharing must be 1, 5, or 20");
    }
}

void
writeAtomically(const std::string &path, const std::string &content)
{
    AtomicFile out(path);
    if (!out.ok())
        fatal("cannot open '%s' for writing", path.c_str());
    out.stream() << content;
    if (auto ok = out.commit(); !ok)
        fatal("%s", ok.error().describe().c_str());
    std::printf("wrote %s\n", path.c_str());
}

/** The sharded, checkpointed, chaos-killable mega-sweep. */
int
sweepMode(const CliParser &cli)
{
    SweepSpec spec;
    spec.base = workloadForSharing(cli.getInt("sharing"));
    spec.paramName = cli.get("param");
    spec.set = findParamSetter(spec.paramName);
    if (!spec.set) {
        fatal("unknown parameter '%s' (try sensitivity_study --list)",
              spec.paramName.c_str());
    }
    double from = cli.getDouble("from");
    double to = cli.getDouble("to");
    long steps = cli.getInt("steps");
    if (steps < 2)
        fatal("--steps must be at least 2");
    for (long i = 0; i < steps; ++i) {
        spec.values.push_back(
            from + (to - from) * static_cast<double>(i) /
                static_cast<double>(steps - 1));
    }
    // The full Section 2.2 design space: all 16 mod combinations, in
    // index order, as the grid's protocol columns.
    for (unsigned idx = 0; idx < 16; ++idx)
        spec.protocols.push_back(ProtocolConfig::fromIndex(idx));
    spec.n = static_cast<unsigned>(cli.getInt("n"));

    std::string shard = cli.get("shard");
    size_t slash = shard.find('/');
    long shard_index = 0, shard_count = 0;
    if (slash == std::string::npos ||
        !parseInt(shard.substr(0, slash), shard_index) ||
        !parseInt(shard.substr(slash + 1), shard_count) ||
        shard_index < 0 || shard_count < 1) {
        fatal("--shard must look like i/N, e.g. 1/4");
    }
    spec.shard.index = static_cast<size_t>(shard_index);
    spec.shard.count = static_cast<size_t>(shard_count);
    spec.checkpointPath = cli.get("checkpoint");
    spec.checkpointEvery =
        static_cast<size_t>(cli.getInt("checkpoint-every"));

    auto res = tryRunSweep(spec);
    if (!res) {
        const SolveError &err = res.error();
        if (cli.getFlag("chaos-kill") &&
            err.code == SolveErrorCode::InjectedFault &&
            err.site == "sweep.checkpoint") {
            // The chaos harness's crash: the checkpoint this error
            // refers to is already committed and durable, so dying
            // without any cleanup is exactly the preemption/power-cut
            // scenario the resume path must survive.
            warn("%s", err.describe().c_str());
            ::raise(SIGKILL);
        }
        fatal("%s", err.describe().c_str());
    }

    std::fputs(res.value().table().render().c_str(), stdout);
    if (res.value().failureCount() > 0) {
        std::printf("\n%zu failed cells:\n%s\n",
                    res.value().failureCount(),
                    res.value().failureSummary().c_str());
    }
    if (spec.shard.isWhole()) {
        auto winners = res.value().tryWinners();
        if (!winners)
            fatal("%s", winners.error().describe().c_str());
        const std::vector<std::string> labels = res.value().rowLabels();
        std::printf("\nwinners by %s value:\n", spec.paramName.c_str());
        for (size_t v = 0; v < winners.value().size(); ++v) {
            size_t w = winners.value()[v];
            std::printf("  %s=%s: %s\n", spec.paramName.c_str(),
                        labels[v].c_str(),
                        w == SweepResult::kNoWinner
                            ? "(all cells failed)"
                            : spec.protocols[w].name().c_str());
        }
    }
    std::string csv_path = cli.get("csv");
    if (!csv_path.empty())
        writeAtomically(csv_path, res.value().csv());
    std::string cell_csv_path = cli.get("cell-csv");
    if (!cell_csv_path.empty())
        writeAtomically(cell_csv_path, res.value().cellCsv());
    observeFinalize();
    return 0;
}

/** The original interactive ranking at one design point. */
int
rankMode(const CliParser &cli)
{
    unsigned n = static_cast<unsigned>(cli.getInt("n"));
    WorkloadParams workload = workloadForSharing(cli.getInt("sharing"));

    Analyzer analyzer;
    auto ranked = analyzer.rankDesignSpace(workload, n);

    std::printf("All 16 Write-Once modification combinations, N=%u, "
                "%d%% sharing, ranked by speedup:\n\n", n,
                cli.getInt("sharing"));

    Table t({"rank", "mods", "known as", "speedup", "bus util",
             "t_read"});
    t.setAlign(1, Align::Left);
    t.setAlign(2, Align::Left);
    int rank = 1;
    for (const auto &r : ranked) {
        auto names = namesForConfig(r.inputs.protocol);
        std::string mods = r.inputs.protocol.modString();
        t.addRow({strprintf("%d", rank++),
                  mods.empty() ? "-" : mods,
                  names.empty() ? "" : names.front(),
                  formatDouble(r.speedup, 3),
                  formatPercent(r.busUtil, 1),
                  formatDouble(r.inputs.tRead, 2)});
    }
    std::fputs(t.render().c_str(), stdout);

    std::printf("\nReading the table: mod 1 (exclusive-on-miss) "
                "separates the top half from the bottom half, mod 4 "
                "(broadcast update) adds the next tier, and mods 2/3 "
                "shuffle within tiers - the Section 4.1 conclusions.\n");
    observeFinalize();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("design_space",
                  "rank or sweep all 16 modification combinations");
    cli.addOption("n", "20", "number of processors");
    cli.addOption("sharing", "5", "sharing level in percent (1, 5, 20)");
    cli.addOption("param", "",
                  "sweep this workload parameter across the 16-protocol "
                  "grid instead of ranking one point");
    cli.addOption("from", "0.1", "sweep mode: first swept value");
    cli.addOption("to", "0.7", "sweep mode: last swept value");
    cli.addOption("steps", "7", "sweep mode: number of swept values");
    cli.addOption("shard", "0/1",
                  "sweep mode: evaluate slice i/N of the cell grid");
    cli.addOption("checkpoint", "",
                  "sweep mode: crash-safe progress file; rerun the "
                  "same command to resume");
    cli.addOption("checkpoint-every", "8",
                  "sweep mode: cells per checkpoint commit");
    cli.addOption("csv", "", "sweep mode: write the value-grid CSV here");
    cli.addOption("cell-csv", "",
                  "sweep mode: write the per-cell long-form CSV here");
    cli.addFlag("chaos-kill",
                "sweep mode: SIGKILL the process when the armed "
                "sweep.checkpoint fault fires (tools/run_chaos.sh)");
    cli.parse(argc, argv);

    return cli.get("param").empty() ? rankMode(cli) : sweepMode(cli);
}
