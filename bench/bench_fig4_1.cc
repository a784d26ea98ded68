/**
 * Experiment E4: regenerate Figure 4.1, the speedup-vs-N curves -
 * Write-Once at 1/5/20% sharing, enhancement 1 at 1/5/20%, and
 * enhancements 1+4 at 5% (the paper draws only the 5% curve because
 * the three sharing levels nearly coincide for that protocol).
 */

#include <vector>

#include "common.hh"
#include "util/chart.hh"

namespace snoop::bench {
namespace {

const std::vector<unsigned> kCurveNs = {1, 2,  4,  6,  8, 10,
                                        12, 14, 16, 18, 20};

struct Series
{
    const char *label;
    const char *mods;
    SharingLevel level;
};

const Series kSeries[] = {
    {"WO 1%", "", SharingLevel::OnePercent},
    {"WO 5%", "", SharingLevel::FivePercent},
    {"WO 20%", "", SharingLevel::TwentyPercent},
    {"M1 1%", "1", SharingLevel::OnePercent},
    {"M1 5%", "1", SharingLevel::FivePercent},
    {"M1 20%", "1", SharingLevel::TwentyPercent},
    {"M1+4 5%", "14", SharingLevel::FivePercent},
};

void
report()
{
    banner("Figure 4.1: mean value analysis performance results");
    std::printf("speedup vs number of processors, one column per "
                "curve (CSV-friendly; plot N on the x-axis).\n\n");

    MvaSolver solver;
    std::vector<std::vector<double>> columns;
    for (const auto &s : kSeries) {
        auto inputs = DerivedInputs::compute(
            presets::appendixA(s.level),
            ProtocolConfig::fromModString(s.mods));
        std::vector<double> col;
        for (unsigned n : kCurveNs)
            col.push_back(solver.solve(inputs, n).speedup);
        columns.push_back(std::move(col));
    }

    std::vector<std::string> headers = {"N"};
    for (const auto &s : kSeries)
        headers.push_back(s.label);
    Table t(headers);
    for (size_t i = 0; i < kCurveNs.size(); ++i) {
        std::vector<std::string> row = {strprintf("%u", kCurveNs[i])};
        for (const auto &col : columns)
            row.push_back(formatDouble(col[i], 2));
        t.addRow(row);
    }
    std::fputs(t.render().c_str(), stdout);

    // Draw the figure.
    std::vector<ChartSeries> chart;
    const char markers[] = {'o', 'x', '+', 'O', 'X', '#', '*'};
    std::vector<double> xs(kCurveNs.begin(), kCurveNs.end());
    for (size_t i = 0; i < std::size(kSeries); ++i) {
        ChartSeries s;
        s.label = kSeries[i].label;
        s.marker = markers[i];
        s.x = xs;
        s.y = columns[i];
        chart.push_back(std::move(s));
    }
    ChartOptions opt;
    opt.xLabel = "number of processors";
    opt.yLabel = "speedup";
    opt.height = 22;
    opt.width = 66;
    std::printf("\n%s", renderChart(chart, opt).c_str());

    // The figure's qualitative content, checked programmatically:
    std::printf("\nfigure shape checks:\n");
    auto at = [&](int series, unsigned n) {
        for (size_t i = 0; i < kCurveNs.size(); ++i)
            if (kCurveNs[i] == n)
                return columns[series][i];
        return 0.0;
    };
    std::printf("  M1 above WO at every sharing level (N=20): "
                "%.2f>%.2f, %.2f>%.2f, %.2f>%.2f\n",
                at(3, 20), at(0, 20), at(4, 20), at(1, 20), at(5, 20),
                at(2, 20));
    std::printf("  M1+4 (5%%) tops every curve at N=20: %.2f\n",
                at(6, 20));
    std::printf("  WO curves order by sharing (1%% > 5%% > 20%% at "
                "N=20): %.2f > %.2f > %.2f\n",
                at(0, 20), at(1, 20), at(2, 20));
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
