/** Experiment E1: regenerate Table 4.1(a), Write-Once speedups. */

#include "table41_common.hh"

namespace snoop::bench {
namespace {

void
report()
{
    reportTable41(Table41::A, "speedups for the Write-Once protocol");
}

void
BM_Table41a_MvaSweep(benchmark::State &state)
{
    mvaSubTableTiming(state, Table41::A);
}
BENCHMARK(BM_Table41a_MvaSweep);

void
BM_Table41a_OneSimPoint(benchmark::State &state)
{
    SimConfig sc;
    sc.numProcessors = 6;
    sc.workload = presets::appendixA(SharingLevel::FivePercent);
    sc.protocol = ProtocolConfig::writeOnce();
    sc.measuredRequests = 100000;
    uint64_t seed = 1;
    for (auto _ : state) {
        sc.seed = seed++;
        benchmark::DoNotOptimize(simulate(sc).speedup);
    }
}
BENCHMARK(BM_Table41a_OneSimPoint)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
