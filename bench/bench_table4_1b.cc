/** Experiment E2: regenerate Table 4.1(b), enhancement 1 speedups. */

#include "table41_common.hh"

namespace snoop::bench {
namespace {

void
report()
{
    reportTable41(Table41::B, "speedups for enhancement 1 (exclusive-on-miss)");
}

void
BM_Table41b_MvaSweep(benchmark::State &state)
{
    mvaSubTableTiming(state, Table41::B);
}
BENCHMARK(BM_Table41b_MvaSweep);

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
