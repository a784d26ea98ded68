/** Experiment E1: regenerate Table 4.1(a), Write-Once speedups. */

#include "table41_common.hh"

namespace snoop::bench {
namespace {

void
report()
{
    reportTable41(Table41::A, "speedups for the Write-Once protocol");
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
