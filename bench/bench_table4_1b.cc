/** Experiment E2: regenerate Table 4.1(b), enhancement 1 speedups. */

#include "table41_common.hh"

namespace snoop::bench {
namespace {

void
report()
{
    reportTable41(Table41::B, "speedups for enhancement 1 (exclusive-on-miss)");
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
