/** Experiment E3: regenerate Table 4.1(c), enhancements 1+4. */

#include "table41_common.hh"

namespace snoop::bench {
namespace {

void
report()
{
    reportTable41(Table41::C,
                  "speedups for enhancements 1 and 4 (broadcast update)");
}

} // namespace
} // namespace snoop::bench

SNOOP_BENCH_MAIN(snoop::bench::report)
