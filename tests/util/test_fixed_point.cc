/** Unit tests for util/fixed_point: the shared recovery-ladder schedule. */

#include <vector>

#include <gtest/gtest.h>

#include "util/fixed_point.hh"

namespace snoop {
namespace {

TEST(FixedPoint, RecoveryLadderSkipsIneligibleRungs)
{
    EXPECT_EQ(recoveryLadder(1.0),
              (std::vector<double>{1.0, 0.5, 0.25, 0.1, 0.05}));
    // 0.5 is not below 0.3: it is skipped, not a ladder terminator.
    EXPECT_EQ(recoveryLadder(0.3),
              (std::vector<double>{0.3, 0.25, 0.1, 0.05}));
    // Nothing lies below the heaviest shared rung: single attempt.
    EXPECT_EQ(recoveryLadder(0.05), (std::vector<double>{0.05}));
}

} // namespace
} // namespace snoop
