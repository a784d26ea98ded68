/** Unit tests for the markdown report generator. */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/report.hh"
#include "protocol/catalog.hh"

namespace snoop {
namespace {

ReportSpec
basicSpec()
{
    ReportSpec spec;
    spec.title = "Illinois on the 5% workload";
    spec.workload = presets::appendixA(SharingLevel::FivePercent);
    spec.protocol = *findProtocol("Illinois");
    spec.ns = {1, 4, 10};
    return spec;
}

TEST(Report, ContainsAllSections)
{
    std::string md = generateReport(basicSpec()).value();
    EXPECT_NE(md.find("# Illinois on the 5% workload"),
              std::string::npos);
    EXPECT_NE(md.find("## Protocol"), std::string::npos);
    EXPECT_NE(md.find("known as **Illinois**"), std::string::npos);
    EXPECT_NE(md.find("## Workload"), std::string::npos);
    EXPECT_NE(md.find("## Derived model inputs"), std::string::npos);
    EXPECT_NE(md.find("## Predicted performance"), std::string::npos);
    // validation skipped by default
    EXPECT_EQ(md.find("## Validation"), std::string::npos);
}

TEST(Report, SweepRowsMatchRequestedSizes)
{
    std::string md = generateReport(basicSpec()).value();
    EXPECT_NE(md.find("| 1 |"), std::string::npos);
    EXPECT_NE(md.find("| 4 |"), std::string::npos);
    EXPECT_NE(md.find("| 10 |"), std::string::npos);
    EXPECT_EQ(md.find("| 20 |"), std::string::npos);
}

TEST(Report, ModFlagsRendered)
{
    std::string md = generateReport(basicSpec()).value();
    EXPECT_NE(md.find("mod 1 (exclusive-on-miss): yes"),
              std::string::npos);
    EXPECT_NE(md.find("mod 2 (dirty cache supplies data): no"),
              std::string::npos);
    EXPECT_NE(md.find("mod 3 (invalidate instead of write-word): yes"),
              std::string::npos);
}

TEST(Report, ValidationSectionWhenRequested)
{
    auto spec = basicSpec();
    spec.ns = {1, 2, 8};
    spec.validateUpTo = 2;
    spec.measuredRequests = 30000;
    std::string md = generateReport(spec).value();
    EXPECT_NE(md.find("## Validation against detailed simulation"),
              std::string::npos);
    EXPECT_NE(md.find("Max |relative error|"), std::string::npos);
    // only N <= validateUpTo rows get simulated: the sweep table has
    // N=8 but the validation table must not
    auto validation_at = md.find("## Validation");
    EXPECT_EQ(md.find("| 8 |", validation_at), std::string::npos);
}

TEST(Report, WritesToDisk)
{
    std::string path = testing::TempDir() + "snoop_report_test.md";
    ASSERT_TRUE(writeReport(basicSpec(), path));
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("## Predicted performance"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Report, BadSpecsAreErrors)
{
    auto spec = basicSpec();
    spec.ns.clear();
    auto md = generateReport(spec);
    ASSERT_FALSE(md);
    EXPECT_EQ(md.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(md.error().message.find("at least one"), std::string::npos);

    spec = basicSpec();
    spec.workload.hPrivate = 2.0;
    ASSERT_FALSE(generateReport(spec));

    // A bad timing is an error too, not an exit from the Analyzer
    // constructor's precondition.
    spec = basicSpec();
    spec.timing.numModules = 0;
    md = generateReport(spec);
    ASSERT_FALSE(md);
    EXPECT_EQ(md.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(md.error().message.find("numModules"), std::string::npos);
    ASSERT_FALSE(md.error().context.empty());
    EXPECT_EQ(md.error().context.back(), "generateReport");

    auto written = writeReport(basicSpec(), "/nonexistent-dir-xyz/r.md");
    ASSERT_FALSE(written);
    EXPECT_EQ(written.error().code, SolveErrorCode::IoError);
    EXPECT_NE(written.error().message.find("cannot open"),
              std::string::npos);
}

} // namespace
} // namespace snoop
