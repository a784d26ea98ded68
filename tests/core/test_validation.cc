/** Integration tests for the MVA-vs-simulator validation harness. */

#include <gtest/gtest.h>

#include "core/validation.hh"

namespace snoop {
namespace {

TEST(Validation, ReproducesPaperAgreementBand)
{
    // The headline experiment: the mean-value model tracks the
    // detailed model within a few percent over the whole sweep
    // (Section 4.2 reports <= 2.6% vs the GTPN for Write-Once; we
    // allow 6% against our simulator).
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.protocol = ProtocolConfig::writeOnce();
    cfg.ns = {1, 2, 4, 6, 8, 10};
    cfg.measuredRequests = 150000;
    auto pts = validate(cfg);
    ASSERT_EQ(pts.size(), 6u);
    EXPECT_LE(maxAbsError(pts), 0.06);
}

TEST(Validation, BadWorkloadFailsEveryPointInsteadOfExiting)
{
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.workload.hSw = 1.5;
    cfg.protocol = ProtocolConfig::writeOnce();
    cfg.ns = {1, 4};
    auto pts = validate(cfg);
    ASSERT_EQ(pts.size(), 2u);
    for (size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(pts[i].numProcessors, cfg.ns[i]);
        ASSERT_FALSE(pts[i].ok());
        EXPECT_EQ(pts[i].error->code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(pts[i].error->message.find("hSw"), std::string::npos);
        ASSERT_EQ(pts[i].error->context.size(), 1u);
        EXPECT_EQ(pts[i].error->context.front(), "validate");
    }
}

TEST(Validation, BadTimingFailsEveryPointInsteadOfExiting)
{
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.timing.numModules = 0;
    cfg.ns = {2};
    auto pts = validate(cfg);
    ASSERT_EQ(pts.size(), 1u);
    ASSERT_FALSE(pts[0].ok());
    EXPECT_NE(pts[0].error->message.find("numModules"), std::string::npos);
}

TEST(Validation, PointsCarryBothModels)
{
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::OnePercent);
    cfg.protocol = ProtocolConfig::fromModString("1");
    cfg.ns = {2, 6};
    cfg.measuredRequests = 60000;
    auto pts = validate(cfg);
    for (const auto &p : pts) {
        EXPECT_EQ(p.mva.numProcessors, p.numProcessors);
        EXPECT_EQ(p.sim.numProcessors, p.numProcessors);
        EXPECT_GT(p.sim.requestsMeasured, 0u);
    }
}

TEST(Validation, MvaUnderestimatesBusUtilizationLikeThePaper)
{
    // Section 4.2: "the approximate MVA equations generally
    // underestimate bus utilization ... relative to the GTPN model."
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.protocol = ProtocolConfig::writeOnce();
    cfg.ns = {6, 8, 10};
    cfg.measuredRequests = 150000;
    auto pts = validate(cfg);
    for (const auto &p : pts) {
        EXPECT_LE(p.mva.busUtil, p.sim.busUtilization + 0.01)
            << "N=" << p.numProcessors;
    }
}

TEST(Validation, TableRendersAllColumns)
{
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.protocol = ProtocolConfig::writeOnce();
    cfg.ns = {2};
    cfg.measuredRequests = 30000;
    auto pts = validate(cfg);
    auto table = comparisonTable(pts, "demo");
    std::string out = table.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("MVA speedup"), std::string::npos);
    EXPECT_NE(out.find("sim 95% CI"), std::string::npos);
    EXPECT_EQ(table.numRows(), 1u);
}

TEST(Validation, ErrorHelpers)
{
    ComparisonPoint p;
    p.mva.speedup = 5.0;
    p.sim.speedup = 4.0;
    p.sim.speedupCi.mean = 4.0;
    p.sim.speedupCi.halfWidth = 0.5;
    EXPECT_DOUBLE_EQ(p.speedupError(), 0.25);
    EXPECT_FALSE(p.withinCi());
    p.mva.speedup = 4.3;
    EXPECT_TRUE(p.withinCi());
    EXPECT_DOUBLE_EQ(maxAbsError({p}), 0.075);
}

} // namespace
} // namespace snoop
