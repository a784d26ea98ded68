/** Unit tests for the observe metrics registry. */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "observe/metrics.hh"
#include "observe/trace.hh"

namespace snoop {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class MetricsTest : public testing::Test
{
  protected:
    void SetUp() override { observeReset(); }
    void TearDown() override { observeReset(); }
};

TEST_F(MetricsTest, DisabledRegistryRecordsNothing)
{
    ASSERT_FALSE(metrics().enabled());
    metrics().add("mva.solves");
    metrics().set("gauge", 3.0);
    metrics().recordTime("timer_us", 12.5);
    EXPECT_TRUE(metrics().snapshot().empty());
}

TEST_F(MetricsTest, FreeHelpersRespectDisabledState)
{
    metricAdd("a");
    metricSet("b", 1.0);
    {
        ScopedMetricTimer t("c_us");
    }
    EXPECT_TRUE(metrics().snapshot().empty());
}

TEST_F(MetricsTest, CounterAccumulatesCountAndTotal)
{
    metrics().setEnabled(true);
    metrics().add("solves");
    metrics().add("solves", 4.0);
    auto snap = metrics().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "solves");
    EXPECT_EQ(snap[0].kind, 'c');
    EXPECT_EQ(snap[0].count, 2u);
    EXPECT_DOUBLE_EQ(snap[0].total, 5.0);
}

TEST_F(MetricsTest, GaugeKeepsLastValue)
{
    metrics().setEnabled(true);
    metrics().set("jobs", 2.0);
    metrics().set("jobs", 8.0);
    auto snap = metrics().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].kind, 'g');
    EXPECT_DOUBLE_EQ(snap[0].total, 8.0);
}

TEST_F(MetricsTest, TimerAccumulatesDurations)
{
    metrics().setEnabled(true);
    metrics().recordTime("solve_us", 10.0);
    metrics().recordTime("solve_us", 30.0);
    auto snap = metrics().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].kind, 't');
    EXPECT_EQ(snap[0].count, 2u);
    EXPECT_DOUBLE_EQ(snap[0].total, 40.0);
}

TEST_F(MetricsTest, ScopedTimerLatchesEnabledAtConstruction)
{
    metrics().setEnabled(true);
    {
        ScopedMetricTimer t("span_us");
    }
    auto snap = metrics().snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].name, "span_us");
    EXPECT_GE(snap[0].total, 0.0);

    // A timer constructed while disabled records nothing even if the
    // registry is enabled before it destructs.
    metrics().reset();
    metrics().setEnabled(false);
    {
        ScopedMetricTimer t("late_us");
        metrics().setEnabled(true);
    }
    EXPECT_TRUE(metrics().snapshot().empty());
}

TEST_F(MetricsTest, WriteCsvEmitsSortedRows)
{
    metrics().setEnabled(true);
    metrics().add("b.counter", 2.0);
    metrics().set("a.gauge", 7.0);
    std::string path = testing::TempDir() + "snoop_metrics_test.csv";
    ASSERT_TRUE(static_cast<bool>(metrics().writeCsv(path)));
    std::string text = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(text.find("kind,name,count,total,mean"),
              std::string::npos);
    // std::map ordering: a.gauge before b.counter
    EXPECT_LT(text.find("a.gauge"), text.find("b.counter"));
    EXPECT_NE(text.find("g,a.gauge,1,7,7"), std::string::npos);
}

TEST_F(MetricsTest, SummaryMentionsEachKind)
{
    metrics().setEnabled(true);
    metrics().add("c");
    metrics().set("g", 1.0);
    metrics().recordTime("t_us", 5.0);
    std::string s = metrics().summary();
    EXPECT_NE(s.find("counter"), std::string::npos);
    EXPECT_NE(s.find("gauge"), std::string::npos);
    EXPECT_NE(s.find("timer"), std::string::npos);
}

} // namespace
} // namespace snoop
