/** Unit tests for the paper reference data tables. */

#include <gtest/gtest.h>

#include "core/paper_data.hh"

namespace snoop {
namespace {

TEST(PaperData, TableShapes)
{
    EXPECT_EQ(table41Ns().size(), 9u);
    EXPECT_EQ(table41GtpnNs().size(), 6u);
    for (Table41 sub : {Table41::A, Table41::B, Table41::C}) {
        const auto &rows = paperTable41(sub);
        ASSERT_EQ(rows.size(), 3u) << static_cast<char>(sub);
        for (const auto &row : rows) {
            EXPECT_EQ(row.mva.size(), table41Ns().size());
            EXPECT_EQ(row.gtpn.size(), table41GtpnNs().size());
        }
    }
}

TEST(PaperData, ModStrings)
{
    EXPECT_EQ(table41Mods(Table41::A), "");
    EXPECT_EQ(table41Mods(Table41::B), "1");
    EXPECT_EQ(table41Mods(Table41::C), "14");
}

TEST(PaperData, RowsOrderedBySharingLevel)
{
    for (Table41 sub : {Table41::A, Table41::B, Table41::C}) {
        const auto &rows = paperTable41(sub);
        EXPECT_EQ(rows[0].level, SharingLevel::OnePercent);
        EXPECT_EQ(rows[1].level, SharingLevel::FivePercent);
        EXPECT_EQ(rows[2].level, SharingLevel::TwentyPercent);
    }
}

TEST(PaperData, MvaAndGtpnColumnsAgreeWithinPaperClaim)
{
    // The paper's own claim: MVA within ~3% of GTPN for (a), within
    // 4.25% for (b), nearly exact for (c).
    for (Table41 sub : {Table41::A, Table41::B, Table41::C}) {
        for (const auto &row : paperTable41(sub)) {
            for (size_t i = 0; i < row.gtpn.size(); ++i) {
                double rel = (row.mva[i] - row.gtpn[i]) / row.gtpn[i];
                EXPECT_LE(std::abs(rel), 0.0425 + 1e-9)
                    << static_cast<char>(sub) << " "
                    << to_string(row.level) << " N="
                    << table41GtpnNs()[i];
            }
        }
    }
}

TEST(PaperData, SpeedupsIncreaseWithN)
{
    for (Table41 sub : {Table41::A, Table41::B, Table41::C}) {
        for (const auto &row : paperTable41(sub)) {
            // monotone up to N=20 (index 7); the N=100 column may sag
            for (size_t i = 1; i <= 7; ++i)
                EXPECT_GE(row.mva[i], row.mva[i - 1]);
        }
    }
}

TEST(PaperData, SpotChecks)
{
    auto s = paperSpotChecks();
    EXPECT_DOUBLE_EQ(s.processingPowerMva, 4.32);
    EXPECT_DOUBLE_EQ(s.processingPowerGtpn, 4.1);
    EXPECT_DOUBLE_EQ(s.busUtilMva6, 0.77);
    EXPECT_DOUBLE_EQ(s.busUtilGtpn6, 0.81);
}

} // namespace
} // namespace snoop
