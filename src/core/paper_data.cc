#include "core/paper_data.hh"

#include "util/contracts.hh"

namespace snoop {

const std::vector<unsigned> &
table41Ns()
{
    static const std::vector<unsigned> ns = {1, 2, 4, 6, 8, 10, 15, 20,
                                             100};
    return ns;
}

const std::vector<unsigned> &
table41GtpnNs()
{
    static const std::vector<unsigned> ns = {1, 2, 4, 6, 8, 10};
    return ns;
}

const std::vector<PaperRow> &
paperTable41(Table41 sub_table)
{
    static const std::vector<PaperRow> a = {
        {SharingLevel::OnePercent,
         {0.86, 1.68, 3.17, 4.33, 5.08, 5.49, 5.88, 5.98, 6.07},
         {0.86, 1.69, 3.20, 4.41, 5.21, 5.60}},
        {SharingLevel::FivePercent,
         {0.855, 1.67, 3.12, 4.23, 4.93, 5.30, 5.63, 5.72, 5.79},
         {0.855, 1.67, 3.14, 4.30, 5.04, 5.37}},
        {SharingLevel::TwentyPercent,
         {0.84, 1.61, 2.97, 3.97, 4.55, 4.83, 5.07, 5.12, 5.16},
         {0.84, 1.62, 3.02, 4.07, 4.67, 4.87}},
    };
    static const std::vector<PaperRow> b = {
        {SharingLevel::OnePercent,
         {0.875, 1.73, 3.37, 4.82, 5.94, 6.59, 7.02, 7.09, 7.04},
         {0.875, 1.73, 3.37, 4.84, 6.00, 6.72}},
        {SharingLevel::FivePercent,
         {0.87, 1.71, 3.30, 4.65, 5.68, 6.23, 6.59, 6.64, 6.60},
         {0.86, 1.71, 3.31, 4.71, 5.76, 6.31}},
        {SharingLevel::TwentyPercent,
         {0.85, 1.63, 3.08, 4.22, 5.03, 5.40, 5.63, 5.66, 5.62},
         {0.85, 1.65, 3.15, 4.39, 5.19, 5.58}},
    };
    static const std::vector<PaperRow> c = {
        {SharingLevel::OnePercent,
         {0.88, 1.75, 3.40, 4.90, 6.06, 6.83, 7.49, 7.58, 7.56},
         {0.88, 1.75, 3.41, 4.91, 6.13, 6.91}},
        {SharingLevel::FivePercent,
         {0.88, 1.75, 3.40, 4.87, 6.06, 6.83, 7.46, 7.57, 7.57},
         {0.88, 1.75, 3.41, 4.92, 6.16, 6.98}},
        {SharingLevel::TwentyPercent,
         {0.88, 1.74, 3.35, 4.75, 5.90, 6.70, 7.47, 7.64, 7.70},
         {0.88, 1.75, 3.39, 4.87, 6.09, 6.93}},
    };
    switch (sub_table) {
      case Table41::A:
        return a;
      case Table41::B:
        return b;
      case Table41::C:
        return c;
    }
    SNOOP_ASSERT(false, "paperTable41: not a Table41 enumerator");
    return a;
}

std::string
table41Mods(Table41 sub_table)
{
    switch (sub_table) {
      case Table41::A:
        return "";
      case Table41::B:
        return "1";
      case Table41::C:
        return "14";
    }
    SNOOP_ASSERT(false, "table41Mods: not a Table41 enumerator");
    return "";
}

PaperSpotChecks
paperSpotChecks()
{
    return PaperSpotChecks{};
}

} // namespace snoop
