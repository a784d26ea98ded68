#pragma once

/**
 * @file
 * The paper's published numbers (Table 4.1 and the Section 4
 * spot-checks), kept in one place so the benchmark harnesses can print
 * measured-vs-paper comparisons for every experiment.
 */

#include <string>
#include <vector>

#include "workload/params.hh"

namespace snoop {

/** Processor counts of the Table 4.1 columns. */
const std::vector<unsigned> &table41Ns();

/** Processor counts for which the paper also has GTPN values. */
const std::vector<unsigned> &table41GtpnNs();

/** One row of a Table 4.1 sub-table. */
struct PaperRow
{
    SharingLevel level;
    /** MVA speedups at table41Ns() order. */
    std::vector<double> mva;
    /** GTPN speedups at table41GtpnNs() order (N <= 10 only). */
    std::vector<double> gtpn;
};

/**
 * The sub-tables of Table 4.1: (a) is Write-Once, (b) is enhancement
 * 1, (c) is enhancements 1+4. The underlying value is the sub-table's
 * letter, for captions.
 */
enum class Table41 : char { A = 'a', B = 'b', C = 'c' };

/** The rows of one Table 4.1 sub-table. */
const std::vector<PaperRow> &paperTable41(Table41 sub_table);

/** Modification string of a Table 4.1 sub-table (A -> ""). */
std::string table41Mods(Table41 sub_table);

/** Section 4.4 spot-check constants. */
struct PaperSpotChecks
{
    /** processing power, mods 1+2+3, N=9, 5% sharing */
    double processingPowerMva = 4.32;
    double processingPowerGtpn = 4.1;
    /** bus-utilization increase of Write-Once over mods 2+3 at high
     *  sharing, unsaturated (vs the ~10% of [KEWP85]) */
    double busUtilIncrease = 0.10;
    /** Section 4.2: bus utilization at N=6, 5% sharing */
    double busUtilMva6 = 0.77;
    double busUtilGtpn6 = 0.81;
};

/** The Section 4 spot-check values. */
PaperSpotChecks paperSpotChecks();

} // namespace snoop
