#pragma once

/**
 * @file
 * Markdown report generation: one self-contained document per
 * analysis - the workload, the derived model inputs, the speedup
 * sweep, and (optionally) the MVA-vs-simulation validation - suitable
 * for dropping into a design review.
 */

#include <string>
#include <vector>

#include "core/validation.hh"
#include "protocol/config.hh"
#include "util/expected.hh"
#include "workload/params.hh"

namespace snoop {

/** What to include in a report. */
struct ReportSpec
{
    std::string title = "Protocol analysis";
    WorkloadParams workload;
    ProtocolConfig protocol;
    BusTiming timing;
    /** System sizes for the speedup sweep. */
    std::vector<unsigned> ns = {1, 2, 4, 6, 8, 10, 15, 20, 100};
    /** Also run the simulator at sizes <= validateUpTo (0 = skip). */
    unsigned validateUpTo = 0;
    uint64_t seed = 1;
    uint64_t measuredRequests = 200000;
};

/**
 * Produce the full markdown report text. An invalid workload, an empty
 * size list, or a failed solve is an error, not a process exit.
 */
Expected<std::string> generateReport(const ReportSpec &spec);

/**
 * Write the report to @p path through AtomicFile, so a failed write
 * leaves any previous file intact and comes back as an IoError.
 */
Expected<void> writeReport(const ReportSpec &spec, const std::string &path);

} // namespace snoop
