// Planted fixture for ctest lint/fatal_link_planted: an external
// library function that reaches fatal() through a file-local helper,
// the shape of a fatal() planted in core/report.cc's report writer.
// Linked into the probe as one more root, it must make the link check
// fail and name plantedReportWriter (the probe is built at -O2, where
// the helper is inlined into it).

#include <string>

#include "util/logging.hh"

namespace snoop {

namespace {

void
requireTitle(const std::string &title)
{
    if (title.empty())
        fatal("report: empty title");
}

} // namespace

std::string
plantedReportWriter(const std::string &title)
{
    requireTitle(title);
    return "# " + title + "\n";
}

} // namespace snoop
