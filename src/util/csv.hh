#pragma once

/**
 * @file
 * Minimal CSV emission for experiment results, suitable for feeding
 * into external plotting tools.
 */

#include <optional>
#include <string>
#include <vector>

#include "util/atomic_file.hh"
#include "util/expected.hh"

namespace snoop {

/**
 * Streams rows of values to a CSV file. Fields containing commas,
 * quotes, or newlines are quoted per RFC 4180.
 *
 * Output is staged through an AtomicFile: the destination only
 * changes on a successful close() (or destruction), so an interrupted
 * run can never leave a truncated CSV behind.
 *
 * Failures never exit the process (the library's never-exit contract,
 * util/expected.hh): an open or write failure is recorded as a sticky
 * IoError, subsequent rows are dropped, and close() reports it. The
 * destination is never touched by a failed writer.
 */
class CsvWriter
{
  public:
    /** Open @p path for writing; a failure is reported by close(). */
    explicit CsvWriter(const std::string &path);

    /** Commits on destruction (warn() if the commit fails). */
    ~CsvWriter();

    /** Write the header row (call once, first). */
    void header(const std::vector<std::string> &names);

    /** Write one row of preformatted fields (dropped after an error). */
    void row(const std::vector<std::string> &fields);

    /** Write one row of doubles with @p digits precision. */
    void rowDoubles(const std::vector<double> &values, int digits = 6);

    /**
     * Commit the file to its destination path, or report the first
     * open/write error if one occurred (in which case the staged
     * output is discarded). Idempotent; an IoError leaves any previous
     * destination contents untouched.
     */
    Expected<void> close();

    /** True when no open or write failure has been recorded. */
    bool ok() const { return !error_.has_value(); }

    /** Quote a field per RFC 4180 if it needs quoting. */
    static std::string escape(const std::string &field);

  private:
    AtomicFile out_;
    std::optional<SolveError> error_;
    bool closed_ = false;
};

} // namespace snoop
