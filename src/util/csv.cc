#include "util/csv.hh"

#include "util/logging.hh"
#include "util/strutil.hh"

namespace snoop {

CsvWriter::CsvWriter(const std::string &path) : out_(path)
{
    // No fatal() here: CSV emission runs on library paths (sweep
    // results, bench emitters) under the library's never-exit
    // contract (util/expected.hh, checked by lint/fatal_link). The
    // error is sticky and surfaces through close().
    if (!out_.ok()) {
        error_ = makeError(SolveErrorCode::IoError, "CsvWriter",
                           "cannot open '%s' for writing", path.c_str());
    }
}

CsvWriter::~CsvWriter()
{
    if (closed_)
        return;
    if (auto committed = close(); !committed)
        warn("%s", committed.error().describe().c_str());
}

void
CsvWriter::header(const std::vector<std::string> &names)
{
    row(names);
}

void
CsvWriter::row(const std::vector<std::string> &fields)
{
    if (error_)
        return; // sticky: drop output after the first failure
    std::vector<std::string> escaped;
    escaped.reserve(fields.size());
    for (const auto &f : fields)
        escaped.push_back(escape(f));
    out_.stream() << join(escaped, ",") << "\n";
    if (!out_.ok()) {
        error_ = makeError(SolveErrorCode::IoError, "CsvWriter",
                           "write to '%s' failed", out_.path().c_str());
    }
}

Expected<void>
CsvWriter::close()
{
    closed_ = true;
    if (error_) {
        out_.discard();
        return *error_;
    }
    return out_.commit();
}

void
CsvWriter::rowDoubles(const std::vector<double> &values, int digits)
{
    std::vector<std::string> fields;
    fields.reserve(values.size());
    for (double v : values)
        fields.push_back(formatDouble(v, digits));
    row(fields);
}

std::string
CsvWriter::escape(const std::string &field)
{
    bool needs = field.find_first_of(",\"\n") != std::string::npos;
    if (!needs)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += "\"";
    return out;
}

} // namespace snoop
