#include "util/line_reader.hh"

#include <limits>

namespace snoop {

LineReader::LineReader(std::istream &in, size_t max_bytes)
    : in_(in), max_(max_bytes), buf_(new char[max_bytes + 1])
{
}

LineStatus
LineReader::next()
{
    len_ = 0;
    terminated_ = false;
    in_.getline(buf_.get(), static_cast<std::streamsize>(max_ + 1));
    if (in_.fail()) {
        // Nothing was extracted at the end of the stream, or the
        // stream broke.
        if (in_.eof() || in_.bad())
            return LineStatus::End;
        // The line filled the buffer before its newline.
        in_.clear();
        in_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        return LineStatus::TooLong;
    }
    // gcount() includes the newline unless the line ended the stream.
    terminated_ = !in_.eof();
    len_ = static_cast<size_t>(in_.gcount()) - (terminated_ ? 1 : 0);
    return LineStatus::Line;
}

} // namespace snoop
