#pragma once

/**
 * @file
 * Bounded line input. A line-oriented reader of outside bytes (the
 * serve daemon's request lines, sweep checkpoint files) must not let
 * one long line make it allocate without bound: LineReader keeps one
 * buffer of a fixed capacity for the whole stream, and a longer line
 * is skipped to its newline without being stored and reported as
 * LineStatus::TooLong, so the caller can answer it with a structured
 * error.
 */

#include <cstddef>
#include <istream>
#include <memory>
#include <string_view>

namespace snoop {

/** The default line cap: 1 MiB, a serve batch of thousands of
 * requests. */
inline constexpr size_t kMaxLineBytes = size_t{1} << 20;

/** What LineReader::next() found. */
enum class LineStatus {
    Line,    ///< a line of at most the cap; see line() and terminated()
    TooLong, ///< a line over the cap, skipped through its newline
    End,     ///< no more input (end of stream or a read error)
};

/** Reads a stream one line at a time into a buffer of fixed capacity. */
class LineReader
{
  public:
    /** Read @p in with lines of at most @p max_bytes (newline excluded). */
    explicit LineReader(std::istream &in, size_t max_bytes = kMaxLineBytes);

    /** Read the next line. */
    LineStatus next();

    /** The last line read, without its newline; valid until next(). */
    std::string_view line() const { return {buf_.get(), len_}; }

    /** Whether a newline ended the last line (false at end of stream). */
    bool terminated() const { return terminated_; }

    /** The line cap in bytes. */
    size_t maxBytes() const { return max_; }

  private:
    std::istream &in_;
    size_t max_;
    /** Never zero-filled: only the bytes a line occupies are touched. */
    std::unique_ptr<char[]> buf_;
    size_t len_ = 0;
    bool terminated_ = false;
};

} // namespace snoop
