#pragma once

/**
 * @file
 * Atomic file output: write to a temporary, rename into place.
 *
 * Result files (CSV tables, benchmark JSON) are consumed by external
 * tools; a half-written file from an interrupted or failed run is
 * worse than no file, because it silently truncates the data set. An
 * AtomicFile stages all output in `<path>.tmp.<pid>.<seq>` and only
 * renames it over the destination on a successful commit(), so the
 * destination is always either the previous complete file or the new
 * complete file - never a torn mix.
 *
 * Durability contract (what a successful commit() guarantees): the
 * temporary's *data* is fsync'd to stable storage before the rename,
 * and the parent directory is fsync'd after it, so the committed file
 * survives power loss - not just process death. (rename alone is
 * atomic against crashes of this process, but the kernel may hold
 * both the file data and the directory entry in volatile caches; a
 * checkpoint that a resume depends on needs the full sequence.) Any
 * fsync failure is surfaced as an IoError - never silent success -
 * with the caveat that a failed *directory* fsync leaves the renamed
 * file visible but possibly not yet durable.
 *
 * The fault sites `io.commit` and `io.fsync` (util/fault.hh) force
 * commit() to fail before and after the flush-to-disk step
 * respectively, which is how tests prove the destination survives a
 * failed write and that fsync failures are reported.
 *
 * AppendFile is the append-only counterpart for logs whose prefix is
 * already committed (the sweep checkpoint log, core/checkpoint.hh):
 * the file is created once through an AtomicFile, then each later
 * commit appends one buffer with one write(2) and fdatasync(2)s it.
 * The same two fault sites guard it, and a failed append truncates
 * the file back to its last committed length.
 */

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "util/expected.hh"

namespace snoop {

/**
 * An output file that becomes visible at its destination path only on
 * commit(). Destruction without commit() discards the temporary and
 * leaves any existing destination untouched.
 */
class AtomicFile
{
  public:
    /** Stage output for @p path; check ok() before writing. */
    explicit AtomicFile(std::string path);

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** Discards the temporary if commit() was never called. */
    ~AtomicFile();

    /** True when the temporary opened and no write has failed. */
    bool ok() const { return static_cast<bool>(out_); }

    /** The stream to write through (valid only while ok()). */
    std::ofstream &stream() { return out_; }

    /** The destination path this file will commit to. */
    const std::string &path() const { return path_; }

    /**
     * Flush, close, fsync, and rename the temporary over the
     * destination, then fsync the parent directory (the durability
     * contract in the file comment). Idempotent: a second call after
     * success is a no-op. On failure before the rename the temporary
     * is removed, an IoError is returned, and the destination keeps
     * its previous contents; an IoError from the post-rename
     * directory fsync means the new file is visible but its
     * durability is not yet guaranteed.
     */
    Expected<void> commit();

    /** Remove the temporary without touching the destination. */
    void discard();

  private:
    std::string path_;
    std::string tmp_path_;
    std::ofstream out_;
    bool committed_ = false;
    bool discarded_ = false;
};

/**
 * An existing file extended by durable appends. Durability contract:
 * a successful append() wrote every byte at the committed length in
 * one write(2) (retried only on a short write) and fdatasync'd them.
 * On any failure - the write, the fdatasync, or the io.commit (before
 * the write) and io.fsync (after it) fault sites - the file is
 * ftruncate'd back to the committed length and an IoError is
 * returned, so the file stays byte-identical to the previous commit.
 * A crash *during* append() can still leave a torn tail past the
 * committed length; readers of such a log must drop it.
 */
class AppendFile
{
  public:
    /**
     * Open the existing @p path to append after its first @p length
     * bytes, truncating anything past them (a torn earlier append).
     * IoError when the file cannot be opened or is shorter than
     * @p length.
     */
    static Expected<AppendFile> open(const std::string &path,
                                     uint64_t length);

    AppendFile(AppendFile &&other) noexcept;
    AppendFile(const AppendFile &) = delete;
    AppendFile &operator=(const AppendFile &) = delete;
    AppendFile &operator=(AppendFile &&) = delete;

    /** Closes the file; committed bytes are already durable. */
    ~AppendFile();

    /** Durably append @p bytes (the contract in the class comment). */
    Expected<void> append(std::string_view bytes);

  private:
    AppendFile(std::string path, int fd, uint64_t length);

    std::string path_;
    int fd_ = -1;
    uint64_t length_ = 0; ///< bytes committed so far
};

} // namespace snoop
