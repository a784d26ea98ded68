#include "util/atomic_file.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fault.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

// Distinguishes temporaries when one process stages several files
// with the same destination (e.g. a test overwriting its own output).
std::atomic<uint64_t> g_tmp_seq{0};

/**
 * fsync @p path (a file or a directory), reporting failure - and the
 * armed io.fsync fault site - as an IoError naming the path. EINVAL
 * from fsync is tolerated: some filesystems (and directory fds on a
 * few of them) do not support fsync, and "not supported here" must
 * not fail every commit on such a mount.
 */
Expected<void>
syncPath(const char *path, bool directory)
{
    int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_WRONLY;
    int fd = ::open(path, flags | O_CLOEXEC);
    if (fd < 0) {
        return makeError(SolveErrorCode::IoError, "AtomicFile::commit",
                         "cannot reopen '%s' to fsync: %s", path,
                         std::strerror(errno));
    }
    int rc = ::fsync(fd);
    int saved_errno = errno;
    (void)::close(fd);
    if ((rc != 0 && saved_errno != EINVAL) || faultArmed("io.fsync")) {
        return makeError(SolveErrorCode::IoError, "AtomicFile::commit",
                         "fsync '%s' failed: %s", path,
                         rc != 0 ? std::strerror(saved_errno)
                                 : "injected fault (io.fsync)");
    }
    return {};
}

/** The directory component of @p path ("." when there is none). */
std::string
parentDir(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

} // namespace

AtomicFile::AtomicFile(std::string path) : path_(std::move(path))
{
    tmp_path_ = strprintf("%s.tmp.%ld.%llu", path_.c_str(),
                          static_cast<long>(::getpid()),
                          static_cast<unsigned long long>(
                              g_tmp_seq.fetch_add(1)));
    out_.open(tmp_path_);
}

AtomicFile::~AtomicFile()
{
    if (!committed_)
        discard();
}

Expected<void>
AtomicFile::commit()
{
    if (committed_)
        return {};
    if (discarded_) {
        return makeError(SolveErrorCode::IoError, "AtomicFile::commit",
                         "'%s' was already discarded", path_.c_str());
    }
    out_.flush();
    bool write_ok = static_cast<bool>(out_);
    out_.close();
    if (!write_ok || faultArmed("io.commit")) {
        discard();
        return makeError(SolveErrorCode::IoError, "AtomicFile::commit",
                         "failed to write '%s' (temporary discarded, "
                         "destination untouched)", path_.c_str());
    }
    // Durability, step 1: the temporary's data must be on stable
    // storage before the rename makes it the destination - otherwise
    // a power cut can leave a fully-renamed file with torn contents.
    if (auto synced = syncPath(tmp_path_.c_str(), false); !synced) {
        discard();
        SolveError err = synced.error();
        err.withContext(
            strprintf("committing '%s' (temporary discarded, "
                      "destination untouched)", path_.c_str()));
        return err;
    }
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
        discard();
        return makeError(SolveErrorCode::IoError, "AtomicFile::commit",
                         "cannot rename '%s' to '%s'",
                         tmp_path_.c_str(), path_.c_str());
    }
    committed_ = true;
    // Durability, step 2: the rename itself lives in the parent
    // directory; fsync it so the new entry survives power loss. The
    // destination already holds the new contents at this point, so a
    // failure here reports "visible but not yet durable" rather than
    // discarding anything.
    if (auto synced = syncPath(parentDir(path_).c_str(), true);
        !synced) {
        SolveError err = synced.error();
        err.withContext(
            strprintf("'%s' renamed into place but its directory "
                      "entry may not be durable", path_.c_str()));
        return err;
    }
    return {};
}

void
AtomicFile::discard()
{
    if (committed_ || discarded_)
        return;
    if (out_.is_open())
        out_.close();
    std::remove(tmp_path_.c_str());
    discarded_ = true;
}

Expected<AppendFile>
AppendFile::open(const std::string &path, uint64_t length)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) {
        return makeError(SolveErrorCode::IoError, "AppendFile::open",
                         "cannot open '%s' to append: %s",
                         path.c_str(), std::strerror(errno));
    }
    // Constructed before any check so the destructor closes the fd on
    // every early return.
    AppendFile file(path, fd, length);
    struct stat st;
    if (::fstat(fd, &st) != 0 ||
        static_cast<uint64_t>(st.st_size) < length) {
        return makeError(SolveErrorCode::IoError, "AppendFile::open",
                         "'%s' is shorter than its committed length "
                         "%llu", path.c_str(),
                         static_cast<unsigned long long>(length));
    }
    if (static_cast<uint64_t>(st.st_size) > length &&
        ::ftruncate(fd, static_cast<off_t>(length)) != 0) {
        return makeError(SolveErrorCode::IoError, "AppendFile::open",
                         "cannot truncate '%s' to %llu bytes: %s",
                         path.c_str(),
                         static_cast<unsigned long long>(length),
                         std::strerror(errno));
    }
    return file;
}

AppendFile::AppendFile(std::string path, int fd, uint64_t length)
    : path_(std::move(path)), fd_(fd), length_(length)
{
}

AppendFile::AppendFile(AppendFile &&other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)),
      length_(other.length_)
{
}

AppendFile::~AppendFile()
{
    if (fd_ >= 0)
        (void)::close(fd_);
}

Expected<void>
AppendFile::append(std::string_view bytes)
{
    std::string failure;
    if (faultArmed("io.commit"))
        failure = "injected fault (io.commit)";
    size_t done = 0;
    while (failure.empty() && done < bytes.size()) {
        ssize_t n = ::pwrite(fd_, bytes.data() + done,
                             bytes.size() - done,
                             static_cast<off_t>(length_ + done));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            failure = strprintf("write failed: %s",
                                n < 0 ? std::strerror(errno)
                                      : "no progress");
        else
            done += static_cast<size_t>(n);
    }
    // EINVAL is tolerated as in syncPath: no fdatasync on this mount.
    if (failure.empty() && ::fdatasync(fd_) != 0 && errno != EINVAL)
        failure = strprintf("fdatasync failed: %s", std::strerror(errno));
    if (failure.empty() && faultArmed("io.fsync"))
        failure = "fdatasync failed: injected fault (io.fsync)";
    if (!failure.empty()) {
        bool restored = ::ftruncate(fd_, static_cast<off_t>(length_)) == 0;
        return makeError(SolveErrorCode::IoError, "AppendFile::append",
                         "appending %zu bytes to '%s': %s (%s)",
                         bytes.size(), path_.c_str(), failure.c_str(),
                         restored ? "truncated back to the last commit"
                                  : "could not truncate back to the "
                                    "last commit");
    }
    length_ += bytes.size();
    return {};
}

} // namespace snoop
