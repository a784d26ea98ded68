#pragma once

/**
 * @file
 * Child processes for the end-to-end workloads: the snoop_serve
 * daemon driven line by line over pipes, and design_space runs timed
 * from spawn to exit. Peak RSS comes from wait4's rusage.
 */

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/** How a child ended. */
struct ExitInfo
{
    int status = -1;          ///< wait status; -1 = never reaped
    double wallSeconds = 0.0; ///< spawn to reap
    long maxRssKb = 0;        ///< ru_maxrss

    /** Exited normally with code 0. */
    bool ok() const;

    /** "exit 1", "signal 9", ... */
    std::string describe() const;
};

/**
 * Run @p argv to completion with SNOOP_JOBS=@p jobs, stdout discarded
 * and stderr appended to @p stderrPath.
 */
ExitInfo runToCompletion(const std::vector<std::string> &argv,
                         unsigned jobs, const std::string &stderrPath);

/** A line-protocol child: one request line in, one response line out. */
class Daemon
{
  public:
    /** Spawn @p argv with SNOOP_JOBS=@p jobs; throws on failure. */
    Daemon(const std::vector<std::string> &argv, unsigned jobs);

    /** Kills and reaps the child if finish() was never called. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Write @p line and a newline; false when the pipe is closed. */
    bool send(const std::string &line);

    /**
     * Read the next response line into @p line (without the newline);
     * false on EOF, error, or @p timeoutSeconds without a full line.
     */
    bool receive(std::string &line, double timeoutSeconds = 60.0);

    /** Close stdin and reap the child (it exits on EOF or shutdown). */
    ExitInfo finish();

    /** The child's process id (-1 once reaped). */
    pid_t pid() const { return pid_; }

  private:
    pid_t pid_ = -1;
    int in_ = -1;  ///< our end of the child's stdin
    int out_ = -1; ///< our end of the child's stdout
    std::string buf_;
    size_t pos_ = 0;
    double spawnedAt_ = 0.0;
};

} // namespace perfbench
