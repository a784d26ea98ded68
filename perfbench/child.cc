#include "child.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench {

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The parent's environment with SNOOP_JOBS replaced. */
std::vector<std::string>
childEnv(unsigned jobs)
{
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "SNOOP_", 6) != 0)
            env.emplace_back(*e);
    }
    env.push_back("SNOOP_JOBS=" + std::to_string(jobs));
    return env;
}

std::vector<char *>
cstrings(std::vector<std::string> &v)
{
    std::vector<char *> out;
    for (std::string &s : v)
        out.push_back(s.data());
    out.push_back(nullptr);
    return out;
}

pid_t
spawn(std::vector<std::string> argv, unsigned jobs,
      posix_spawn_file_actions_t *actions)
{
    std::vector<std::string> env = childEnv(jobs);
    std::vector<char *> cargv = cstrings(argv);
    std::vector<char *> cenv = cstrings(env);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, cargv[0], actions, nullptr, cargv.data(),
                         cenv.data());
    if (rc != 0) {
        throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                                 std::strerror(rc));
    }
    return pid;
}

ExitInfo
reap(pid_t pid, double spawnedAt)
{
    ExitInfo info;
    struct rusage ru {};
    int status = 0;
    pid_t r;
    do {
        r = wait4(pid, &status, 0, &ru);
    } while (r < 0 && errno == EINTR);
    info.wallSeconds = now() - spawnedAt;
    if (r == pid) {
        info.status = status;
        info.maxRssKb = ru.ru_maxrss;
    }
    return info;
}

} // namespace

bool
ExitInfo::ok() const
{
    return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string
ExitInfo::describe() const
{
    if (status < 0)
        return "not reaped";
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "status " + std::to_string(status);
}

ExitInfo
runToCompletion(const std::vector<std::string> &argv, unsigned jobs,
                const std::string &stderrPath)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, stderrPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    double t0 = now();
    pid_t pid = -1;
    try {
        pid = spawn(argv, jobs, &actions);
    } catch (...) {
        posix_spawn_file_actions_destroy(&actions);
        throw;
    }
    posix_spawn_file_actions_destroy(&actions);
    return reap(pid, t0);
}

Daemon::Daemon(const std::vector<std::string> &argv, unsigned jobs)
{
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe2 failed");
    if (pipe2(from_child, O_CLOEXEC) != 0) {
        close(to_child[0]);
        close(to_child[1]);
        throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    spawnedAt_ = now();
    try {
        pid_ = spawn(argv, jobs, &actions);
    } catch (...) {
        posix_spawn_file_actions_destroy(&actions);
        for (int fd : {to_child[0], to_child[1], from_child[0],
                       from_child[1]})
            close(fd);
        throw;
    }
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        finish();
    }
}

bool
Daemon::send(const std::string &line)
{
    std::string data = line + '\n';
    size_t done = 0;
    while (done < data.size()) {
        ssize_t w = write(in_, data.data() + done, data.size() - done);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        done += static_cast<size_t>(w);
    }
    return true;
}

bool
Daemon::receive(std::string &line, double timeoutSeconds)
{
    double deadline = now() + timeoutSeconds;
    for (;;) {
        size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            line.assign(buf_, pos_, nl - pos_);
            pos_ = nl + 1;
            if (pos_ == buf_.size()) {
                buf_.clear();
                pos_ = 0;
            }
            return true;
        }
        double left = deadline - now();
        if (left <= 0.0)
            return false;
        struct pollfd pfd = {out_, POLLIN, 0};
        int pr = poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr <= 0)
            return false;
        char chunk[65536];
        ssize_t r = read(out_, chunk, sizeof chunk);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        buf_.append(chunk, static_cast<size_t>(r));
    }
}

ExitInfo
Daemon::finish()
{
    if (in_ >= 0)
        close(in_);
    in_ = -1;
    ExitInfo info;
    if (pid_ > 0)
        info = reap(pid_, spawnedAt_);
    pid_ = -1;
    if (out_ >= 0)
        close(out_);
    out_ = -1;
    return info;
}

} // namespace perfbench
