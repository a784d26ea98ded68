/**
 * @file
 * serve_explore and serve_replay: a closed loop of one client with
 * one request in flight over snoop_serve's stdin/stdout pipes, and
 * the traced in-process replay of the same requests.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sched.h>
#include <stdexcept>

#include "bench.hh"
#include "child.hh"
#include "inputs.hh"
#include "layers.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "util/parallel.hh"

namespace perfbench {

namespace {

constexpr int kSetupReps = 3;
constexpr int kResumeReps = 15;
/** Primed keys a restarted daemon is asked again (resume_s). */
constexpr size_t kResumeKeys = 256;
/** Requests generated (untimed) before each timed block. */
constexpr size_t kBlock = 256;
/** Responses compared against a cold in-process solve, per run. */
constexpr size_t kColdSamples = 192;
/**
 * Warm-started solves stop up to ~2e-4 relative away from the cold
 * fixed point (worst of ~60k sampled answers, about one in 3000 above
 * 1e-5), so the check allows 1e-3; cache correctness is checked
 * byte for byte elsewhere.
 */
constexpr double kColdTolerance = 1e-3;

std::vector<std::string>
serveArgv(const RunConfig &cfg)
{
    return {cfg.serveBin,
            "--cache-capacity=" + std::to_string(kServeCacheCapacity)};
}

/** The raw result object of an ok analyze response to @p id, or "". */
std::string
okResult(const std::string &line, int64_t id)
{
    std::string prefix = "{\"id\":" + std::to_string(id) +
        ",\"ok\":true,\"op\":\"analyze\",\"result\":";
    if (line.size() <= prefix.size() + 1 ||
        line.compare(0, prefix.size(), prefix) != 0 || line.back() != '}')
        return "";
    return line.substr(prefix.size(), line.size() - prefix.size() - 1);
}

/** The output checks every serve response goes through. */
class ServeChecker
{
  public:
    ServeChecker(Report &report, uint64_t seed)
        : report_(report), pick_(seed ^ 0x5eed5eedull)
    {
    }

    void check(const ServeQuery &q, int64_t id, const std::string &line)
    {
        report_.attempt();
        if (!snoop::parseJson(line)) {
            report_.fail("response to id " + std::to_string(id) +
                         " does not parse: " + line.substr(0, 200));
            return;
        }
        std::string result = okResult(line, id);
        if (result.empty()) {
            report_.fail("response to id " + std::to_string(id) +
                         " is not an ok analyze answer: " +
                         line.substr(0, 200));
            return;
        }
        const bool cached =
            result.find("\"cached\":true") != std::string::npos;
        if (q.key >= 0 && !q.noCache) {
            auto it = first_.find(q.key);
            if (it == first_.end()) {
                // A later exact hit must repeat these bytes, with only
                // the cached flag flipped.
                std::string norm = result;
                size_t at = norm.find("\"cached\":false");
                if (at != std::string::npos)
                    norm.replace(at, 14, "\"cached\":true");
                first_.emplace(q.key, norm);
            } else if (cached && result != it->second) {
                report_.fail("exact hit for key " + std::to_string(q.key) +
                             " differs from its first answer");
            }
        } else if (cached) {
            report_.fail("unexpected cache hit for id " +
                         std::to_string(id));
        }
        if (samples_.size() < kColdSamples && pick_.below(32) == 0)
            samples_.emplace_back(q, result);
    }

    /** Compare the sampled answers with cold in-process solves. */
    void finish()
    {
        snoop::MvaSolver solver(snoop::defaultServeSolverOptions());
        for (const auto &[q, result] : samples_) {
            report_.attempt();
            auto doc = snoop::parseJson(result);
            auto cold = solver.trySolve(
                snoop::DerivedInputs::compute(
                    q.workload(),
                    snoop::ProtocolConfig::fromIndex(q.protocol)),
                q.n);
            if (!doc || !cold) {
                report_.fail("cold reference solve failed");
                continue;
            }
            const snoop::JsonValue &v = doc.value();
            const snoop::MvaResult &r = cold.value();
            const std::pair<const char *, double> fields[] = {
                {"speedup", r.speedup},
                {"processingPower", r.processingPower},
                {"responseTime", r.responseTime},
                {"busUtil", r.busUtil},
                {"memUtil", r.memUtil},
                {"wBus", r.wBus},
                {"wMem", r.wMem},
                {"qBus", r.qBus},
                {"n", static_cast<double>(r.numProcessors)}};
            std::string bad;
            for (const auto &[name, want] : fields) {
                const snoop::JsonValue *got = v.get(name);
                double g = got && got->isNumber() ? got->asNumber() : NAN;
                double tol = kColdTolerance *
                    std::max({std::fabs(g), std::fabs(want), 1e-12});
                if (!(std::fabs(g - want) <= tol)) {
                    char buf[128];
                    std::snprintf(buf, sizeof buf, " %s=%.17g (cold %.17g)",
                                  name, g, want);
                    bad += buf;
                }
            }
            const snoop::JsonValue *conv = v.get("converged");
            if (!conv || !conv->isBool() || !conv->asBool())
                bad += " converged";
            if (!bad.empty())
                report_.fail("answer to " + requestLine(q, 0) +
                             " differs from a cold solve:" + bad);
        }
    }

  private:
    Report &report_;
    SplitMix64 pick_;
    std::map<int, std::string> first_;
    std::vector<std::pair<ServeQuery, std::string>> samples_;
};

/**
 * Keeps this process, and the daemon it talks to, together on one CPU,
 * moving both to the next allowed CPU after every block. The closed
 * loop hands the CPU back and forth on every request; across two vCPUs
 * of a shared host each hand-off waits for an idle vCPU to wake, which
 * swung p99 between 0.17 and 3.5 ms from run to run. Rotating spreads
 * each window over every CPU, whose speeds drift apart by a third
 * under other tenants' load. Daemons spawned meanwhile inherit the
 * current CPU. The original affinity returns on destruction.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            throw std::runtime_error("sched_getaffinity failed");
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_))
                cpus_.push_back(c);
        }
        pin(0);
    }
    ~CpuRotation() { sched_setaffinity(0, sizeof saved_, &saved_); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move this process and @p daemon to the next CPU. */
    void next(pid_t daemon)
    {
        next_ = (next_ + 1) % cpus_.size();
        pin(0);
        if (daemon > 0)
            pin(daemon);
    }

  private:
    void pin(pid_t pid)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_], &one);
        if (sched_setaffinity(pid, sizeof one, &one) != 0 && pid == 0)
            throw std::runtime_error("sched_setaffinity failed");
    }

    cpu_set_t saved_;
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** A running daemon and the id its next request gets. */
struct Channel
{
    std::unique_ptr<Daemon> daemon;
    int64_t nextId = 1;
};

/** Send one line and read its response; "" when the daemon fails. */
std::string
roundTrip(Daemon &d, const std::string &line)
{
    std::string response;
    if (!d.send(line) || !d.receive(response))
        return "";
    return response;
}

/**
 * Spawn a daemon, wait for its reply to a first stats request, and
 * send the first @p primed requests of the priming set. Returns the
 * wall time; the priming responses land in @p responses, unchecked.
 */
double
openChannel(const RunConfig &cfg, const ServeInputs &inputs,
             Channel &channel, std::vector<std::string> &responses,
             Report &report, bool withStats, size_t primed)
{
    Clock::time_point t0 = Clock::now();
    channel.daemon = std::make_unique<Daemon>(serveArgv(cfg), cfg.jobs);
    channel.nextId = 1;
    if (withStats) {
        report.attempt();
        std::string stats =
            roundTrip(*channel.daemon, "{\"id\":0,\"op\":\"stats\"}");
        if (stats.rfind("{\"id\":0,\"ok\":true,", 0) != 0)
            report.fail("stats request failed: " + stats.substr(0, 200));
    }
    responses.clear();
    for (size_t i = 0; i < primed; ++i)
        responses.push_back(roundTrip(
            *channel.daemon,
            requestLine(inputs.priming()[i], channel.nextId++)));
    return secondsBetween(t0, Clock::now());
}

/** Shut the channel's daemon down; it must answer and exit cleanly. */
ExitInfo
closeChannel(Channel &channel, Report &report)
{
    report.attempt();
    std::string id = std::to_string(channel.nextId);
    std::string bye = roundTrip(*channel.daemon,
                                "{\"id\":" + id + ",\"op\":\"shutdown\"}");
    if (bye.rfind("{\"id\":" + id + ",\"ok\":true,", 0) != 0)
        report.fail("shutdown request failed: " + bye.substr(0, 200));
    ExitInfo e = channel.daemon->finish();
    channel.daemon.reset();
    if (!e.ok())
        report.fail("snoop_serve ended with " + e.describe());
    return e;
}

/** The same priming set must get byte-identical answers every time. */
void
checkRepeat(const std::vector<std::string> &got,
            const std::vector<std::string> &want, Report &report)
{
    report.attempt();
    if (got != want)
        report.fail("a fresh daemon answered the priming set differently");
}

/** Latencies and response fingerprints of a measured phase. */
struct Measured
{
    std::vector<double> latencyUs;
    std::vector<uint64_t> hashes;
};

/**
 * The closed loop: one request in flight until @p seconds pass. Between
 * blocks, @p between runs @p betweenReps times, spread evenly over the
 * window, so it meets the same host conditions as the requests.
 */
void
measure(Channel &channel, ServeInputs &inputs, double seconds,
        ServeChecker &checker, Report &report, Measured &out,
        CpuRotation &cpus, int betweenReps = 0,
        const std::function<void()> &between = {})
{
    std::vector<ServeQuery> block;
    std::vector<std::string> lines, responses;
    int betweenDone = 0;
    auto catchUp = [&](double elapsed) {
        while (betweenDone < betweenReps &&
               elapsed >= (betweenDone + 0.5) * seconds / betweenReps) {
            between();
            ++betweenDone;
        }
    };
    Clock::time_point start = Clock::now();
    while (secondsBetween(start, Clock::now()) < seconds) {
        block.clear();
        lines.clear();
        for (size_t k = 0; k < kBlock; ++k) {
            block.push_back(inputs.next());
            lines.push_back(requestLine(
                block.back(), channel.nextId + static_cast<int64_t>(k)));
        }
        responses.assign(kBlock, "");
        bool broken = false;
        for (size_t k = 0; k < kBlock && !broken; ++k) {
            Clock::time_point a = Clock::now();
            broken = !channel.daemon->send(lines[k]) ||
                !channel.daemon->receive(responses[k]);
            Clock::time_point b = Clock::now();
            out.latencyUs.push_back(secondsBetween(a, b) * 1e6);
        }
        for (size_t k = 0; k < kBlock; ++k) {
            checker.check(block[k], channel.nextId++, responses[k]);
            out.hashes.push_back(fnv1a(responses[k]));
        }
        if (broken) {
            report.fail("snoop_serve stopped answering");
            return;
        }
        catchUp(secondsBetween(start, Clock::now()));
        cpus.next(channel.daemon->pid());
    }
    catchUp(seconds);
}

snoop::JsonValue
resultJson(const snoop::MvaResult &r, bool cached)
{
    // Mirrors the analyze result object of src/serve/service.cc; the
    // traced run checks the replay's bytes against the daemon's.
    snoop::JsonValue::Object obj;
    obj["n"] = snoop::JsonValue(r.numProcessors);
    obj["speedup"] = snoop::JsonValue(r.speedup);
    obj["processingPower"] = snoop::JsonValue(r.processingPower);
    obj["responseTime"] = snoop::JsonValue(r.responseTime);
    obj["busUtil"] = snoop::JsonValue(r.busUtil);
    obj["memUtil"] = snoop::JsonValue(r.memUtil);
    obj["wBus"] = snoop::JsonValue(r.wBus);
    obj["wMem"] = snoop::JsonValue(r.wMem);
    obj["qBus"] = snoop::JsonValue(r.qBus);
    obj["iterations"] = snoop::JsonValue(r.iterations);
    obj["converged"] = snoop::JsonValue(r.converged);
    obj["cached"] = snoop::JsonValue(cached);
    obj["warmStarted"] = snoop::JsonValue(r.warmStarted);
    return snoop::JsonValue(std::move(obj));
}

/**
 * snoop_serve's per-line path for one analyze request, replayed in
 * process: the same public calls, in the order tools/snoop_serve.cc
 * and SolveService::handleBatch make them, each under its own span.
 */
class InProcServe
{
  public:
    InProcServe() : cache_(kServeCacheCapacity, opts_.quantum) {}

    /** Record into @p tracer and @p counts from now on. */
    void observe(Tracer &tracer, LayerCounts &counts)
    {
        t_ = &tracer;
        c_ = &counts;
        evictionBase_ = cache_.evictions();
    }

    uint64_t evictionsObserved() const
    {
        return cache_.evictions() - evictionBase_;
    }

    /** The one-lane batch of the latest solve. */
    const std::vector<snoop::MvaJob> &lastJobs() const { return jobs_; }

    std::string handle(const std::string &line)
    {
        Tracer &t = *t_;
        LayerCounts &c = *c_;
        SpanScope root(t, "serve.request");
        auto parsed = [&] {
            SpanScope s(t, "serve.protocol.parse");
            return snoop::parseRequestLine(line);
        }();
        if (!parsed) {
            return snoop::serializeJson(snoop::errorResponse(
                snoop::recoverRequestId(line), parsed.error()));
        }
        const snoop::Request &req = parsed.value().front();
        {
            SpanScope s(t, "serve.service.admit");
            if (auto ok = req.workload.check(); !ok)
                return snoop::serializeJson(
                    snoop::errorResponse(req.id, ok.error()));
        }

        snoop::MvaResult result;
        bool cached = false;
        std::optional<snoop::CacheKey> key;
        snoop::MvaSeed seed;
        if (!req.noCache) {
            auto k = [&] {
                SpanScope s(t, "serve.cache.key");
                return snoop::canonicalKey(req.protocol, req.workload, req.n,
                                           cache_.quantum());
            }();
            if (!k)
                return snoop::serializeJson(
                    snoop::errorResponse(req.id, k.error()));
            key = k.value();
            const snoop::MvaResult *hit = nullptr;
            {
                SpanScope s(t, "serve.cache.find");
                hit = cache_.find(*key);
            }
            ++c.lookups;
            if (hit != nullptr) {
                ++c.hits;
                cached = true;
                result = *hit;
            } else {
                ++c.misses;
                if (opts_.warmStart && !req.noWarmStart) {
                    ++c.nearestCalls;
                    c.nearestEntries += cache_.size();
                    std::optional<snoop::MvaSeed> near;
                    {
                        SpanScope s(t, "serve.cache.nearest");
                        near = cache_.nearest(*key);
                    }
                    if (near) {
                        seed = *near;
                        ++c.seeded;
                    }
                }
            }
        }
        if (!cached) {
            jobs_.assign(1, snoop::MvaJob{});
            snoop::MvaJob &job = jobs_.front();
            {
                SpanScope s(t, "workload.derived.compute");
                job.inputs = snoop::DerivedInputs::compute(
                    req.workload, req.protocol, opts_.timing);
            }
            ++c.derivedCells;
            job.n = req.n;
            job.seed = seed;
            job.opts = opts_.solver;
            job.traceKey = static_cast<uint64_t>(req.id) + 1;
            std::vector<snoop::Expected<snoop::MvaResult>> solved;
            {
                SpanScope s(t, "mva.solve");
                solved = batch_.solveBatch(jobs_);
            }
            if (!solved.front())
                return snoop::serializeJson(
                    snoop::errorResponse(req.id, solved.front().error()));
            result = std::move(solved.front()).value();
            countSolve(c, result);
            if (key) {
                SpanScope s(t, "serve.cache.insert");
                cache_.insert(*key, result);
            }
        }
        snoop::JsonValue response;
        {
            SpanScope s(t, "serve.service.assemble");
            response = snoop::okResponse(req.id, req.op,
                                         resultJson(result, cached));
        }
        std::string out;
        {
            SpanScope s(t, "util.json.encode");
            out = snoop::serializeJson(response);
        }
        ++c.encodes;
        c.encodeBytes += out.size();
        return out;
    }

  private:
    snoop::ServeOptions opts_;
    snoop::SolutionCache cache_;
    snoop::BatchMvaSolver batch_;
    std::vector<snoop::MvaJob> jobs_;
    Tracer *t_ = nullptr;
    LayerCounts *c_ = nullptr;
    uint64_t evictionBase_ = 0;
};

void
runServeEndToEnd(const RunConfig &cfg, Report &report)
{
    CpuRotation cpus;
    ServeInputs inputs(cfg.workload, cfg.seed);
    ServeChecker checker(report, cfg.seed);

    // Set-up: spawn to the reply to a first stats request, plus the
    // priming pass; repeated, and every fresh daemon must answer the
    // priming set identically.
    std::vector<double> setups;
    std::vector<std::string> primed, again;
    Channel channel;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (channel.daemon)
            closeChannel(channel, report);
        setups.push_back(openChannel(cfg, inputs, channel,
                                      rep == 0 ? primed : again, report,
                                      true, inputs.priming().size()));
        if (rep == 0) {
            for (size_t i = 0; i < primed.size(); ++i)
                checker.check(inputs.priming()[i],
                              static_cast<int64_t>(i) + 1, primed[i]);
        } else {
            checkRepeat(again, primed, report);
        }
    }

    // Resume: the daemon keeps nothing across a restart, so getting
    // already-answered keys back costs a full re-solve. A fresh daemon
    // does it now and then while the measured one waits.
    const size_t resumeKeys = std::min(kResumeKeys, primed.size());
    const std::vector<std::string> firstAnswers(
        primed.begin(), primed.begin() + resumeKeys);
    std::vector<double> resumes;
    auto resume = [&] {
        Channel fresh;
        resumes.push_back(openChannel(cfg, inputs, fresh, again, report,
                                       false, resumeKeys));
        checkRepeat(again, firstAnswers, report);
        closeChannel(fresh, report);
    };
    Measured m;
    measure(channel, inputs, cfg.seconds, checker, report, m, cpus,
            kResumeReps, resume);
    ExitInfo measured = closeChannel(channel, report);
    checker.finish();

    std::vector<double> seconds, ones(m.latencyUs.size(), 1.0);
    for (double us : m.latencyUs)
        seconds.push_back(us / 1e6);
    const double rate = windowedRate(seconds, ones);
    const std::string samples = "n=" + std::to_string(m.latencyUs.size()) +
        ", median of " + std::to_string(kWindows) + " windows";
    report.metric("setup_s", quantile(setups, 0.5), "s",
                  "median of " + std::to_string(kSetupReps));
    report.metric("req_p50_us", windowedQuantile(m.latencyUs, 0.5), "us",
                  samples);
    report.printedOnly("req_p99_us", windowedQuantile(m.latencyUs, 0.99), "us",
                  samples);
    report.metric("req_per_s", rate, "1/s", samples);
    report.metric("cells_per_s", rate, "1/s",
                  "one cell per analyze request");
    report.metric("resume_s", quantile(resumes, 0.5), "s",
                  "restart + re-answer " + std::to_string(resumeKeys) +
                      " primed keys, median of " +
                      std::to_string(kResumeReps));
    report.metric("peak_rss_mb",
                  static_cast<double>(measured.maxRssKb) / 1024.0, "MB");
}

void
runServeTraced(const RunConfig &cfg, Report &report)
{
    // End to end first, for the latency the in-process spans are
    // subtracted from and the bytes the replay must reproduce.
    ServeInputs inputs(cfg.workload, cfg.seed);
    ServeChecker checker(report, cfg.seed);
    Measured m;
    {
        CpuRotation cpus;
        Channel channel;
        std::vector<std::string> primed;
        openChannel(cfg, inputs, channel, primed, report, true,
                     inputs.priming().size());
        for (size_t i = 0; i < primed.size(); ++i)
            checker.check(inputs.priming()[i], static_cast<int64_t>(i) + 1,
                          primed[i]);
        measure(channel, inputs, cfg.seconds / 3.0, checker, report, m,
                cpus);
        closeChannel(channel, report);
    }
    checker.finish();
    const size_t count = m.hashes.size();

    // The untraced and the traced replay take turns, a block of the
    // same requests each, so host drift slows both alike.
    snoop::setParallelJobs(cfg.jobs);
    LayerCounts counts, scratch;
    Tracer off(false), tracer(true);
    InProcServe plain, traced;
    plain.observe(off, scratch);
    traced.observe(off, scratch);
    ServeInputs replayed(cfg.workload, cfg.seed);
    int64_t id = 1;
    for (const ServeQuery &q : replayed.priming()) {
        std::string line = requestLine(q, id++);
        plain.handle(line);
        traced.handle(line);
    }
    traced.observe(tracer, counts);
    std::vector<double> inprocUs;
    std::vector<std::string> lines, plainOut, tracedOut;
    for (size_t done = 0; done < count; done += lines.size()) {
        lines.clear();
        plainOut.clear();
        tracedOut.clear();
        for (size_t k = 0; k < kBlock && done + k < count; ++k)
            lines.push_back(requestLine(replayed.next(), id++));
        for (const std::string &line : lines) {
            Clock::time_point a = Clock::now();
            plainOut.push_back(plain.handle(line));
            double s = secondsBetween(a, Clock::now());
            inprocUs.push_back(s * 1e6);
            counts.untracedWallS += s;
        }
        Clock::time_point b = Clock::now();
        for (const std::string &line : lines)
            tracedOut.push_back(traced.handle(line));
        counts.tracedWallS += secondsBetween(b, Clock::now());
        // The replay must be snoop_serve's own path: byte for byte the
        // daemon's responses, traced or not.
        for (size_t k = 0; k < lines.size(); ++k) {
            report.attempt();
            uint64_t want = m.hashes[done + k];
            if (fnv1a(plainOut[k]) != want || fnv1a(tracedOut[k]) != want)
                report.fail("in-process replay differs from snoop_serve's "
                            "response to request " +
                            std::to_string(done + k));
        }
    }
    counts.units = count;
    counts.evictions = traced.evictionsObserved();

    counts.parallelSpeedup = parallelSpeedup(traced.lastJobs(), cfg.jobs);
    counts.ioWaitUs =
        quantile(m.latencyUs, 0.5) - quantile(inprocUs, 0.5);
    emitLayerMetrics(report, summarize(tracer), counts, cfg.jobs);
}

} // namespace

void
runServeWorkload(const RunConfig &cfg, Report &report)
{
    if (cfg.trace)
        runServeTraced(cfg, report);
    else
        runServeEndToEnd(cfg, report);
}

} // namespace perfbench
