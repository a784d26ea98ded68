/**
 * @file
 * sweep_ckpt and sweep_grid: closed-loop design_space sweep runs over
 * all 16 protocols, timed from spawn to exit, and the traced
 * in-process replay of the same sweeps.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <stdlib.h>

#include "bench.hh"
#include "child.hh"
#include "core/checkpoint.hh"
#include "core/sweep.hh"
#include "inputs.hh"
#include "layers.hh"
#include "util/atomic_file.hh"
#include "util/parallel.hh"

namespace perfbench {

namespace {

/** The sweep set-up run takes milliseconds: repeat it more. */
constexpr int kSetupReps = 9;
/** design_space's default --checkpoint-every. */
constexpr size_t kCheckpointEvery = 8;

/** A fresh directory under the work dir, removed with its contents. */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent)
    {
        std::string pattern = parent + "/sweep-XXXXXX";
        if (mkdtemp(pattern.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed under " + parent);
        path_ = pattern;
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string file(const char *name) const { return path_ + "/" + name; }

  private:
    std::string path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The spec design_space builds from @p job's arguments. */
snoop::SweepSpec
makeSpec(const SweepJob &job)
{
    snoop::SweepSpec spec;
    switch (job.sharing) {
      case 1:
        spec.base = snoop::presets::appendixA(snoop::SharingLevel::OnePercent);
        break;
      case 20:
        spec.base =
            snoop::presets::appendixA(snoop::SharingLevel::TwentyPercent);
        break;
      default:
        spec.base =
            snoop::presets::appendixA(snoop::SharingLevel::FivePercent);
    }
    spec.paramName = job.param;
    spec.set = snoop::findParamSetter(job.param);
    for (int i = 0; i < job.steps; ++i) {
        spec.values.push_back(job.from + (job.to - job.from) *
                                             static_cast<double>(i) /
                                             static_cast<double>(job.steps - 1));
    }
    for (unsigned idx = 0; idx < 16; ++idx)
        spec.protocols.push_back(snoop::ProtocolConfig::fromIndex(idx));
    spec.n = job.n;
    return spec;
}

/** The reference output: an in-process runSweep of the same spec. */
std::string
expectedCellCsv(const SweepJob &job)
{
    return snoop::runSweep(makeSpec(job)).cellCsv();
}

struct Invocation
{
    ExitInfo exit;
    std::string csv;
    std::string stderrTail;
};

Invocation
invoke(const RunConfig &cfg, const SweepJob &job, const TempDir &dir,
       bool checkpoint)
{
    std::vector<std::string> argv = {cfg.designSpaceBin};
    for (const std::string &a : job.args())
        argv.push_back(a);
    argv.push_back("--cell-csv=" + dir.file("cells.csv"));
    if (checkpoint)
        argv.push_back("--checkpoint=" + dir.file("sweep.ckpt"));
    std::filesystem::remove(dir.file("cells.csv"));
    Invocation inv;
    inv.exit = runToCompletion(argv, cfg.jobs, dir.file("stderr.log"));
    inv.csv = readFile(dir.file("cells.csv"));
    if (!inv.exit.ok()) {
        std::string err = readFile(dir.file("stderr.log"));
        inv.stderrTail = err.substr(err.size() > 300 ? err.size() - 300 : 0);
    }
    return inv;
}

void
checkInvocation(Report &report, const Invocation &inv,
                const std::string &expected, const char *what)
{
    report.attempt();
    if (!inv.exit.ok()) {
        report.fail(std::string(what) + " ended with " +
                    inv.exit.describe() + ": " + inv.stderrTail);
    } else if (inv.csv != expected) {
        report.fail(std::string(what) +
                    ": --cell-csv differs from an in-process runSweep");
    }
}

void
runSweepEndToEnd(const RunConfig &cfg, Report &report)
{
    const bool checkpoint = cfg.workload == "sweep_ckpt";
    const std::vector<SweepJob> pool = sweepJobs(cfg.workload, cfg.seed);
    const SweepJob setupJob = sweepSetupJob(cfg.workload, cfg.seed);
    snoop::setParallelJobs(cfg.jobs);
    std::vector<std::string> expected;
    for (const SweepJob &job : pool)
        expected.push_back(expectedCellCsv(job));
    const std::string setupExpected = expectedCellCsv(setupJob);

    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        TempDir dir(cfg.workDir);
        Invocation inv = invoke(cfg, setupJob, dir, checkpoint);
        setups.push_back(inv.exit.wallSeconds);
        checkInvocation(report, inv, setupExpected, "set-up sweep");
    }

    // Each timed run starts from an empty directory, so nothing
    // resumes by accident; sweep_ckpt's resume reruns the same
    // command on the checkpoint that run completed.
    std::vector<double> latencyUs, walls, cells, resumes;
    long rssKb = 0;
    size_t i = 0;
    Clock::time_point start = Clock::now();
    for (; secondsBetween(start, Clock::now()) < cfg.seconds; ++i) {
        const SweepJob &job = pool[i % pool.size()];
        TempDir dir(cfg.workDir);
        Invocation inv = invoke(cfg, job, dir, checkpoint);
        latencyUs.push_back(inv.exit.wallSeconds * 1e6);
        walls.push_back(inv.exit.wallSeconds);
        cells.push_back(static_cast<double>(job.cells()));
        rssKb = std::max(rssKb, inv.exit.maxRssKb);
        checkInvocation(report, inv, expected[i % pool.size()], "sweep");
        if (checkpoint) {
            Invocation again = invoke(cfg, job, dir, true);
            resumes.push_back(again.exit.wallSeconds);
            rssKb = std::max(rssKb, again.exit.maxRssKb);
            checkInvocation(report, again, expected[i % pool.size()],
                            "resumed sweep");
        } else if (i >= pool.size()) {
            // Without a checkpoint, rerunning a finished sweep
            // recomputes every cell: each pass after the first through
            // the pool is such a rerun.
            resumes.push_back(inv.exit.wallSeconds);
        }
    }

    const std::string samples = "n=" + std::to_string(latencyUs.size()) +
        " design_space runs, median of " + std::to_string(kWindows) +
        " windows";
    report.metric("setup_s", quantile(setups, 0.5), "s",
                  "32-cell run, median of " + std::to_string(kSetupReps));
    report.metric("req_p50_us", windowedQuantile(latencyUs, 0.5), "us",
                  samples);
    report.printedOnly("req_p99_us", windowedQuantile(latencyUs, 0.99), "us",
                  samples);
    report.metric("req_per_s",
                  windowedRate(walls, std::vector<double>(walls.size(), 1.0)),
                  "1/s", samples);
    report.metric("cells_per_s", windowedRate(walls, cells), "1/s",
                  std::to_string(pool.front().cells()) + " cells per run");
    report.metric("resume_s", quantile(resumes, 0.5), "s",
                  (checkpoint ? "rerun on the completed checkpoint, n="
                              : "rerun without a checkpoint, n=") +
                      std::to_string(resumes.size()));
    report.metric("peak_rss_mb", static_cast<double>(rssKb) / 1024.0, "MB");
}

/**
 * design_space's sweep mode and tryRunSweep, replayed in process: the
 * same public calls in the same order, each under its own span.
 */
class InProcSweep
{
  public:
    /** Sizes of every checkpoint commit so far, in order. */
    const std::vector<uint64_t> &commitBytes() const { return commits_; }

    /** The first solve batch a fresh run of @p job makes. */
    std::vector<snoop::MvaJob> firstBatch(const SweepJob &job,
                                          bool checkpoint) const
    {
        snoop::SweepSpec spec = makeSpec(job);
        const size_t protocols = spec.protocols.size();
        const size_t cells = spec.values.size() * protocols;
        std::vector<snoop::MvaJob> out;
        for (size_t idx = 0;
             idx < (checkpoint ? std::min(cells, kCheckpointEvery) : cells);
             ++idx) {
            snoop::WorkloadParams wl = spec.base;
            spec.set(wl, spec.values[idx / protocols]);
            out.push_back(cellJob(spec, wl, idx));
        }
        return out;
    }

    std::string invoke(Tracer &t, LayerCounts &c, const SweepJob &job,
                       const TempDir &dir, bool checkpoint)
    {
        SpanScope root(t, "sweep.invocation");
        snoop::SweepSpec spec = makeSpec(job);
        if (checkpoint) {
            spec.checkpointPath = dir.file("sweep.ckpt");
            spec.checkpointEvery = kCheckpointEvery;
        }
        if (auto valid = spec.validate(); !valid)
            throw std::runtime_error(valid.error().describe());
        const size_t protocols = spec.protocols.size();
        const size_t grid = spec.values.size() * protocols;
        snoop::SweepResult res;
        res.spec = spec;
        res.results.assign(spec.values.size(),
                           std::vector<snoop::MvaResult>(protocols));
        res.errors.assign(
            spec.values.size(),
            std::vector<std::optional<snoop::SolveError>>(protocols));
        res.evaluated.assign(spec.values.size(),
                             std::vector<char>(protocols, 0));

        if (checkpoint && snoop::checkpointExists(spec.checkpointPath)) {
            SpanScope s(t, "core.checkpoint.read");
            auto data = snoop::readSweepCheckpoint(spec.checkpointPath);
            if (!data)
                throw std::runtime_error(data.error().describe());
            if (auto ok = snoop::applyCheckpoint(data.value(), spec, res);
                !ok)
                throw std::runtime_error(ok.error().describe());
        }
        std::vector<size_t> pending;
        for (size_t cell = 0; cell < grid; ++cell) {
            if (!res.evaluated[cell / protocols][cell % protocols])
                pending.push_back(cell);
        }

        const size_t step = checkpoint ? spec.checkpointEvery : pending.size();
        for (size_t start = 0; start < pending.size(); start += step) {
            const size_t batch = std::min(step, pending.size() - start);
            solveBatch(t, c, spec, res, &pending[start], batch);
            for (size_t k = 0; k < batch; ++k) {
                size_t idx = pending[start + k];
                res.evaluated[idx / protocols][idx % protocols] = 1;
            }
            if (checkpoint) {
                snoop::Expected<void> written;
                {
                    SpanScope s(t, "core.checkpoint.write");
                    written = snoop::writeSweepCheckpoint(
                        spec.checkpointPath, spec, res);
                }
                if (!written)
                    throw std::runtime_error(written.error().describe());
                uint64_t bytes =
                    std::filesystem::file_size(spec.checkpointPath);
                commits_.push_back(bytes);
                ++c.checkpointCommits;
                c.checkpointBytes += bytes;
            }
        }
        if (checkpoint)
            c.checkpointCells += pending.size();

        std::string csv;
        {
            SpanScope s(t, "core.sweep.render");
            std::string table = res.table().render();
            if (res.failureCount() > 0)
                table += res.failureSummary();
            auto winners = res.tryWinners();
            if (!winners)
                throw std::runtime_error(winners.error().describe());
            csv = res.cellCsv();
        }
        {
            SpanScope s(t, "util.atomic_file.commit");
            snoop::AtomicFile out(dir.file("cells.csv"));
            out.stream() << csv;
            if (auto ok = out.commit(); !ok)
                throw std::runtime_error(ok.error().describe());
        }
        return csv;
    }

  private:
    /** tryAnalyzeBatch's job for cell @p idx with workload @p wl. */
    snoop::MvaJob cellJob(const snoop::SweepSpec &spec,
                          const snoop::WorkloadParams &wl, size_t idx) const
    {
        snoop::MvaJob job;
        job.inputs = snoop::DerivedInputs::compute(
            wl, spec.protocols[idx % spec.protocols.size()], timing_);
        job.n = spec.n;
        job.opts = opts_;
        job.traceKey = idx + 1;
        return job;
    }

    /** runSweep's batch step through Analyzer::tryAnalyzeBatch. */
    void solveBatch(Tracer &t, LayerCounts &c, const snoop::SweepSpec &spec,
                    snoop::SweepResult &res, const size_t *cells,
                    size_t count)
    {
        SpanScope s(t, "core.sweep.solve");
        const size_t protocols = spec.protocols.size();
        std::vector<snoop::WorkloadParams> workloads;
        std::vector<size_t> admitted;
        for (size_t k = 0; k < count; ++k) {
            const size_t idx = cells[k];
            snoop::WorkloadParams wl = spec.base;
            spec.set(wl, spec.values[idx / protocols]);
            if (auto ok = wl.check(); !ok) {
                res.errors[idx / protocols][idx % protocols] = ok.error();
                continue;
            }
            workloads.push_back(wl);
            admitted.push_back(idx);
        }
        std::vector<snoop::MvaJob> jobs(admitted.size());
        {
            SpanScope d(t, "workload.derived.compute");
            for (size_t k = 0; k < admitted.size(); ++k)
                jobs[k] = cellJob(spec, workloads[k], admitted[k]);
        }
        c.derivedCells += jobs.size();
        c.sweepCells += count;
        std::vector<snoop::Expected<snoop::MvaResult>> solved;
        {
            SpanScope m(t, "mva.solve");
            solved = batch_.solveBatch(jobs);
        }
        for (size_t k = 0; k < solved.size(); ++k) {
            const size_t v = admitted[k] / protocols;
            const size_t p = admitted[k] % protocols;
            if (solved[k]) {
                countSolve(c, solved[k].value());
                res.results[v][p] = std::move(solved[k]).value();
            } else {
                res.errors[v][p] = std::move(solved[k]).error();
            }
        }
    }

    snoop::MvaOptions opts_; ///< Analyzer's defaults
    snoop::BusTiming timing_;
    snoop::BatchMvaSolver batch_;
    std::vector<uint64_t> commits_;
};

/**
 * Replay one run of @p job (and its resume when checkpointing) in a
 * fresh directory. Returns the in-process wall time; each pass's cell
 * CSV goes to @p csvs.
 */
double
replayJob(const RunConfig &cfg, const SweepJob &job, Tracer &t,
          LayerCounts &c, InProcSweep &sweep, std::vector<std::string> &csvs)
{
    const bool checkpoint = cfg.workload == "sweep_ckpt";
    TempDir dir(cfg.workDir);
    double wall = 0.0;
    for (int pass = 0; pass < (checkpoint ? 2 : 1); ++pass) {
        Clock::time_point a = Clock::now();
        csvs.push_back(sweep.invoke(t, c, job, dir, checkpoint));
        wall += secondsBetween(a, Clock::now());
        ++c.units;
    }
    return wall;
}

void
runSweepTraced(const RunConfig &cfg, Report &report)
{
    const bool checkpoint = cfg.workload == "sweep_ckpt";
    const std::vector<SweepJob> pool = sweepJobs(cfg.workload, cfg.seed);
    snoop::setParallelJobs(cfg.jobs);
    std::vector<std::string> expected;
    for (const SweepJob &job : pool)
        expected.push_back(expectedCellCsv(job));

    // The untraced and the traced replay take turns, one run of the
    // same job each, so host drift slows both alike.
    Tracer off(false), tracer(true);
    LayerCounts scratch, counts;
    InProcSweep plain, sweep;
    std::vector<std::string> csvs;
    for (size_t i = 0; counts.untracedWallS < cfg.seconds / 2.0; ++i) {
        const SweepJob &job = pool[i % pool.size()];
        csvs.clear();
        counts.untracedWallS += replayJob(cfg, job, off, scratch, plain, csvs);
        counts.tracedWallS += replayJob(cfg, job, tracer, counts, sweep, csvs);
        for (const std::string &csv : csvs) {
            report.attempt();
            if (csv != expected[i % pool.size()])
                report.fail("in-process replay's cell CSV differs from "
                            "runSweep");
        }
    }
    TraceSummary summary = summarize(tracer);

    if (checkpoint) {
        // The fsync share of a checkpoint commit: AtomicFile commits
        // of payloads the size of each of the first run's commits.
        const std::vector<uint64_t> &all = sweep.commitBytes();
        const std::vector<uint64_t> commits(
            all.begin(),
            all.begin() + std::min(all.size(),
                                   pool.front().cells() / kCheckpointEvery));
        TempDir dir(cfg.workDir);
        for (uint64_t bytes : commits) {
            std::string payload(bytes, 'x');
            Clock::time_point a = Clock::now();
            snoop::AtomicFile out(dir.file("probe"));
            out.stream() << payload;
            report.attempt();
            if (!out.commit())
                report.fail("AtomicFile probe commit failed");
            counts.atomicCommitUs.push_back(
                secondsBetween(a, Clock::now()) * 1e6);
        }
    } else {
        auto it = summary.layers.find("util.atomic_file.commit");
        if (it != summary.layers.end())
            counts.atomicCommitUs = it->second.durUs;
    }
    counts.parallelSpeedup =
        parallelSpeedup(sweep.firstBatch(pool.front(), checkpoint), cfg.jobs);
    emitLayerMetrics(report, summary, counts, cfg.jobs);
}

} // namespace

void
runSweepWorkload(const RunConfig &cfg, Report &report)
{
    if (cfg.trace)
        runSweepTraced(cfg, report);
    else
        runSweepEndToEnd(cfg, report);
}

} // namespace perfbench
