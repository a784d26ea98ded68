/**
 * End-to-end fault-injection tests: arm util/fault sites and observe
 * the isolation the pipeline promises - one poisoned sweep cell,
 * replication, or validation point fails alone, deterministically at
 * any thread count, and file output never half-commits.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/sweep.hh"
#include "core/validation.hh"
#include "sim/prob_sim.hh"
#include "util/csv.hh"
#include "util/fault.hh"
#include "util/parallel.hh"

namespace snoop {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every test starts and ends disarmed and on the default pool. */
class FaultInjection : public testing::Test
{
  protected:
    void SetUp() override { clearFaultSpecs(); }
    void TearDown() override
    {
        clearFaultSpecs();
        setParallelJobs(0);
    }
};

SweepSpec
hswSpec()
{
    SweepSpec spec;
    spec.base = presets::appendixA(SharingLevel::FivePercent);
    spec.paramName = "h_sw";
    spec.set = findParamSetter("h_sw");
    spec.values = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
    spec.protocols = {ProtocolConfig::writeOnce(),
                      *findProtocol("Illinois")};
    spec.n = 10;
    return spec;
}

TEST_F(FaultInjection, SweepCellFaultIsIsolated)
{
    // 7 values x 2 protocols = 14 cells; every=5 poisons flat indices
    // 0, 5, and 10. All other cells must match a fault-free run
    // exactly.
    auto clean = runSweep(hswSpec());
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=5").ok());
    testing::internal::CaptureStderr();
    auto res = runSweep(hswSpec());
    std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(res.failureCount(), 3u);
    const size_t cols = 2;
    for (size_t idx : {0u, 5u, 10u}) {
        size_t v = idx / cols, p = idx % cols;
        ASSERT_TRUE(res.cellFailed(v, p)) << idx;
        EXPECT_EQ(res.errors[v][p]->code, SolveErrorCode::InjectedFault);
        EXPECT_EQ(res.errors[v][p]->site, "sweep.cell");
    }
    for (size_t v = 0; v < res.results.size(); ++v) {
        for (size_t p = 0; p < cols; ++p) {
            if (res.cellFailed(v, p))
                continue;
            EXPECT_DOUBLE_EQ(res.results[v][p].speedup,
                             clean.results[v][p].speedup);
        }
    }
    // The end-of-run warning reports exactly the failed cells.
    EXPECT_NE(err.find("3 of 14 cells failed"), std::string::npos);
    EXPECT_NE(err.find("injected-fault"), std::string::npos);
    // winners() skips the poisoned cells instead of electing them.
    auto winners = res.winners();
    ASSERT_EQ(winners.size(), 7u);
    for (size_t w : winners)
        EXPECT_NE(w, SweepResult::kNoWinner);
}

TEST_F(FaultInjection, UnconvergedSweepPublishesNoNumber)
{
    // Non-convergence is an error under the default options: with
    // every ladder rung failing, a default-Analyzer sweep fails every
    // cell instead of publishing unconverged numbers.
    ASSERT_TRUE(setFaultSpecs("mva.nonconverge").ok());
    testing::internal::CaptureStderr();
    auto res = runSweep(hswSpec());
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(res.failureCount(), 14u);
    EXPECT_EQ(res.errors[0][0]->code, SolveErrorCode::NonConvergence);
    EXPECT_NE(err.find("14 of 14 cells failed"), std::string::npos);
    for (size_t w : res.winners())
        EXPECT_EQ(w, SweepResult::kNoWinner);
}

TEST_F(FaultInjection, SweepCellFaultsAreThreadCountInvariant)
{
    // The injected-cell set is keyed on the flat cell index, never on
    // scheduling: serial and parallel runs fail the same cells and
    // produce bit-identical survivors.
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=5").ok());
    setParallelJobs(1);
    auto serial = runSweep(hswSpec());
    for (unsigned jobs : {2u, 8u}) {
        setParallelJobs(jobs);
        auto parallel = runSweep(hswSpec());
        ASSERT_EQ(parallel.results.size(), serial.results.size());
        for (size_t v = 0; v < serial.results.size(); ++v) {
            for (size_t p = 0; p < serial.results[v].size(); ++p) {
                ASSERT_EQ(parallel.cellFailed(v, p),
                          serial.cellFailed(v, p))
                    << "jobs=" << jobs << " v=" << v << " p=" << p;
                if (serial.cellFailed(v, p)) {
                    EXPECT_EQ(parallel.errors[v][p]->describe(),
                              serial.errors[v][p]->describe());
                } else {
                    EXPECT_DOUBLE_EQ(parallel.results[v][p].speedup,
                                     serial.results[v][p].speedup);
                }
            }
        }
        EXPECT_EQ(parallel.failureSummary(), serial.failureSummary());
    }
}

TEST_F(FaultInjection, ReplicationFaultIsIsolated)
{
    SimConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.numProcessors = 4;
    cfg.warmupRequests = 2000;
    cfg.measuredRequests = 10000;

    auto clean = simulateReplications(cfg, 6);
    ASSERT_TRUE(setFaultSpecs("sim.replication:every=3").ok());
    testing::internal::CaptureStderr();
    auto set = simulateReplications(cfg, 6);
    std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(set.failureCount(), 2u); // replications 0 and 3
    ASSERT_EQ(set.errors.size(), 6u);
    EXPECT_TRUE(set.errors[0].has_value());
    EXPECT_TRUE(set.errors[3].has_value());
    EXPECT_EQ(set.errors[0]->code, SolveErrorCode::InjectedFault);
    // Surviving replications are bit-identical to the fault-free run:
    // substream seeding makes replication i independent of who else
    // ran.
    for (size_t i : {1u, 2u, 4u, 5u}) {
        ASSERT_FALSE(set.errors[i].has_value()) << i;
        EXPECT_DOUBLE_EQ(set.runs[i].speedup, clean.runs[i].speedup);
    }
    // Statistics come from the survivors and stay well-formed.
    EXPECT_GT(set.speedup.mean, 0.0);
    EXPECT_NE(err.find("2 of 6 replications failed"),
              std::string::npos);
    EXPECT_NE(set.summary().find("[2 failed]"), std::string::npos);
}

TEST_F(FaultInjection, ValidationPointFaultIsIsolated)
{
    ValidationConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.protocol = ProtocolConfig::writeOnce();
    cfg.ns = {2, 4};
    cfg.warmupRequests = 2000;
    cfg.measuredRequests = 10000;

    ASSERT_TRUE(setFaultSpecs("validate.point:every=2").ok());
    testing::internal::CaptureStderr();
    auto points = validate(cfg);
    testing::internal::GetCapturedStderr();

    ASSERT_EQ(points.size(), 2u);
    EXPECT_FALSE(points[0].ok());
    EXPECT_EQ(points[0].error->code, SolveErrorCode::InjectedFault);
    EXPECT_TRUE(points[1].ok());
    EXPECT_GT(points[1].mva.speedup, 0.0);
    // Rendering and aggregation skip the failed point.
    auto table = comparisonTable(points, "faulted");
    EXPECT_NE(table.render().find("—"), std::string::npos);
    EXPECT_TRUE(std::isfinite(maxAbsError(points)));
}

TEST_F(FaultInjection, IoCommitFaultLeavesDestinationUntouched)
{
    std::string path = testing::TempDir() + "snoop_fault_io.csv";
    std::remove(path.c_str());
    {
        CsvWriter w(path);
        w.header({"n", "speedup"});
        w.row({"4", "3.17"});
        EXPECT_TRUE(w.close().ok());
    }
    std::string committed = slurp(path);
    ASSERT_NE(committed.find("3.17"), std::string::npos);

    ASSERT_TRUE(setFaultSpecs("io.commit").ok());
    CsvWriter w(path);
    w.header({"n", "speedup"});
    w.row({"8", "9.99"});
    auto r = w.close();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::IoError);
    // The failed commit discarded its temporary; the previous
    // contents survive byte for byte.
    EXPECT_EQ(slurp(path), committed);
    std::remove(path.c_str());
}

TEST_F(FaultInjection, IoFsyncFaultIsAnErrorNotSilentSuccess)
{
    // The durability contract of util/atomic_file.hh: an fsync that
    // cannot reach stable storage must surface as IoError. The fault
    // fires on the pre-rename file sync, so the previous destination
    // contents also survive.
    std::string path = testing::TempDir() + "snoop_fault_fsync.csv";
    std::remove(path.c_str());
    {
        CsvWriter w(path);
        w.header({"n", "speedup"});
        w.row({"4", "3.17"});
        EXPECT_TRUE(w.close().ok());
    }
    std::string committed = slurp(path);

    ASSERT_TRUE(setFaultSpecs("io.fsync").ok());
    CsvWriter w(path);
    w.header({"n", "speedup"});
    w.row({"8", "9.99"});
    auto r = w.close();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::IoError);
    EXPECT_NE(r.error().message.find("fsync"), std::string::npos);
    EXPECT_EQ(slurp(path), committed);
    std::remove(path.c_str());
}

TEST_F(FaultInjection, MvaLadderRecoversFromFirstAttemptFault)
{
    // Poison only the first MVA attempt: the recovery ladder retries
    // at heavier damping and the solve still lands.
    ASSERT_TRUE(setFaultSpecs("mva.first_attempt").ok());
    MvaSolver solver;
    auto inputs = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    auto r = solver.solve(inputs, 8);
    EXPECT_TRUE(r.converged);
    ASSERT_GE(r.attempts.size(), 2u);
    EXPECT_FALSE(r.attempts.front().converged);
    EXPECT_TRUE(r.attempts.back().converged);
    EXPECT_LT(r.attempts.back().damping, 1.0);

    // The same solve without the fault needs exactly one attempt.
    clearFaultSpecs();
    auto clean = solver.solve(inputs, 8);
    ASSERT_EQ(clean.attempts.size(), 1u);
    EXPECT_DOUBLE_EQ(clean.attempts.front().damping, 0.5);
}

TEST_F(FaultInjection, LadderFiresForConfiguredDampingBelowHalf)
{
    // Regression for the dead-ladder bug: the old loop iterated the
    // shared rungs and *broke* on the first rung >= the configured
    // damping, so with damping 0.3 the 0.5 rung terminated the
    // ladder and a failed first attempt was never rescued. The fix
    // skips ineligible rungs instead: attempt 0 runs at 0.3, and the
    // first retry runs at 0.25 (0.5 is skipped, not a terminator).
    ASSERT_TRUE(setFaultSpecs("mva.first_attempt").ok());
    MvaOptions opts;
    opts.damping = 0.3;
    MvaSolver solver(opts);
    auto inputs = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    auto r = solver.trySolve(inputs, 8);
    ASSERT_TRUE(r.ok()) << r.error().describe();
    EXPECT_TRUE(r.value().converged);
    const auto &attempts = r.value().attempts;
    ASSERT_GE(attempts.size(), 2u);
    EXPECT_DOUBLE_EQ(attempts[0].damping, 0.3);
    EXPECT_FALSE(attempts[0].converged);
    EXPECT_DOUBLE_EQ(attempts[1].damping, 0.25);
    EXPECT_TRUE(attempts.back().converged);
}

TEST_F(FaultInjection, NanFaultSurfacesAsStructuredError)
{
    // fixed_point.nan poisons every attempt: the ladder exhausts and
    // the failure comes back as NonFiniteIterate, not a crash.
    ASSERT_TRUE(setFaultSpecs("mva.nan").ok());
    MvaSolver solver;
    auto inputs = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    auto r = solver.trySolve(inputs, 8);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::NonFiniteIterate);
}

} // namespace
} // namespace snoop
