/**
 * Checkpoint format tests: the MvaResult/SolveError codec round-trips
 * bit-exactly, the fingerprint pins exactly the grid-determining spec
 * fields, and every corruption - garbled header, flipped bytes,
 * truncated cells, bumped version, out-of-order or out-of-range cells
 * - is rejected with a structured error naming the file and offset,
 * never silently reused. The append-only log writes each cell once,
 * drops a torn final append, and leaves the file at its previous
 * commit when an append fails.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/sweep.hh"
#include "observe/metrics.hh"
#include "protocol/catalog.hh"
#include "util/fault.hh"
#include "util/line_reader.hh"
#include "util/logging.hh"

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

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content;
}

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.base = presets::appendixA(SharingLevel::FivePercent);
    spec.paramName = "h_sw";
    spec.set = findParamSetter("h_sw");
    spec.values = {0.1, 0.3, 0.5};
    spec.protocols = {ProtocolConfig::writeOnce(),
                      *findProtocol("Illinois")};
    spec.n = 8;
    return spec;
}

/** A checkpoint-file fixture: every test gets a fresh temp path. */
class Checkpoint : public testing::Test
{
  protected:
    void SetUp() override
    {
        clearFaultSpecs();
        path_ = testing::TempDir() + "snoop_ckpt_test.ckpt";
        std::remove(path_.c_str());
    }
    void TearDown() override
    {
        clearFaultSpecs();
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST(CheckpointCodec, MvaResultRoundTripsBitExactly)
{
    MvaResult r;
    r.numProcessors = 12;
    r.speedup = 7.123456789012345;
    r.processingPower = 6.5;
    r.responseTime = 10.0 / 3.0; // not exactly representable in decimal
    r.rLocal = 0.1;
    r.rBroadcast = 0.2;
    r.rRemoteRead = 0.3;
    r.wBus = 1.5;
    r.qBus = 0.25;
    r.busUtil = 0.875;
    r.pBusyBus = 0.5;
    r.tBus = 4.0;
    r.tResBus = 2.0;
    r.wMem = 0.75;
    r.memUtil = 0.125;
    r.pBusyMem = 0.0625;
    r.nInterference = 1.25;
    r.tInterference = 2.5;
    r.iterations = 17;
    r.converged = true;
    r.residual = 1e-9;
    r.warmStarted = true;

    MvaResult back;
    ASSERT_TRUE(mvaResultFromJson(mvaResultToJson(r), back).ok());
    EXPECT_EQ(back.numProcessors, r.numProcessors);
    // Bit-exact restoration is what the byte-identical-output claim
    // rides on: the JSON codec's shortest-round-trip serialization
    // must restore every double to the same bits.
    EXPECT_EQ(back.speedup, r.speedup);
    EXPECT_EQ(back.responseTime, r.responseTime);
    EXPECT_EQ(back.residual, r.residual);
    EXPECT_EQ(back.busUtil, r.busUtil);
    EXPECT_EQ(back.iterations, r.iterations);
    EXPECT_EQ(back.converged, r.converged);
    EXPECT_EQ(back.warmStarted, r.warmStarted);
}

TEST(CheckpointCodec, NonFiniteMeasuresSurviveAsNull)
{
    // JSON has no NaN/inf literal; the codec maps them through null
    // so a diverged-but-recorded cell still round-trips.
    MvaResult r;
    r.speedup = std::numeric_limits<double>::quiet_NaN();
    r.wBus = std::numeric_limits<double>::infinity();
    r.nonFinite = true;
    MvaResult back;
    ASSERT_TRUE(mvaResultFromJson(mvaResultToJson(r), back).ok());
    EXPECT_TRUE(std::isnan(back.speedup));
    EXPECT_TRUE(std::isnan(back.wBus)); // inf normalizes to NaN
    EXPECT_TRUE(back.nonFinite);
}

TEST(CheckpointCodec, MalformedResultsAreRejected)
{
    MvaResult out;
    EXPECT_FALSE(mvaResultFromJson(JsonValue(3.0), out).ok());
    JsonValue incomplete{JsonValue::Object{}};
    auto r = mvaResultFromJson(incomplete, out);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
}

TEST(CheckpointCodec, FingerprintPinsTheGridAndNothingElse)
{
    SweepSpec spec = smallSpec();
    std::string base = sweepFingerprint(spec);

    // Operational knobs do not change the fingerprint: a resume may
    // change them, and every shard of one grid shares it.
    SweepSpec same = smallSpec();
    same.shard = {1, 4};
    same.checkpointPath = "elsewhere.ckpt";
    same.checkpointEvery = 1;
    EXPECT_EQ(sweepFingerprint(same), base);

    // Everything that determines cell results does change it.
    SweepSpec v = smallSpec();
    v.values[1] = 0.30000000000000004; // one ulp-ish nudge
    EXPECT_NE(sweepFingerprint(v), base);
    SweepSpec n = smallSpec();
    n.n = 9;
    EXPECT_NE(sweepFingerprint(n), base);
    SweepSpec p = smallSpec();
    p.protocols.push_back(*findProtocol("Dragon"));
    EXPECT_NE(sweepFingerprint(p), base);
    SweepSpec w = smallSpec();
    w.base.tau += 0.5;
    EXPECT_NE(sweepFingerprint(w), base);
}

TEST_F(Checkpoint, WriteReadRoundTrip)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.checkpointEvery = 2;
    // Poison one cell so an error cell rides along in the file.
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=6").ok());
    testing::internal::CaptureStderr();
    auto res = tryRunSweep(spec);
    testing::internal::GetCapturedStderr();
    clearFaultSpecs();
    ASSERT_TRUE(res.ok());

    auto data = readSweepCheckpoint(path_);
    ASSERT_TRUE(data.ok()) << data.error().describe();
    EXPECT_EQ(data.value().version, kCheckpointVersion);
    EXPECT_EQ(data.value().fingerprint, sweepFingerprint(spec));
    EXPECT_EQ(data.value().gridCells, 6u);
    EXPECT_EQ(data.value().cells.size(), 6u);
    EXPECT_EQ(data.value().paramName, "h_sw");
    EXPECT_EQ(data.value().n, 8u);
    ASSERT_EQ(data.value().protocolMods.size(), 2u);
    EXPECT_EQ(data.value().protocolMods[1], "13"); // Illinois

    // Cell 0 carries the injected error, bit-identical through the
    // SolveError codec; survivors carry bit-exact results.
    const auto &cells = data.value().cells;
    EXPECT_FALSE(cells[0].ok);
    EXPECT_EQ(cells[0].error.code, SolveErrorCode::InjectedFault);
    EXPECT_EQ(cells[0].error.describe(),
              res.value().errors[0][0]->describe());
    EXPECT_TRUE(cells[1].ok);
    EXPECT_EQ(cells[1].result.speedup, res.value().results[0][1].speedup);
    for (size_t i = 1; i < cells.size(); ++i)
        EXPECT_GT(cells[i].cell, cells[i - 1].cell);
}

TEST_F(Checkpoint, ResumeFromCompleteCheckpointRecomputesNothing)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    auto first = tryRunSweep(spec);
    ASSERT_TRUE(first.ok());

    // Arm every cell to fail: if the resume re-evaluated anything,
    // the outputs would differ.
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=1").ok());
    auto resumed = tryRunSweep(spec);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.value().failureCount(), 0u);
    EXPECT_EQ(resumed.value().csv(), first.value().csv());
    EXPECT_EQ(resumed.value().cellCsv(), first.value().cellCsv());
    EXPECT_EQ(resumed.value().table().render(),
              first.value().table().render());
}

TEST_F(Checkpoint, MismatchedSpecIsRejectedNotSilentlyReused)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    SweepSpec changed = spec;
    changed.values[2] = 0.7; // a different sweep now
    auto res = tryRunSweep(changed);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(res.error().message.find("fingerprint"),
              std::string::npos);
}

TEST_F(Checkpoint, WrongShardIsRejected)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.shard = {0, 2};
    ASSERT_TRUE(tryRunSweep(spec).ok());

    SweepSpec other = spec;
    other.shard = {1, 2}; // same grid, different slice
    auto res = tryRunSweep(other);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(res.error().message.find("shard"), std::string::npos);
}

TEST_F(Checkpoint, CorruptedHeaderIsRejectedNamingTheFile)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    // Flip one byte inside the header's fingerprint.
    std::string contents = slurp(path_);
    size_t pos = contents.find("\"fingerprint\":\"");
    ASSERT_NE(pos, std::string::npos);
    pos += 15;
    contents[pos] = contents[pos] == 'a' ? 'b' : 'a';
    spit(path_, contents);

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(data.error().message.find(path_), std::string::npos);
    EXPECT_NE(data.error().message.find("checksum"), std::string::npos);
}

TEST_F(Checkpoint, TruncatedCellLineIsRejectedNamingTheOffset)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    std::string contents = slurp(path_);
    // Chop the final cell line in half (keep its trailing newline so
    // the reader sees a short, garbled line rather than no line).
    size_t last_nl = contents.rfind('\n');
    size_t prev_nl = contents.rfind('\n', last_nl - 1);
    std::string truncated =
        contents.substr(0, prev_nl + (last_nl - prev_nl) / 2) + "\n";
    spit(path_, truncated);

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(data.error().message.find(path_), std::string::npos);
    EXPECT_NE(data.error().message.find("line 7"), std::string::npos);
    EXPECT_NE(data.error().message.find("byte offset"),
              std::string::npos);
}

TEST_F(Checkpoint, OverLongLinesAreStructuredErrorsNotAllocations)
{
    // The reader holds one line of at most kMaxLineBytes: a longer
    // line anywhere in the file is rejected naming the file and line,
    // whether or not it is terminated.
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());
    const std::string contents = slurp(path_);
    const std::string huge(kMaxLineBytes + 1, 'x');

    for (const char *tail : {"\n", ""}) {
        spit(path_, contents + huge + tail);
        auto data = readSweepCheckpoint(path_);
        ASSERT_FALSE(data.ok());
        EXPECT_EQ(data.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(data.error().message.find(path_), std::string::npos);
        EXPECT_NE(data.error().message.find("line 8"), std::string::npos)
            << data.error().message;
        EXPECT_NE(data.error().message.find("exceeds 1048576 bytes"),
                  std::string::npos)
            << data.error().message;
    }

    spit(path_, huge + "\n" + contents);
    auto header = readSweepCheckpoint(path_);
    ASSERT_FALSE(header.ok());
    EXPECT_NE(header.error().message.find("line 1"), std::string::npos)
        << header.error().message;
    EXPECT_NE(header.error().message.find("exceeds"), std::string::npos);

    // A line exactly at the cap is read (and then fails as JSON).
    spit(path_, contents + std::string(kMaxLineBytes, 'x') + "\n");
    auto at_cap = readSweepCheckpoint(path_);
    ASSERT_FALSE(at_cap.ok());
    EXPECT_NE(at_cap.error().message.find("malformed cell"),
              std::string::npos)
        << at_cap.error().message;
}

TEST_F(Checkpoint, HeaderOverTheLineCapIsRefusedAtWrite)
{
    // The writer never makes a file its reader refuses: a grid whose
    // header line would pass the cap is an error before any file.
    SweepSpec spec = smallSpec();
    spec.values.clear();
    for (int i = 0; i < 100000; ++i)
        spec.values.push_back(0.1 + 1e-7 * i);
    auto written = writeSweepCheckpoint(path_, spec, SweepResult{});
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(written.error().message.find("line cap"), std::string::npos)
        << written.error().message;
    EXPECT_FALSE(checkpointExists(path_));
}

TEST_F(Checkpoint, VersionBumpIsRejectedEvenWithAValidChecksum)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    // Forge a future-version header with a *recomputed* checksum, so
    // the version check itself - not the checksum - must fire.
    std::string contents = slurp(path_);
    size_t nl = contents.find('\n');
    auto header = parseJson(contents.substr(0, nl));
    ASSERT_TRUE(header.ok());
    JsonValue h = std::move(header).value();
    h.asObject().erase("check");
    h.set("version", JsonValue(kCheckpointVersion + 1));
    h.set("check", JsonValue(fnv1aHex(serializeJson(h))));
    // (set order doesn't matter: objects serialize key-sorted.)
    JsonValue reserialized = h;
    reserialized.asObject().erase("check");
    ASSERT_EQ(h.get("check")->asString(),
              fnv1aHex(serializeJson(reserialized)));
    spit(path_, serializeJson(h) + contents.substr(nl));

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_NE(data.error().message.find("version"), std::string::npos);
    EXPECT_NE(data.error().message.find("not the supported"),
              std::string::npos);
}

TEST_F(Checkpoint, EmptyAndGarbageFilesAreRejected)
{
    spit(path_, "");
    auto empty = readSweepCheckpoint(path_);
    ASSERT_FALSE(empty.ok());
    EXPECT_NE(empty.error().message.find("no header"),
              std::string::npos);

    spit(path_, "not json at all\n");
    auto garbage = readSweepCheckpoint(path_);
    ASSERT_FALSE(garbage.ok());
    EXPECT_NE(garbage.error().message.find("malformed header"),
              std::string::npos);

    spit(path_, "{\"format\":\"something-else\"}\n");
    auto wrong = readSweepCheckpoint(path_);
    ASSERT_FALSE(wrong.ok());
    EXPECT_NE(wrong.error().message.find("not a snoop-sweep-checkpoint"),
              std::string::npos);
}

TEST_F(Checkpoint, OutOfRangeAndOutOfOrderCellsAreRejected)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.shard = {0, 2}; // owns cells [0, 3) of the 6-cell grid
    ASSERT_TRUE(tryRunSweep(spec).ok());
    std::string contents = slurp(path_);

    // A cell belonging to the other shard sneaks in.
    std::string smuggled = contents;
    size_t pos = smuggled.find("{\"cell\":2,");
    ASSERT_NE(pos, std::string::npos);
    smuggled.replace(pos, 10, "{\"cell\":5,");
    spit(path_, smuggled);
    auto out_of_range = readSweepCheckpoint(path_);
    ASSERT_FALSE(out_of_range.ok());
    EXPECT_NE(out_of_range.error().message.find("outside shard"),
              std::string::npos);

    // The same cell committed twice.
    std::string duplicated = contents;
    pos = duplicated.find("{\"cell\":1,");
    ASSERT_NE(pos, std::string::npos);
    duplicated.replace(pos, 10, "{\"cell\":0,");
    spit(path_, duplicated);
    auto out_of_order = readSweepCheckpoint(path_);
    ASSERT_FALSE(out_of_order.ok());
    EXPECT_NE(out_of_order.error().message.find("out of order"),
              std::string::npos);
}

TEST_F(Checkpoint, FailedCheckpointCommitIsAStructuredError)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(setFaultSpecs("io.fsync").ok());
    auto res = tryRunSweep(spec);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, SolveErrorCode::IoError);
    EXPECT_NE(res.error().message.find("fsync"), std::string::npos);
}

/**
 * Run @p spec until the sweep.checkpoint crash point fires after
 * commit @p commits; the file then holds exactly those commits.
 */
void
runUntilCommit(const SweepSpec &spec, size_t commits)
{
    ASSERT_TRUE(
        setFaultSpecs(strprintf("sweep.checkpoint:every=%zu", commits))
            .ok());
    auto res = tryRunSweep(spec);
    clearFaultSpecs();
    ASSERT_FALSE(res.ok());
    ASSERT_EQ(res.error().code, SolveErrorCode::InjectedFault);
}

TEST_F(Checkpoint, V1HeaderIsRejectedAsAnUnsupportedVersion)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    // A v1 file differs from v2 only in how it was committed, so a
    // header claiming version 1 (with a valid checksum) is the whole
    // of what a leftover v1 file looks like.
    std::string contents = slurp(path_);
    size_t nl = contents.find('\n');
    auto header = parseJson(contents.substr(0, nl));
    ASSERT_TRUE(header.ok());
    JsonValue h = std::move(header).value();
    h.asObject().erase("check");
    h.set("version", JsonValue(1u));
    h.set("check", JsonValue(fnv1aHex(serializeJson(h))));
    spit(path_, serializeJson(h) + contents.substr(nl));

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(data.error().message.find("format version 1 is not the "
                                        "supported version 2"),
              std::string::npos)
        << data.error().message;
}

TEST_F(Checkpoint, BadProtocolModIsRejected)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    // snoop_merge hands every header mod to
    // ProtocolConfig::fromModString, for which a character outside
    // 1-4 is a precondition violation (exit 1). The reader must turn
    // a forged mod, checksum recomputed, into a structured error.
    std::string contents = slurp(path_);
    size_t nl = contents.find('\n');
    auto header = parseJson(contents.substr(0, nl));
    ASSERT_TRUE(header.ok());
    JsonValue h = std::move(header).value();
    h.asObject().erase("check");
    JsonValue protocols = *h.get("protocols");
    protocols.asArray()[1].set("mod", JsonValue("19"));
    h.set("protocols", protocols);
    h.set("check", JsonValue(fnv1aHex(serializeJson(h))));
    spit(path_, serializeJson(h) + contents.substr(nl));

    auto data = readSweepCheckpoint(path_);
    ASSERT_FALSE(data.ok());
    EXPECT_EQ(data.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(data.error().message.find("bad protocol mod \"19\""),
              std::string::npos)
        << data.error().message;

    // A repeated or descending digit is no modString() either.
    for (const char *mod : {"11", "31"}) {
        h.asObject().erase("check");
        protocols.asArray()[1].set("mod", JsonValue(mod));
        h.set("protocols", protocols);
        h.set("check", JsonValue(fnv1aHex(serializeJson(h))));
        spit(path_, serializeJson(h) + contents.substr(nl));
        EXPECT_FALSE(readSweepCheckpoint(path_).ok()) << mod;
    }
}

TEST_F(Checkpoint, EachCellIsWrittenOnce)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.checkpointEvery = 1;
    metrics().reset();
    metrics().setEnabled(true);
    auto res = tryRunSweep(spec);
    metrics().setEnabled(false);
    ASSERT_TRUE(res.ok());

    double written = -1.0, commits = -1.0;
    for (const MetricEntry &e : metrics().snapshot()) {
        if (e.name == "sweep.checkpoint_bytes")
            written = e.total;
        if (e.name == "sweep.checkpoints")
            commits = e.total;
    }
    metrics().reset();
    EXPECT_EQ(commits, 6.0);
    // Six commits of one cell each wrote exactly the final file: the
    // header once and every cell line once, nothing rewritten.
    EXPECT_EQ(written, static_cast<double>(slurp(path_).size()));
}

TEST_F(Checkpoint, TornFinalLineIsDroppedAndTruncatedOnResume)
{
    SweepSpec spec = smallSpec();
    spec.checkpointEvery = 2;
    spec.checkpointPath = path_ + ".golden";
    auto golden = tryRunSweep(spec);
    ASSERT_TRUE(golden.ok());
    std::string golden_file = slurp(spec.checkpointPath);
    std::remove(spec.checkpointPath.c_str());

    spec.checkpointPath = path_;
    ASSERT_NO_FATAL_FAILURE(runUntilCommit(spec, 2));
    std::string committed = slurp(path_);
    // Half of the next cell line, no newline: an append cut short.
    size_t next_end = golden_file.find('\n', committed.size());
    ASSERT_NE(next_end, std::string::npos);
    std::string torn =
        golden_file.substr(committed.size(),
                           (next_end - committed.size()) / 2);
    spit(path_, committed + torn);

    auto data = readSweepCheckpoint(path_);
    ASSERT_TRUE(data.ok()) << data.error().describe();
    EXPECT_EQ(data.value().cells.size(), 4u);
    EXPECT_EQ(data.value().validBytes, committed.size());
    EXPECT_EQ(data.value().tornBytes, torn.size());

    testing::internal::CaptureStderr();
    auto resumed = tryRunSweep(spec);
    std::string log = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.ok()) << resumed.error().describe();
    EXPECT_NE(log.find(strprintf("torn %zu-byte append", torn.size())),
              std::string::npos)
        << log;
    EXPECT_EQ(slurp(path_), golden_file);
    EXPECT_EQ(resumed.value().csv(), golden.value().csv());
    EXPECT_EQ(resumed.value().cellCsv(), golden.value().cellCsv());
    EXPECT_EQ(resumed.value().table().render(),
              golden.value().table().render());
}

TEST_F(Checkpoint, FailedAppendLeavesTheFileAtThePreviousCommit)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    spec.checkpointEvery = 1;
    // Commit 3 is an append; it fails before (io.commit) or after
    // (io.fsync) its write, and the file must read exactly as commit
    // 2 left it either way.
    ASSERT_NO_FATAL_FAILURE(runUntilCommit(spec, 2));
    const std::string after_commit_2 = slurp(path_);
    for (const char *site : {"io.commit", "io.fsync"}) {
        ASSERT_TRUE(setFaultSpecs(site).ok());
        testing::internal::CaptureStderr();
        auto res = tryRunSweep(spec);
        testing::internal::GetCapturedStderr();
        clearFaultSpecs();
        ASSERT_FALSE(res.ok()) << site;
        EXPECT_EQ(res.error().code, SolveErrorCode::IoError) << site;
        EXPECT_NE(res.error().message.find(site), std::string::npos)
            << res.error().message;
        EXPECT_EQ(slurp(path_), after_commit_2) << site;
    }
    testing::internal::CaptureStderr();
    auto finished = tryRunSweep(spec);
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(finished.ok());
    EXPECT_EQ(finished.value().evaluatedCount(), 6u);
}

TEST_F(Checkpoint, CellGapIsRejectedOnResume)
{
    SweepSpec spec = smallSpec();
    spec.checkpointPath = path_;
    ASSERT_TRUE(tryRunSweep(spec).ok());

    // Drop cell 1's line: the rest still reads in order, but a resume
    // would have to append cell 1 after cell 5.
    std::string contents = slurp(path_);
    size_t pos = contents.find("{\"cell\":1,");
    ASSERT_NE(pos, std::string::npos);
    contents.erase(pos, contents.find('\n', pos) + 1 - pos);
    spit(path_, contents);
    ASSERT_TRUE(readSweepCheckpoint(path_).ok());

    auto res = tryRunSweep(spec);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(res.error().message.find("contiguous prefix"),
              std::string::npos)
        << res.error().message;
}

TEST_F(Checkpoint, CommittedV2FileRewritesByteForByte)
{
    // The fixture was written by the printf-search number encoder
    // this build's std::to_chars encoder replaced: this spec with
    // sweep.cell:every=5 armed, then cell 1's residual and cell 14's
    // tInterference forced non-finite so two results carry a null.
    // The NaN swept value is a null in the header and fails its row.
    SweepSpec spec = smallSpec();
    spec.values = {0.1, 1.0 / 3.0,
                   std::numeric_limits<double>::quiet_NaN(), 0.65};
    spec.protocols.push_back(*findProtocol("Berkeley"));
    spec.protocols.push_back(*findProtocol("Dragon"));
    spec.n = 6;
    const std::string fixture = slurp(SNOOP_CHECKPOINT_FIXTURE);
    ASSERT_FALSE(fixture.empty());
    spit(path_, fixture);

    // The header checksum and the grid fingerprint both hash encoder
    // output, so reading and resuming prove the header bytes match.
    auto data = readSweepCheckpoint(path_);
    ASSERT_TRUE(data.ok()) << data.error().describe();
    ASSERT_EQ(data.value().cells.size(), 16u);
    spec.checkpointPath = path_;
    testing::internal::CaptureStderr();
    auto resumed = tryRunSweep(spec);
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.ok()) << resumed.error().describe();
    EXPECT_EQ(resumed.value().failureCount(), 7u);
    EXPECT_EQ(slurp(path_), fixture);

    // Every cell line too: rewrite the restored grid to a new file.
    const std::string rewrite = path_ + ".rewrite";
    ASSERT_TRUE(writeSweepCheckpoint(rewrite, spec, resumed.value()).ok());
    std::string again = slurp(rewrite);
    std::remove(rewrite.c_str());
    EXPECT_EQ(again, fixture);
}

TEST(ShardSlices, RangesAreContiguousExhaustiveAndOrdered)
{
    for (size_t cells : {0u, 1u, 7u, 14u, 112u, 113u}) {
        for (size_t count : {1u, 2u, 3u, 4u, 7u, 16u}) {
            size_t expect_begin = 0;
            for (size_t index = 0; index < count; ++index) {
                ShardSpec s{index, count};
                auto [begin, end] = s.cellRange(cells);
                EXPECT_EQ(begin, expect_begin)
                    << cells << " cells, shard " << index << "/"
                    << count;
                EXPECT_LE(begin, end);
                expect_begin = end;
            }
            EXPECT_EQ(expect_begin, cells) << count;
        }
    }
    EXPECT_TRUE(ShardSpec{}.isWhole());
    EXPECT_FALSE((ShardSpec{0, 4}).isWhole());
}

} // namespace
} // namespace snoop
