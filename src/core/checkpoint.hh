#pragma once

/**
 * @file
 * Crash-safe sweep checkpoints: the durable cell store behind
 * runSweep's checkpoint/resume and the snoop_merge shard combiner
 * (docs/SHARDING.md).
 *
 * A checkpoint is an append-only log of line-delimited JSON. The
 * first commit creates the file atomically through
 * util/atomic_file.hh (fsync'd temp + rename + directory fsync) with
 * the header and the first batch of cells, so a file that exists
 * always has a valid header. Every later commit appends only its new
 * cell lines, in one write followed by fdatasync; a failed append is
 * truncated back, leaving the file byte-identical to the previous
 * commit. Each cell is therefore serialized and written once, and a
 * SIGKILL or power cut loses at most checkpointEvery cells of work,
 * never the committed prefix.
 *
 * Line 1 is a versioned, self-validating header: it carries the
 * format tag, the format version, a checksum of the header itself,
 * the spec fingerprint (a 64-bit FNV-1a over the canonicalized grid:
 * workload, swept values, protocol columns, system size - everything
 * that determines cell results, nothing operational), the shard
 * descriptor, and the rendering-relevant spec copy the merge tool
 * rebuilds output from. Every following line is one completed cell in
 * global cell order - a result cell with the full set of performance
 * measures, or an error cell whose SolveError round-trips through the
 * shared JSON codec (util/json.hh) bit-identically.
 *
 * Torn-tail rule: a crash mid-append can leave an unterminated final
 * line. The reader drops it (CheckpointData::tornBytes) and a resume
 * truncates the file back to CheckpointData::validBytes before it
 * appends. A newline-terminated line that does not parse is not a
 * torn append - it is rejected like any other corruption.
 *
 * Versioning policy: readers accept exactly the versions they know
 * (currently 2, the append-only log; version 1 files, rewritten whole
 * at each commit, are rejected rather than read). A bumped version, a
 * checksum mismatch, a garbled line, an out-of-range or duplicated
 * cell - each is a structured InvalidArgument/IoError naming the file
 * and the offset, and resume refuses to run rather than silently
 * recompute or reuse.
 *
 * What is *not* persisted: solver diagnostics (the attempt record,
 * the convergence trace) and the derived inputs, which no
 * sweep output consumes. A restored SweepResult therefore renders
 * table()/csv()/cellCsv()/winners() byte-identically to the
 * uninterrupted run, but its cells carry empty diagnostics.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "util/atomic_file.hh"
#include "util/expected.hh"
#include "util/json.hh"

namespace snoop {

/** The checkpoint format version this build reads and writes. */
inline constexpr unsigned kCheckpointVersion = 2;

/** The header's format tag. */
inline constexpr const char *kCheckpointFormat =
    "snoop-sweep-checkpoint";

/** One persisted cell: a result or a structured failure. */
struct CheckpointCell
{
    size_t cell = 0;  ///< global cell index (v * numProtocols + p)
    bool ok = true;   ///< result valid when true, error when false
    MvaResult result;
    SolveError error;
};

/** A parsed, structurally validated checkpoint file. */
struct CheckpointData
{
    unsigned version = kCheckpointVersion;
    std::string fingerprint; ///< sweepFingerprint() of the grid
    ShardSpec shard;         ///< the slice this file belongs to
    size_t gridCells = 0;    ///< values x protocols of the full grid

    // The rendering-relevant spec copy (validated against the resuming
    // spec; the merge tool rebuilds SweepSpec columns from it).
    std::string paramName;
    unsigned n = 0;
    std::vector<double> values;
    std::vector<std::string> protocolMods;    ///< ProtocolConfig::modString
    std::vector<std::string> protocolHeaders; ///< display column names

    /** Completed cells, in strictly increasing cell order. */
    std::vector<CheckpointCell> cells;

    /** Length of the valid prefix: the header and every cell line. */
    uint64_t validBytes = 0;
    /** Bytes of the dropped unterminated final line (a torn append). */
    uint64_t tornBytes = 0;
};

/**
 * 64-bit FNV-1a of @p text as 16 lowercase hex digits - the hash
 * behind both the grid fingerprint and the header self-checksum.
 * Public so tests can forge headers (e.g. a version bump with a
 * recomputed checksum) and prove the *version* check fires, not just
 * the checksum.
 */
std::string fnv1aHex(const std::string &text);

/**
 * The 16-hex-digit FNV-1a fingerprint of everything in @p spec that
 * determines cell results: base workload, swept parameter name and
 * values (exact, via shortest-round-trip serialization), protocol
 * columns, and n. Shard descriptor and checkpoint knobs are excluded,
 * so all shards of one grid - and a resume of any of them - share a
 * fingerprint, while any change to the grid changes it.
 */
std::string sweepFingerprint(const SweepSpec &spec);

/** An MvaResult's persisted measures as a JSON object. */
JsonValue mvaResultToJson(const MvaResult &result);

/**
 * Inverse of mvaResultToJson. Missing members and wrong member kinds
 * come back as InvalidArgument naming the member; @p out is then left
 * untouched.
 */
Expected<void> mvaResultFromJson(const JsonValue &value, MvaResult &out);

/** True when @p path exists (resume trigger; not a validity check). */
bool checkpointExists(const std::string &path);

/**
 * Atomically write a complete checkpoint holding every evaluated cell
 * of @p partial (results and error cells) for the shard slice of
 * @p spec - the log's first commit. IoError when the atomic commit
 * fails; the previous file, if any, survives.
 */
Expected<void> writeSweepCheckpoint(const std::string &path,
                                    const SweepSpec &spec,
                                    const SweepResult &partial);

/**
 * Read and structurally validate a checkpoint file: format tag,
 * version, header checksum, cell order/range/shape. An unterminated
 * final line is a torn append and is dropped (the torn-tail rule in
 * the file comment); every rejection is a structured error naming
 * @p path and the offending line and byte offset. Spec compatibility
 * is applyCheckpoint's job.
 */
Expected<CheckpointData> readSweepCheckpoint(const std::string &path);

/**
 * Restore @p data into @p res (whose grids must be pre-sized for
 * @p spec): fills results/errors and marks the cells evaluated.
 * Rejects - with a structured error, never silent reuse - a
 * fingerprint mismatch, a different shard descriptor, or a grid
 * shape that does not match @p spec.
 */
Expected<void> applyCheckpoint(const CheckpointData &data,
                               const SweepSpec &spec, SweepResult &res);

/**
 * The writer one checkpointed sweep run holds across its commits: it
 * owns the append fd and, through it, the committed length. On a
 * fresh run the first commit creates the file through
 * writeSweepCheckpoint's atomic path; a resume adopts the existing
 * file's valid prefix, truncating a torn tail. Every later commit
 * appends only the new cells.
 */
class CheckpointLog
{
  public:
    /** A log for @p spec's checkpointPath (@p spec must outlive it). */
    explicit CheckpointLog(const SweepSpec &spec) : spec_(spec) {}

    /**
     * Adopt @p data, just read from the existing file: truncate the
     * file to data.validBytes (an inform() names any torn bytes) and
     * append after it from now on. Rejects a file whose cells are not
     * a contiguous prefix of the shard's range, since appending could
     * never fill the gap in cell order.
     */
    Expected<void> resume(const CheckpointData &data);

    /**
     * Durably commit @p cells - global indices evaluated since the
     * last commit, in increasing order - of @p res. Returns the bytes
     * written; IoError leaves the file as the previous commit left it.
     */
    Expected<uint64_t> commit(const SweepResult &res,
                              std::span<const size_t> cells);

  private:
    const SweepSpec &spec_;
    std::optional<AppendFile> file_; ///< none until the file exists
};

} // namespace snoop
