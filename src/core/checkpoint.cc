#include "core/checkpoint.hh"

#include <cmath>
#include <fstream>
#include <limits>

#include "util/atomic_file.hh"
#include "util/line_reader.hh"
#include "util/logging.hh"

namespace snoop {

// FNV-1a rather than a cryptographic hash: the threat model is torn
// writes and accidental edits, not an adversary.
std::string
fnv1aHex(const std::string &text)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

namespace {

/** Non-finite doubles have no JSON literal; persist them as null. */
JsonValue
numberOrNull(double v)
{
    return std::isfinite(v) ? JsonValue(v) : JsonValue();
}

/** Inverse of numberOrNull: null reads back as quiet NaN. */
Expected<void>
readNumberOrNull(const JsonValue *v, const char *member, double &out)
{
    if (v == nullptr) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "mvaResultFromJson", "missing member '%s'",
                         member);
    }
    if (v->isNull()) {
        out = std::numeric_limits<double>::quiet_NaN();
        return {};
    }
    if (!v->isNumber()) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "mvaResultFromJson",
                         "member '%s' is not a number", member);
    }
    out = v->asNumber();
    return {};
}

Expected<void>
readBool(const JsonValue *v, const char *member, bool &out)
{
    if (v == nullptr || !v->isBool()) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "mvaResultFromJson",
                         "member '%s' is missing or not a bool",
                         member);
    }
    out = v->asBool();
    return {};
}

/** A non-negative integer-valued JSON number (cell indices, sizes). */
Expected<size_t>
readIndex(const JsonValue *v, const char *site, const char *member)
{
    if (v == nullptr || !v->isNumber() ||
        v->asNumber() != std::floor(v->asNumber()) ||
        v->asNumber() < 0) {
        return makeError(SolveErrorCode::InvalidArgument, site,
                         "member '%s' is missing or not a "
                         "non-negative integer", member);
    }
    return static_cast<size_t>(v->asNumber());
}

/** Append cell @p cell of @p partial as one newline-terminated line. */
void
appendCellLine(std::string &out, size_t cell, const SweepResult &partial)
{
    const size_t protocols = partial.spec.protocols.size();
    size_t v = cell / protocols, p = cell % protocols;
    JsonValue::Object o;
    o["cell"] = JsonValue(static_cast<double>(cell));
    bool ok = !partial.cellFailed(v, p);
    o["ok"] = JsonValue(ok);
    if (ok)
        o["result"] = mvaResultToJson(partial.results[v][p]);
    else
        o["error"] = solveErrorToJson(*partial.errors[v][p]);
    out += serializeJson(JsonValue(std::move(o)));
    out += '\n';
}

/**
 * The header object minus the self-checksum. The checksum is the
 * FNV-1a of this serialization, stored under "check"; readers strip
 * "check", re-serialize, and compare, so any edit to any header field
 * (including a hand-bumped version) breaks the checksum too.
 */
JsonValue
headerWithoutChecksum(const SweepSpec &spec)
{
    JsonValue::Object o;
    o["format"] = JsonValue(kCheckpointFormat);
    o["version"] = JsonValue(kCheckpointVersion);
    o["fingerprint"] = JsonValue(sweepFingerprint(spec));
    JsonValue::Object shard;
    shard["index"] = JsonValue(static_cast<double>(spec.shard.index));
    shard["count"] = JsonValue(static_cast<double>(spec.shard.count));
    o["shard"] = JsonValue(std::move(shard));
    o["gridCells"] = JsonValue(static_cast<double>(
        spec.values.size() * spec.protocols.size()));
    o["param"] = JsonValue(spec.paramName);
    o["n"] = JsonValue(spec.n);
    JsonValue::Array values;
    for (double v : spec.values)
        values.push_back(numberOrNull(v));
    o["values"] = JsonValue(std::move(values));
    JsonValue::Array protocols;
    for (const auto &cfg : spec.protocols) {
        JsonValue::Object p;
        p["mod"] = JsonValue(cfg.modString());
        auto names = namesForConfig(cfg);
        p["header"] =
            JsonValue(names.empty() ? cfg.name() : names.front());
        protocols.push_back(JsonValue(std::move(p)));
    }
    o["protocols"] = JsonValue(std::move(protocols));
    return JsonValue(std::move(o));
}

/** Shorthand for the read-side rejection errors. */
SolveError
readError(const std::string &path, size_t line, size_t offset,
          const std::string &what)
{
    return makeError(SolveErrorCode::InvalidArgument,
                     "readSweepCheckpoint",
                     "checkpoint '%s' line %zu (byte offset %zu): %s",
                     path.c_str(), line, offset, what.c_str());
}

} // namespace

std::string
sweepFingerprint(const SweepSpec &spec)
{
    // Everything that determines cell results, canonicalized: the
    // serializer's sorted keys and shortest-round-trip numbers make
    // the serialization - and so the hash - a pure function of the
    // *values*, while the shard descriptor and checkpoint knobs are
    // deliberately absent (a resume may legally change them... except
    // the shard, which applyCheckpoint checks separately).
    JsonValue::Object o;
    JsonValue::Object wl;
    const WorkloadParams &b = spec.base;
    wl["tau"] = numberOrNull(b.tau);
    wl["p_private"] = numberOrNull(b.pPrivate);
    wl["p_sro"] = numberOrNull(b.pSro);
    wl["p_sw"] = numberOrNull(b.pSw);
    wl["h_private"] = numberOrNull(b.hPrivate);
    wl["h_sro"] = numberOrNull(b.hSro);
    wl["h_sw"] = numberOrNull(b.hSw);
    wl["r_private"] = numberOrNull(b.rPrivate);
    wl["r_sw"] = numberOrNull(b.rSw);
    wl["amod_private"] = numberOrNull(b.amodPrivate);
    wl["amod_sw"] = numberOrNull(b.amodSw);
    wl["csupply_sro"] = numberOrNull(b.csupplySro);
    wl["csupply_sw"] = numberOrNull(b.csupplySw);
    wl["wb_csupply"] = numberOrNull(b.wbCsupply);
    wl["rep_p"] = numberOrNull(b.repP);
    wl["rep_sw"] = numberOrNull(b.repSw);
    o["workload"] = JsonValue(std::move(wl));
    o["param"] = JsonValue(spec.paramName);
    o["n"] = JsonValue(spec.n);
    JsonValue::Array values;
    for (double v : spec.values)
        values.push_back(numberOrNull(v));
    o["values"] = JsonValue(std::move(values));
    JsonValue::Array protocols;
    for (const auto &cfg : spec.protocols)
        protocols.push_back(JsonValue(cfg.modString()));
    o["protocols"] = JsonValue(std::move(protocols));
    return fnv1aHex(serializeJson(JsonValue(std::move(o))));
}

JsonValue
mvaResultToJson(const MvaResult &result)
{
    // The persisted subset: every performance measure plus the scalar
    // solver diagnostics. attempts and inputs stay in-process only
    // (header rationale); neither feeds any sweep output, so restored
    // cells render byte-identically.
    JsonValue::Object o;
    o["numProcessors"] = JsonValue(result.numProcessors);
    o["speedup"] = numberOrNull(result.speedup);
    o["processingPower"] = numberOrNull(result.processingPower);
    o["responseTime"] = numberOrNull(result.responseTime);
    o["rLocal"] = numberOrNull(result.rLocal);
    o["rBroadcast"] = numberOrNull(result.rBroadcast);
    o["rRemoteRead"] = numberOrNull(result.rRemoteRead);
    o["wBus"] = numberOrNull(result.wBus);
    o["qBus"] = numberOrNull(result.qBus);
    o["busUtil"] = numberOrNull(result.busUtil);
    o["pBusyBus"] = numberOrNull(result.pBusyBus);
    o["tBus"] = numberOrNull(result.tBus);
    o["tResBus"] = numberOrNull(result.tResBus);
    o["wMem"] = numberOrNull(result.wMem);
    o["memUtil"] = numberOrNull(result.memUtil);
    o["pBusyMem"] = numberOrNull(result.pBusyMem);
    o["nInterference"] = numberOrNull(result.nInterference);
    o["tInterference"] = numberOrNull(result.tInterference);
    o["iterations"] = JsonValue(result.iterations);
    o["converged"] = JsonValue(result.converged);
    o["residual"] = numberOrNull(result.residual);
    o["nonFinite"] = JsonValue(result.nonFinite);
    o["budgetExhausted"] = JsonValue(result.budgetExhausted);
    o["warmStarted"] = JsonValue(result.warmStarted);
    return JsonValue(std::move(o));
}

Expected<void>
mvaResultFromJson(const JsonValue &value, MvaResult &out)
{
    if (!value.isObject()) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "mvaResultFromJson",
                         "expected an object, got kind %d",
                         static_cast<int>(value.kind()));
    }
    MvaResult parsed;
    SNOOP_TRY(size_t np, readIndex(value.get("numProcessors"),
                                   "mvaResultFromJson", "numProcessors"));
    parsed.numProcessors = static_cast<unsigned>(np);
    struct Field
    {
        const char *name;
        double MvaResult::*slot;
    };
    static constexpr Field kDoubles[] = {
        {"speedup", &MvaResult::speedup},
        {"processingPower", &MvaResult::processingPower},
        {"responseTime", &MvaResult::responseTime},
        {"rLocal", &MvaResult::rLocal},
        {"rBroadcast", &MvaResult::rBroadcast},
        {"rRemoteRead", &MvaResult::rRemoteRead},
        {"wBus", &MvaResult::wBus},
        {"qBus", &MvaResult::qBus},
        {"busUtil", &MvaResult::busUtil},
        {"pBusyBus", &MvaResult::pBusyBus},
        {"tBus", &MvaResult::tBus},
        {"tResBus", &MvaResult::tResBus},
        {"wMem", &MvaResult::wMem},
        {"memUtil", &MvaResult::memUtil},
        {"pBusyMem", &MvaResult::pBusyMem},
        {"nInterference", &MvaResult::nInterference},
        {"tInterference", &MvaResult::tInterference},
        {"residual", &MvaResult::residual},
    };
    for (const Field &f : kDoubles) {
        if (auto r = readNumberOrNull(value.get(f.name), f.name,
                                      parsed.*(f.slot));
            !r)
            return r;
    }
    auto iters = value.get("iterations");
    if (iters == nullptr || !iters->isNumber() ||
        iters->asNumber() != std::floor(iters->asNumber())) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "mvaResultFromJson",
                         "member 'iterations' is missing or not an "
                         "integer");
    }
    parsed.iterations = static_cast<int>(iters->asNumber());
    struct Flag
    {
        const char *name;
        bool MvaResult::*slot;
    };
    static constexpr Flag kBools[] = {
        {"converged", &MvaResult::converged},
        {"nonFinite", &MvaResult::nonFinite},
        {"budgetExhausted", &MvaResult::budgetExhausted},
        {"warmStarted", &MvaResult::warmStarted},
    };
    for (const Flag &f : kBools) {
        if (auto r = readBool(value.get(f.name), f.name,
                              parsed.*(f.slot));
            !r)
            return r;
    }
    out = std::move(parsed);
    return {};
}

bool
checkpointExists(const std::string &path)
{
    return std::ifstream(path).good();
}

namespace {

/** writeSweepCheckpoint, returning the committed file's length. */
Expected<uint64_t>
createCheckpoint(const std::string &path, const SweepSpec &spec,
                 const SweepResult &partial)
{
    JsonValue header = headerWithoutChecksum(spec);
    header.set("check", JsonValue(fnv1aHex(serializeJson(header))));
    std::string text = serializeJson(header);
    // readSweepCheckpoint reads lines of at most kMaxLineBytes; a grid
    // of tens of thousands of values would write a header it refuses.
    if (text.size() > kMaxLineBytes) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "writeSweepCheckpoint",
                         "checkpoint header for '%s' is %zu bytes, over "
                         "the %zu-byte line cap (%zu sweep values)",
                         path.c_str(), text.size(), kMaxLineBytes,
                         spec.values.size());
    }
    text += '\n';
    AtomicFile file(path);
    if (!file.ok()) {
        return makeError(SolveErrorCode::IoError,
                         "writeSweepCheckpoint",
                         "cannot open a temporary for '%s'",
                         path.c_str());
    }
    const size_t protocols = spec.protocols.size();
    auto [begin, end] =
        spec.shard.cellRange(spec.values.size() * protocols);
    // Cells go out in increasing global order - the same order every
    // time for the same completed set, so identical progress writes
    // identical bytes regardless of scheduling.
    for (size_t cell = begin; cell < end; ++cell) {
        if (partial.cellEvaluated(cell / protocols, cell % protocols))
            appendCellLine(text, cell, partial);
    }
    file.stream() << text;
    if (auto committed = file.commit(); !committed)
        return committed.error();
    return static_cast<uint64_t>(text.size());
}

} // namespace

Expected<void>
writeSweepCheckpoint(const std::string &path, const SweepSpec &spec,
                     const SweepResult &partial)
{
    if (auto created = createCheckpoint(path, spec, partial); !created)
        return std::move(created).error();
    return {};
}

Expected<void>
CheckpointLog::resume(const CheckpointData &data)
{
    // The reader guarantees strictly increasing cells inside the
    // shard's range, so they are a contiguous prefix of it exactly
    // when the last one sits at begin + count - 1.
    size_t begin = data.shard.cellRange(data.gridCells).first;
    if (!data.cells.empty() &&
        data.cells.back().cell != begin + data.cells.size() - 1) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "CheckpointLog::resume",
                         "checkpoint '%s' holds cells that are not a "
                         "contiguous prefix of its shard - an "
                         "append-only log cannot fill the gap",
                         spec_.checkpointPath.c_str());
    }
    SNOOP_TRY(AppendFile opened,
              AppendFile::open(spec_.checkpointPath, data.validBytes));
    if (data.tornBytes > 0) {
        inform("runSweep: dropped a torn %llu-byte append from '%s' "
               "(truncated back to its last commit, %llu bytes)",
               static_cast<unsigned long long>(data.tornBytes),
               spec_.checkpointPath.c_str(),
               static_cast<unsigned long long>(data.validBytes));
    }
    file_.emplace(std::move(opened));
    return {};
}

Expected<uint64_t>
CheckpointLog::commit(const SweepResult &res,
                      std::span<const size_t> cells)
{
    if (!file_) {
        // A fresh run: the header and this first batch, atomically.
        SNOOP_TRY(uint64_t created,
                  createCheckpoint(spec_.checkpointPath, spec_, res));
        SNOOP_TRY(AppendFile opened,
                  AppendFile::open(spec_.checkpointPath, created));
        file_.emplace(std::move(opened));
        return created;
    }
    std::string lines;
    for (size_t cell : cells)
        appendCellLine(lines, cell, res);
    if (auto appended = file_->append(lines); !appended)
        return appended.error();
    return static_cast<uint64_t>(lines.size());
}

Expected<CheckpointData>
readSweepCheckpoint(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return makeError(SolveErrorCode::IoError,
                         "readSweepCheckpoint",
                         "cannot open checkpoint '%s'", path.c_str());
    }
    // Lines are read through one bounded buffer: a line over the cap
    // (which the writer never produces) is an error, not an
    // allocation.
    LineReader reader(in);
    auto tooLong = [&](size_t line_no, size_t offset) {
        return readError(path, line_no, offset,
                         strprintf("line exceeds %zu bytes",
                                   reader.maxBytes()));
    };
    std::string line;
    size_t line_no = 0, offset = 0;
    const LineStatus header_status = reader.next();
    if (header_status == LineStatus::End) {
        return readError(path, 1, 0,
                         "empty file (no header line)");
    }
    if (header_status == LineStatus::TooLong)
        return tooLong(1, 0);
    ++line_no;
    // The header is written atomically with its newline (only appends
    // can tear), so an unterminated header is corruption.
    if (!reader.terminated())
        return readError(path, 1, 0, "header line is not terminated");
    line.assign(reader.line());
    // A header field's own error, rejected at line 1.
    auto atHeader = [&](SolveError &&e) {
        return readError(path, 1, 0, e.message);
    };
    SNOOP_TRY_OR(JsonValue header, parseJson(line), [&](SolveError &&e) {
        return readError(path, 1, 0, "malformed header: " + e.message);
    });
    auto format = header.get("format");
    if (format == nullptr || !format->isString() ||
        format->asString() != kCheckpointFormat) {
        return readError(path, 1, 0,
                         strprintf("not a %s file", kCheckpointFormat));
    }
    auto check = header.get("check");
    if (check == nullptr || !check->isString()) {
        return readError(path, 1, 0, "header has no checksum");
    }
    std::string stored_check = check->asString();
    header.asObject().erase("check");
    if (std::string expect = fnv1aHex(serializeJson(header));
        expect != stored_check) {
        return readError(path, 1, 0,
                         strprintf("header checksum mismatch (stored "
                                   "%s, computed %s) - the header was "
                                   "edited or torn",
                                   stored_check.c_str(),
                                   expect.c_str()));
    }
    SNOOP_TRY_OR(size_t version,
                 readIndex(header.get("version"), "readSweepCheckpoint",
                           "version"),
                 atHeader);
    if (version != kCheckpointVersion) {
        return readError(
            path, 1, 0,
            strprintf("format version %zu is not the supported "
                      "version %u",
                      version, kCheckpointVersion));
    }

    CheckpointData data;
    data.version = static_cast<unsigned>(version);
    auto fp = header.get("fingerprint");
    if (fp == nullptr || !fp->isString())
        return readError(path, 1, 0, "header has no fingerprint");
    data.fingerprint = fp->asString();
    const JsonValue *shard = header.get("shard");
    SNOOP_TRY_OR(data.shard.index,
                 readIndex(shard ? shard->get("index") : nullptr,
                           "readSweepCheckpoint", "shard.index"),
                 atHeader);
    SNOOP_TRY_OR(data.shard.count,
                 readIndex(shard ? shard->get("count") : nullptr,
                           "readSweepCheckpoint", "shard.count"),
                 atHeader);
    if (data.shard.count == 0 || data.shard.index >= data.shard.count)
        return readError(path, 1, 0, "malformed shard descriptor");
    SNOOP_TRY_OR(data.gridCells,
                 readIndex(header.get("gridCells"), "readSweepCheckpoint",
                           "gridCells"),
                 atHeader);
    auto param = header.get("param");
    if (param == nullptr || !param->isString())
        return readError(path, 1, 0, "header has no param name");
    data.paramName = param->asString();
    SNOOP_TRY_OR(size_t n,
                 readIndex(header.get("n"), "readSweepCheckpoint", "n"),
                 atHeader);
    data.n = static_cast<unsigned>(n);
    auto values = header.get("values");
    if (values == nullptr || !values->isArray())
        return readError(path, 1, 0, "header has no values array");
    for (const auto &v : values->asArray()) {
        if (v.isNull()) {
            data.values.push_back(
                std::numeric_limits<double>::quiet_NaN());
        } else if (v.isNumber()) {
            data.values.push_back(v.asNumber());
        } else {
            return readError(path, 1, 0, "non-number sweep value");
        }
    }
    auto protocols = header.get("protocols");
    if (protocols == nullptr || !protocols->isArray() ||
        protocols->asArray().empty()) {
        return readError(path, 1, 0, "header has no protocols array");
    }
    for (const auto &p : protocols->asArray()) {
        auto mod = p.get("mod");
        auto hdr = p.get("header");
        if (mod == nullptr || !mod->isString() || hdr == nullptr ||
            !hdr->isString()) {
            return readError(path, 1, 0, "malformed protocol entry");
        }
        // A mod string is what ProtocolConfig::modString() writes: a
        // strictly increasing run of the digits 1-4 ("" is Write-Once).
        const std::string &mods = mod->asString();
        for (size_t k = 0; k < mods.size(); ++k) {
            if (mods[k] < '1' || mods[k] > '4' ||
                (k > 0 && mods[k] <= mods[k - 1])) {
                return readError(path, 1, 0,
                                 strprintf("bad protocol mod \"%s\"",
                                           mods.c_str()));
            }
        }
        data.protocolMods.push_back(mods);
        data.protocolHeaders.push_back(hdr->asString());
    }
    if (data.gridCells !=
        data.values.size() * data.protocolMods.size()) {
        return readError(path, 1, 0,
                         strprintf("gridCells %zu does not match "
                                   "%zu values x %zu protocols",
                                   data.gridCells, data.values.size(),
                                   data.protocolMods.size()));
    }

    auto [begin, end] = data.shard.cellRange(data.gridCells);
    size_t prev_cell = 0;
    bool have_prev = false;
    offset = line.size() + 1;
    // A cell field's own error, rejected at the current line.
    auto atLine = [&](SolveError &&e) {
        return readError(path, line_no, offset, e.message);
    };
    for (;;) {
        const LineStatus status = reader.next();
        if (status == LineStatus::End)
            break;
        ++line_no;
        if (status == LineStatus::TooLong)
            return tooLong(line_no, offset);
        line.assign(reader.line());
        // The stream ended before a newline: the final line is a torn
        // append (the torn-tail rule), dropped rather than parsed.
        if (!reader.terminated()) {
            data.tornBytes = line.size();
            break;
        }
        if (line.empty()) {
            return readError(path, line_no, offset,
                             "empty cell line (truncated write?)");
        }
        SNOOP_TRY_OR(JsonValue cv, parseJson(line), [&](SolveError &&e) {
            return readError(path, line_no, offset,
                             "malformed cell: " + e.message);
        });
        CheckpointCell cell;
        SNOOP_TRY_OR(cell.cell,
                     readIndex(cv.get("cell"), "readSweepCheckpoint",
                               "cell"),
                     atLine);
        if (cell.cell < begin || cell.cell >= end) {
            return readError(
                path, line_no, offset,
                strprintf("cell %zu is outside shard %zu/%zu's range "
                          "[%zu, %zu)",
                          cell.cell, data.shard.index,
                          data.shard.count, begin, end));
        }
        if (have_prev && cell.cell <= prev_cell) {
            return readError(path, line_no, offset,
                             strprintf("cell %zu out of order after "
                                       "%zu (cells must strictly "
                                       "increase)",
                                       cell.cell, prev_cell));
        }
        prev_cell = cell.cell;
        have_prev = true;
        auto ok = cv.get("ok");
        if (ok == nullptr || !ok->isBool()) {
            return readError(path, line_no, offset,
                             "cell has no 'ok' flag");
        }
        cell.ok = ok->asBool();
        if (cell.ok) {
            auto result = cv.get("result");
            if (result == nullptr) {
                return readError(path, line_no, offset,
                                 "ok cell has no 'result'");
            }
            if (auto r = mvaResultFromJson(*result, cell.result); !r) {
                return readError(path, line_no, offset,
                                 r.error().message);
            }
        } else {
            auto error = cv.get("error");
            if (error == nullptr) {
                return readError(path, line_no, offset,
                                 "failed cell has no 'error'");
            }
            if (auto r = solveErrorFromJson(*error, cell.error); !r) {
                return readError(path, line_no, offset,
                                 r.error().message);
            }
        }
        data.cells.push_back(std::move(cell));
        offset += line.size() + 1;
    }
    data.validBytes = offset;
    return data;
}

Expected<void>
applyCheckpoint(const CheckpointData &data, const SweepSpec &spec,
                SweepResult &res)
{
    if (std::string expect = sweepFingerprint(spec);
        data.fingerprint != expect) {
        return makeError(
            SolveErrorCode::InvalidArgument, "applyCheckpoint",
            "checkpoint fingerprint %s does not match this sweep's %s "
            "- the workload, values, protocols, or n changed; refusing "
            "to resume from another sweep's cells",
            data.fingerprint.c_str(), expect.c_str());
    }
    if (!(data.shard == spec.shard)) {
        return makeError(
            SolveErrorCode::InvalidArgument, "applyCheckpoint",
            "checkpoint belongs to shard %zu/%zu, this run is shard "
            "%zu/%zu",
            data.shard.index, data.shard.count, spec.shard.index,
            spec.shard.count);
    }
    const size_t protocols = spec.protocols.size();
    const size_t cells = spec.values.size() * protocols;
    if (data.gridCells != cells ||
        data.protocolMods.size() != protocols) {
        return makeError(
            SolveErrorCode::InvalidArgument, "applyCheckpoint",
            "checkpoint grid (%zu cells, %zu protocols) does not "
            "match this sweep (%zu cells, %zu protocols)",
            data.gridCells, data.protocolMods.size(), cells,
            protocols);
    }
    for (const CheckpointCell &cell : data.cells) {
        size_t v = cell.cell / protocols, p = cell.cell % protocols;
        if (cell.ok) {
            res.results[v][p] = cell.result;
            res.errors[v][p].reset();
        } else {
            res.errors[v][p] = cell.error;
        }
        res.evaluated[v][p] = 1;
    }
    return {};
}

} // namespace snoop
