#include "core/sweep.hh"

#include <algorithm>
#include <charconv>
#include <map>
#include <span>
#include <utility>

#include "core/checkpoint.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/contracts.hh"
#include "util/csv.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/strutil.hh"

namespace snoop {

namespace {

const std::map<std::string, ParamSetter> &
setterRegistry()
{
    static const std::map<std::string, ParamSetter> registry = {
        {"tau", [](WorkloadParams &p, double v) { p.tau = v; }},
        {"h_private",
         [](WorkloadParams &p, double v) { p.hPrivate = v; }},
        {"h_sro", [](WorkloadParams &p, double v) { p.hSro = v; }},
        {"h_sw", [](WorkloadParams &p, double v) { p.hSw = v; }},
        {"r_private",
         [](WorkloadParams &p, double v) { p.rPrivate = v; }},
        {"r_sw", [](WorkloadParams &p, double v) { p.rSw = v; }},
        {"amod_private",
         [](WorkloadParams &p, double v) { p.amodPrivate = v; }},
        {"amod_sw", [](WorkloadParams &p, double v) { p.amodSw = v; }},
        {"csupply_sro",
         [](WorkloadParams &p, double v) { p.csupplySro = v; }},
        {"csupply_sw",
         [](WorkloadParams &p, double v) { p.csupplySw = v; }},
        {"wb_csupply",
         [](WorkloadParams &p, double v) { p.wbCsupply = v; }},
        {"rep_p", [](WorkloadParams &p, double v) { p.repP = v; }},
        {"rep_sw", [](WorkloadParams &p, double v) { p.repSw = v; }},
    };
    return registry;
}

} // namespace

ParamSetter
findParamSetter(const std::string &name)
{
    auto it = setterRegistry().find(toLower(trim(name)));
    return it == setterRegistry().end() ? nullptr : it->second;
}

std::vector<std::string>
sweepableParams()
{
    std::vector<std::string> names;
    for (const auto &[name, setter] : setterRegistry())
        names.push_back(name);
    return names;
}

std::pair<size_t, size_t>
ShardSpec::cellRange(size_t cells) const
{
    if (isWhole())
        return {0, cells};
    // cells * index never overflows in practice (grids are small), and
    // the floor division makes the slices contiguous, exhaustive, and
    // disjoint: shard i's end is exactly shard i+1's begin.
    return {cells * index / count, cells * (index + 1) / count};
}

Expected<void>
SweepSpec::validate() const
{
    if (!set) {
        return makeError(SolveErrorCode::InvalidArgument, "SweepSpec",
                         "field 'set': no parameter setter (use "
                         "findParamSetter)");
    }
    if (values.empty()) {
        return makeError(SolveErrorCode::InvalidArgument, "SweepSpec",
                         "field 'values': no values to sweep");
    }
    if (protocols.empty()) {
        return makeError(SolveErrorCode::InvalidArgument, "SweepSpec",
                         "field 'protocols': no protocols to evaluate");
    }
    if (n == 0) {
        return makeError(SolveErrorCode::InvalidArgument, "SweepSpec",
                         "field 'n': need at least one processor");
    }
    if (shard.count == 0 || shard.index >= shard.count) {
        return makeError(SolveErrorCode::InvalidArgument, "SweepSpec",
                         "field 'shard': index %zu of count %zu is not "
                         "a valid shard descriptor",
                         shard.index, shard.count);
    }
    if (checkpointEvery == 0) {
        return makeError(SolveErrorCode::InvalidArgument, "SweepSpec",
                         "field 'checkpointEvery': need at least one "
                         "cell per checkpoint interval");
    }
    return {};
}

namespace {

std::string
protocolHeader(const ProtocolConfig &cfg)
{
    auto names = namesForConfig(cfg);
    return names.empty() ? cfg.name() : names.front();
}

/** The protocol column headers of table(), csv() and cellCsv(). */
std::vector<std::string>
columnLabels(const SweepSpec &spec)
{
    std::vector<std::string> labels;
    labels.reserve(spec.protocols.size());
    for (const ProtocolConfig &cfg : spec.protocols)
        labels.push_back(protocolHeader(cfg));
    return labels;
}

/** @p labels with each one CSV-escaped. */
std::vector<std::string>
csvEscaped(std::vector<std::string> labels)
{
    for (std::string &label : labels)
        label = CsvWriter::escape(label);
    return labels;
}

} // namespace

bool
SweepResult::cellFailed(size_t v, size_t p) const
{
    return v < errors.size() && p < errors[v].size() &&
           errors[v][p].has_value();
}

bool
SweepResult::cellEvaluated(size_t v, size_t p) const
{
    if (evaluated.empty())
        return true; // hand-built results carry no mask
    return v < evaluated.size() && p < evaluated[v].size() &&
           evaluated[v][p] != 0;
}

size_t
SweepResult::evaluatedCount() const
{
    if (evaluated.empty()) {
        size_t cells = 0;
        for (const auto &row : results)
            cells += row.size();
        return cells;
    }
    size_t count = 0;
    for (const auto &row : evaluated)
        count += static_cast<size_t>(
            std::count_if(row.begin(), row.end(),
                          [](char c) { return c != 0; }));
    return count;
}

size_t
SweepResult::failureCount() const
{
    size_t count = 0;
    for (const auto &row : errors) {
        for (const auto &cell : row)
            count += cell.has_value() ? 1 : 0;
    }
    return count;
}

std::vector<std::string>
SweepResult::rowLabels() const
{
    std::vector<std::string> labels;
    labels.reserve(spec.values.size());
    for (double value : spec.values)
        labels.push_back(formatCompact(value, 4));
    return labels;
}

std::string
SweepResult::failureSummary() const
{
    std::vector<std::string> lines;
    for (size_t v = 0; v < errors.size(); ++v) {
        for (size_t p = 0; p < errors[v].size(); ++p) {
            if (!errors[v][p])
                continue;
            lines.push_back(strprintf(
                "%s=%s %s: %s", spec.paramName.c_str(),
                formatCompact(spec.values[v], 4).c_str(),
                protocolHeader(spec.protocols[p]).c_str(),
                errors[v][p]->describe().c_str()));
        }
    }
    return join(lines, "\n");
}

Table
SweepResult::table() const
{
    const std::vector<std::string> rows = rowLabels();
    std::vector<std::string> headers = columnLabels(spec);
    headers.insert(headers.begin(), spec.paramName);
    Table t(std::move(headers));
    t.setTitle(strprintf("speedup at N=%u while sweeping %s", spec.n,
                         spec.paramName.c_str()));
    for (size_t v = 0; v < spec.values.size(); ++v) {
        std::vector<std::string> row;
        row.reserve(spec.protocols.size() + 1);
        row.push_back(rows[v]);
        for (size_t p = 0; p < spec.protocols.size(); ++p) {
            if (!cellEvaluated(v, p))
                row.push_back("·"); // another shard owns this cell
            else if (cellFailed(v, p))
                row.push_back("—");
            else
                row.push_back(formatDouble(results[v][p].speedup, 3));
        }
        t.addRow(std::move(row));
    }
    return t;
}

std::string
SweepResult::csv() const
{
    // Built by hand rather than via table(): machine consumers need
    // "nan" (not an em dash) in failed cells, plus a trailing errors
    // column carrying the structured failure of each error cell.
    const std::vector<std::string> rows = csvEscaped(rowLabels());
    const std::vector<std::string> columns = columnLabels(spec);

    std::string out = CsvWriter::escape(spec.paramName);
    for (const std::string &column : columns) {
        out += ',';
        out += CsvWriter::escape(column);
    }
    out += ",errors\n";

    std::string row_errors;
    for (size_t v = 0; v < spec.values.size(); ++v) {
        out += rows[v];
        row_errors.clear();
        for (size_t p = 0; p < spec.protocols.size(); ++p) {
            out += ',';
            if (!cellEvaluated(v, p))
                continue; // another shard owns this cell
            if (!cellFailed(v, p)) {
                appendDouble(out, results[v][p].speedup, 3);
                continue;
            }
            out += "nan";
            if (!row_errors.empty())
                row_errors += "; ";
            row_errors += columns[p];
            row_errors += ": ";
            row_errors += errors[v][p]->describe();
        }
        out += ',';
        out += CsvWriter::escape(row_errors);
        out += '\n';
    }
    return out;
}

std::string
SweepResult::cellCsv() const
{
    // One line per evaluated cell, walked in global cell order - the
    // concatenation guarantee rides on this loop being a function of
    // the grid alone, never of scheduling or shard boundaries.
    const std::vector<std::string> rows = csvEscaped(rowLabels());
    const std::vector<std::string> columns = csvEscaped(columnLabels(spec));
    const size_t protocols = spec.protocols.size();
    const size_t cells = spec.values.size() * protocols;
    std::string out;
    out.reserve(cells * 40); // "4095,0.1234,WriteOnce+1+2,12.345,\n"
    char index[24];
    for (size_t cell = 0; cell < cells; ++cell) {
        size_t v = cell / protocols, p = cell % protocols;
        if (!cellEvaluated(v, p))
            continue;
        out.append(index,
                   std::to_chars(index, index + sizeof(index), cell).ptr);
        out += ',';
        out += rows[v];
        out += ',';
        out += columns[p];
        out += ',';
        if (cellFailed(v, p)) {
            out += "nan,";
            out += CsvWriter::escape(errors[v][p]->describe());
        } else {
            appendDouble(out, results[v][p].speedup, 3);
            out += ',';
        }
        out += '\n';
    }
    return out;
}

Expected<std::vector<size_t>>
SweepResult::tryWinners() const
{
    std::vector<size_t> out;
    out.reserve(results.size());
    for (size_t v = 0; v < results.size(); ++v) {
        const auto &row = results[v];
        if (row.empty()) {
            return makeError(SolveErrorCode::InvalidArgument,
                             "SweepResult::winners",
                             "row %zu has no protocol results", v);
        }
        // Ties resolve to the lowest protocol index (the column order
        // of SweepSpec::protocols), so winners() is deterministic.
        // Error cells never win; a row of only error cells yields
        // kNoWinner.
        size_t best = kNoWinner;
        for (size_t p = 0; p < row.size(); ++p) {
            if (!cellEvaluated(v, p)) {
                return makeError(
                    SolveErrorCode::InvalidArgument,
                    "SweepResult::winners",
                    "cell (%zu, %zu) was never evaluated - winners() "
                    "needs the whole grid, not one shard's slice "
                    "(merge the shards first)", v, p);
            }
            if (cellFailed(v, p))
                continue;
            if (best == kNoWinner || row[p].speedup > row[best].speedup)
                best = p;
        }
        out.push_back(best);
    }
    return out;
}

std::vector<size_t>
SweepResult::winners() const
{
    return tryWinners().orThrow();
}

Expected<SweepResult>
tryRunSweep(const SweepSpec &spec, const Analyzer &analyzer)
{
    if (auto valid = spec.validate(); !valid)
        return valid.error();
    SweepResult res;
    res.spec = spec;
    // Pre-sized result grid: each (value, protocol) cell is written by
    // exactly one worker, so the output is bit-identical to the serial
    // path regardless of thread count (the determinism contract of
    // util/parallel.hh).
    const size_t num_protocols = spec.protocols.size();
    const size_t grid_cells = spec.values.size() * num_protocols;
    res.results.assign(spec.values.size(),
                       std::vector<MvaResult>(num_protocols));
    res.errors.assign(
        spec.values.size(),
        std::vector<std::optional<SolveError>>(num_protocols));
    res.evaluated.assign(spec.values.size(),
                         std::vector<char>(num_protocols, 0));

    const bool checkpointing = !spec.checkpointPath.empty();
    CheckpointLog writer(spec);
    if (checkpointing && checkpointExists(spec.checkpointPath)) {
        SNOOP_TRY_OR(const CheckpointData &data,
                     readSweepCheckpoint(spec.checkpointPath),
                     [](SolveError &&e) {
                         return std::move(e).withContext(
                             "resuming sweep from its checkpoint");
                     });
        if (auto applied = applyCheckpoint(data, spec, res);
            !applied) {
            SolveError err = applied.error();
            err.withContext(strprintf("resuming sweep from '%s'",
                                      spec.checkpointPath.c_str()));
            return err;
        }
        if (auto adopted = writer.resume(data); !adopted)
            return adopted.error();
        inform("runSweep: resumed %zu completed cells from '%s'",
               res.evaluatedCount(), spec.checkpointPath.c_str());
        metricAdd("sweep.resumed_cells",
                  static_cast<double>(res.evaluatedCount()));
    }

    // The work list: this shard's slice of the grid, minus whatever
    // the checkpoint already settled. Cell order (and so batch
    // boundaries) is a pure function of the grid and the resume
    // point - never of scheduling.
    auto [begin, end] = spec.shard.cellRange(grid_cells);
    std::vector<size_t> pending;
    pending.reserve(end - begin);
    for (size_t cell = begin; cell < end; ++cell) {
        if (!res.evaluated[cell / num_protocols][cell % num_protocols])
            pending.push_back(cell);
    }

    ScopedMetricTimer sweep_timer("sweep.run_us");
    TraceSpan sweep_span(TraceLevel::Phase, "sweep.run", grid_cells);
    const size_t batch_size =
        checkpointing ? spec.checkpointEvery : pending.size();
    size_t checkpoint_ordinal = 0;
    for (size_t start = 0; start < pending.size();
         start += batch_size) {
        const size_t batch =
            std::min(batch_size, pending.size() - start);
        // Admission (serial, in cell order): keyed fault checks,
        // workload construction, and per-cell trace identity are a
        // pure function of the grid; the SoA batch engine then solves
        // every admitted cell in lockstep (parallel across lane
        // blocks), bit-identical to the old per-cell scalar solves at
        // any SNOOP_JOBS. Admission failures are caught *here*: an
        // exception escaping into the batch would cancel the
        // remaining cells, which is exactly the blast radius fault
        // isolation exists to prevent.
        std::vector<AnalysisRequest> requests;
        requests.reserve(batch);
        std::vector<size_t> request_cell;
        request_cell.reserve(batch);
        for (size_t i = 0; i < batch; ++i) {
            const size_t idx = pending[start + i];
            size_t v = idx / num_protocols;
            size_t p = idx % num_protocols;
            metricAdd("sweep.cells");
            try {
                if (faultFires("sweep.cell", idx))
                    throw SolveException(
                        injectedFault("sweep.cell", idx));
                WorkloadParams wl = spec.base;
                spec.set(wl, spec.values[v]);
                // The cell index is the same schedule-independent key
                // the fault layer uses, so the cell's solver events
                // group by work item and the event set stays
                // bit-identical at any SNOOP_JOBS.
                requests.push_back(AnalysisRequest{
                    spec.protocols[p], wl, spec.n, MvaSeed{},
                    idx + 1});
                request_cell.push_back(idx);
            } catch (const SolveException &e) {
                res.errors[v][p] = e.error();
            } catch (const std::exception &e) {
                res.errors[v][p] = makeError(
                    SolveErrorCode::Internal, "runSweep",
                    "unexpected exception in cell (%zu, %zu): %s", v,
                    p, e.what());
            }
        }
        auto solved = analyzer.tryAnalyzeBatch(requests);
        for (size_t k = 0; k < solved.size(); ++k) {
            const size_t idx = request_cell[k];
            size_t v = idx / num_protocols;
            size_t p = idx % num_protocols;
            std::move(solved[k]).match(
                [&](MvaResult &&r) { res.results[v][p] = std::move(r); },
                [&](SolveError &&e) { res.errors[v][p] = std::move(e); });
        }
        // Per-cell bookkeeping (serial, in cell order): the
        // sweep.cell span with its outcome args, and the error
        // counter.
        for (size_t i = 0; i < batch; ++i) {
            const size_t idx = pending[start + i];
            size_t v = idx / num_protocols;
            size_t p = idx % num_protocols;
            if (res.errors[v][p])
                metricAdd("sweep.errors");
            TraceTaskScope task(idx + 1);
            TraceSpan cell_span(TraceLevel::Phase, "sweep.cell", idx);
            if (cell_span.active()) {
                cell_span.setArgs(
                    strprintf("\"v\":%zu,\"p\":%zu,\"ok\":%s", v, p,
                              res.errors[v][p] ? "false" : "true"));
            }
        }
        // Mark the batch evaluated *after* the barrier, serially:
        // vector<char> rows are written cell-wise by workers only for
        // results/errors; the mask itself never sees concurrent
        // writes.
        for (size_t i = 0; i < batch; ++i) {
            const size_t idx = pending[start + i];
            res.evaluated[idx / num_protocols][idx % num_protocols] =
                1;
        }
        if (checkpointing) {
            ++checkpoint_ordinal;
            SNOOP_TRY_OR(
                uint64_t written,
                writer.commit(res, std::span(pending).subspan(start, batch)),
                [](SolveError &&e) {
                    return std::move(e).withContext(
                        "checkpointing sweep progress (completed work up "
                        "to the previous commit survives)");
                });
            metricAdd("sweep.checkpoints");
            metricAdd("sweep.checkpoint_bytes",
                      static_cast<double>(written));
            // The chaos harness's crash point: the commit above
            // SUCCEEDED, so aborting here is exactly "the process
            // died between checkpoints" - the strongest point to
            // prove resume from (docs/SHARDING.md).
            if (faultFires("sweep.checkpoint", checkpoint_ordinal)) {
                return injectedFault("sweep.checkpoint",
                                     checkpoint_ordinal)
                    .withContext(strprintf(
                        "sweep aborted after checkpoint %zu of '%s' "
                        "(chaos harness crash point; resume to "
                        "continue)",
                        checkpoint_ordinal,
                        spec.checkpointPath.c_str()));
            }
        }
    }
    if (size_t failed = res.failureCount(); failed > 0) {
        warn("runSweep: %zu of %zu cells failed:\n%s", failed,
             res.evaluatedCount(), res.failureSummary().c_str());
    }
    return res;
}

SweepResult
runSweep(const SweepSpec &spec, const Analyzer &analyzer)
{
    return tryRunSweep(spec, analyzer).orThrow();
}

} // namespace snoop
