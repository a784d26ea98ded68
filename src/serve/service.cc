#include "serve/service.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "observe/metrics.hh"
#include "util/fault.hh"
#include "util/parallel.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

/**
 * The fields an analyze, sweep or rank answer publishes, copied out
 * of a cache hit or a fresh solve: no attempts vector, no
 * DerivedInputs.
 */
struct Published
{
    unsigned n = 0;
    double speedup = 0.0;
    double processingPower = 0.0;
    double responseTime = 0.0;
    double busUtil = 0.0;
    double memUtil = 0.0;
    double wBus = 0.0;
    double wMem = 0.0;
    double qBus = 0.0;
    int iterations = 0;
    bool converged = false;

    static Published of(const MvaResult &r)
    {
        return {r.numProcessors, r.speedup, r.processingPower,
                r.responseTime, r.busUtil, r.memUtil, r.wBus, r.wMem,
                r.qBus, r.iterations, r.converged};
    }
};

} // namespace

/**
 * One solve unit of a batch: analyze has one, sweep one per system
 * size, rank one per protocol configuration. Cells are admitted
 * serially, solved in parallel by index, and harvested serially - the
 * struct is sized before the parallel phase and no field is shared
 * between workers.
 */
struct SolveService::Cell
{
    size_t request = 0;      ///< index into the batch
    ProtocolConfig protocol; ///< configuration this cell solves
    unsigned n = 0;          ///< system size this cell solves

    // filled by the serial admission phase
    CacheKey key;            ///< canonical identity (when hasKey)
    bool hasKey = false;     ///< false = noCache or admission failed
    bool cached = false;     ///< exact hit: fields copied, no solve
    /** Set iff the cell failed (result is then not valid). */
    std::optional<SolveError> error;

    // filled by the solve phase (or from the hit)
    Published result;
};

namespace {

/** Per-request bookkeeping: which cells belong to which response. */
struct RequestPlan
{
    std::optional<SolveError> error; ///< request-level admission failure
    size_t firstCell = 0; ///< contiguous cell range [first, first+count)
    size_t cellCount = 0;
};

const char *
boolText(bool b)
{
    return b ? "true" : "false";
}

/** okResponse(id, op, result)'s bytes up to the result value. */
void
openOk(std::string &out, int64_t id, RequestOp op)
{
    out += "{\"id\":";
    serializeNumber(static_cast<double>(id), out);
    out += ",\"ok\":true,\"op\":\"";
    out += to_string(op);
    out += "\",\"result\":";
}

/**
 * One answer's result object, in serializeJson's sorted key order.
 * A sweep or rank cell names its @p protocol, which adds "ok" and
 * "protocol" in their sorted places; an analyze result passes none.
 */
void
writeResult(std::string &out, const Published &r, bool cached,
            const std::string *protocol)
{
    out += "{\"busUtil\":";
    serializeNumber(r.busUtil, out);
    out += ",\"cached\":";
    out += boolText(cached);
    out += ",\"converged\":";
    out += boolText(r.converged);
    out += ",\"iterations\":";
    serializeNumber(r.iterations, out);
    out += ",\"memUtil\":";
    serializeNumber(r.memUtil, out);
    out += ",\"n\":";
    serializeNumber(r.n, out);
    if (protocol != nullptr)
        out += ",\"ok\":true";
    out += ",\"processingPower\":";
    serializeNumber(r.processingPower, out);
    if (protocol != nullptr) {
        out += ",\"protocol\":";
        serializeString(*protocol, out);
    }
    out += ",\"qBus\":";
    serializeNumber(r.qBus, out);
    out += ",\"responseTime\":";
    serializeNumber(r.responseTime, out);
    out += ",\"speedup\":";
    serializeNumber(r.speedup, out);
    out += ",\"wBus\":";
    serializeNumber(r.wBus, out);
    out += ",\"wMem\":";
    serializeNumber(r.wMem, out);
    // Every miss solves cold, so this is always false; the key stays
    // for clients and perfbench's byte-for-byte mirror of this object.
    out += ",\"warmStarted\":false}";
}

/** One sweep or rank cell: its result, or its error. */
void
writeCell(std::string &out, const SolveService::Cell &cell)
{
    const std::string protocol = cell.protocol.name();
    if (!cell.error) {
        writeResult(out, cell.result, cell.cached, &protocol);
        return;
    }
    out += "{\"error\":";
    serializeJson(errorJson(*cell.error), out);
    out += ",\"n\":";
    serializeNumber(cell.n, out);
    out += ",\"ok\":false,\"protocol\":";
    serializeString(protocol, out);
    out.push_back('}');
}

/** A sweep's or rank's response line: {"<member>":[cells...]}. */
void
writeCells(std::string &out, int64_t id, RequestOp op, const char *member,
           const std::vector<SolveService::Cell> &cells,
           const std::vector<size_t> &order)
{
    openOk(out, id, op);
    out += "{\"";
    out += member;
    out += "\":[";
    for (size_t k = 0; k < order.size(); ++k) {
        if (k > 0)
            out.push_back(',');
        writeCell(out, cells[order[k]]);
    }
    out += "]}}";
}

} // namespace

SolveService::SolveService(ServeOptions opts)
    : opts_(std::move(opts)),
      analyzer_(opts_.solver, opts_.timing),
      cache_(opts_.cacheCapacity, opts_.quantum)
{
    SNOOP_REQUIRE(opts_.cacheCapacity >= 1,
                  "SolveService: cacheCapacity must be >= 1");
    SNOOP_REQUIRE(
        std::isfinite(opts_.maxTimeBudget) && opts_.maxTimeBudget >= 0.0,
        "SolveService: maxTimeBudget must be finite and >= 0");
    SNOOP_REQUIRE(opts_.maxIterationBudget >= 0,
                  "SolveService: maxIterationBudget must be >= 0");
    // Validate the solver options once, up front: MvaSolver's ctor is
    // the authority, and the parallel phase must never throw.
    MvaSolver probe(opts_.solver);
    (void)probe;
}

MvaOptions
SolveService::cellSolverOptions(const Request &request) const
{
    MvaOptions opts = opts_.solver;
    // Admission control: the request can tighten the service ceiling,
    // never exceed it.
    opts.timeBudget = opts_.maxTimeBudget;
    if (request.timeBudget > 0.0 &&
        (opts.timeBudget == 0.0 || request.timeBudget < opts.timeBudget))
        opts.timeBudget = request.timeBudget;
    opts.iterationBudget = opts_.maxIterationBudget;
    if (request.iterationBudget > 0 &&
        (opts.iterationBudget == 0 ||
         request.iterationBudget < opts.iterationBudget))
        opts.iterationBudget = request.iterationBudget;
    return opts;
}

std::string
SolveService::handle(const Request &request)
{
    return std::move(handleBatch({&request, 1}).front());
}

std::vector<std::string>
SolveService::handleBatch(std::span<const Request> requests)
{
    ScopedMetricTimer batch_timer("serve.batch_us");
    metricAdd("serve.requests", static_cast<double>(requests.size()));
    requestsServed_ += requests.size();

    // --- Phase 1 (serial): admission and cache reads.
    // Every cache access happens here, against the pre-batch state,
    // in request order - the reads are a pure function of the request
    // history, independent of SNOOP_JOBS.
    std::vector<RequestPlan> plans(requests.size());
    std::vector<Cell> cells;
    for (size_t ri = 0; ri < requests.size(); ++ri) {
        const Request &req = requests[ri];
        RequestPlan &plan = plans[ri];
        plan.firstCell = cells.size();

        bool solves = req.op == RequestOp::Analyze ||
            req.op == RequestOp::Sweep || req.op == RequestOp::Rank;
        if (!solves)
            continue;

        if (auto ok = req.workload.check(); !ok) {
            plan.error = SolveError(ok.error())
                             .withContext(strprintf(
                                 "serve::%s(id=%lld)", to_string(req.op),
                                 static_cast<long long>(req.id)));
            continue;
        }

        auto addCell = [&](const ProtocolConfig &protocol, unsigned n) {
            Cell cell;
            cell.request = ri;
            cell.protocol = protocol;
            cell.n = n;
            if (!req.noCache) {
                canonicalKey(protocol, req.workload, n, cache_.quantum())
                    .match(
                        [&](const CacheKey &key) {
                            cell.key = key;
                            cell.hasKey = true;
                            if (const MvaResult *hit = cache_.find(key)) {
                                cell.cached = true;
                                cell.result = Published::of(*hit);
                                metricAdd("serve.hits");
                                return;
                            }
                            metricAdd("serve.misses");
                        },
                        [&](SolveError &&e) { cell.error = std::move(e); });
            }
            cells.push_back(std::move(cell));
        };

        switch (req.op) {
          case RequestOp::Analyze:
            addCell(req.protocol, req.n);
            break;
          case RequestOp::Sweep:
            for (unsigned n : req.ns)
                addCell(req.protocol, n);
            break;
          case RequestOp::Rank:
            for (unsigned idx = 0; idx < kProtocolCount; ++idx)
                addCell(ProtocolConfig::fromIndex(idx), req.n);
            break;
          default:
            break;
        }
        plan.cellCount = cells.size() - plan.firstCell;
    }

    // --- Phase 2: the solves, through the SoA batch engine. Job
    // admission (fault keys, workload derivation, per-request budget
    // options) runs serially in cell order; only the lockstep kernel
    // parallelizes, across lane blocks. Per-lane results are
    // bit-identical to the old per-cell scalar solves at any
    // SNOOP_JOBS, and the fault key stays the request id
    // (schedule-independent), so injected failures are identical at
    // any thread count.
    std::vector<MvaJob> jobs;
    jobs.reserve(cells.size());
    std::vector<size_t> job_cell;
    job_cell.reserve(cells.size());
    for (size_t ci = 0; ci < cells.size(); ++ci) {
        Cell &cell = cells[ci];
        if (cell.cached || cell.error)
            continue;
        const Request &req = requests[cell.request];
        if (faultFires("serve.request",
                       static_cast<uint64_t>(req.id))) {
            cell.error = injectedFault(
                "serve.request", static_cast<uint64_t>(req.id));
            continue;
        }
        MvaJob job;
        job.inputs = DerivedInputs::compute(req.workload, cell.protocol,
                                            opts_.timing);
        job.n = cell.n;
        job.opts = cellSolverOptions(req);
        job.traceKey = static_cast<uint64_t>(req.id) + 1;
        jobs.push_back(std::move(job));
        job_cell.push_back(ci);
    }
    std::vector<Expected<MvaResult>> solved;
    {
        ScopedMetricTimer solve_timer("serve.solve_us");
        solved = batch_.solveBatch(jobs);
    }

    // --- Phase 3 (serial): harvest and insert in job (= cell =
    // request) order, each success moved into the cache. No cache
    // read is left in the batch, so inserting while harvesting gives
    // the order, and the cache state, of inserting afterwards.
    for (size_t k = 0; k < solved.size(); ++k) {
        Cell &cell = cells[job_cell[k]];
        const Request &req = requests[cell.request];
        std::move(solved[k]).match(
            [&](MvaResult &&r) {
                cell.result = Published::of(r);
                metricAdd("serve.cold_iterations", r.iterations);
                if (cell.hasKey)
                    cache_.insert(cell.key, std::move(r));
            },
            [&](SolveError &&e) {
                cell.error = std::move(e).withContext(
                    strprintf("serve::%s(id=%lld, %s, N=%u)",
                              to_string(req.op),
                              static_cast<long long>(req.id),
                              cell.protocol.name().c_str(), cell.n));
            });
    }

    // --- Phase 4 (serial): response assembly in request order.
    // Analyze, sweep and rank answers are written field by field
    // into their lines; the rare ops and errors go through a tree.
    std::vector<std::string> responses(requests.size());
    for (size_t ri = 0; ri < requests.size(); ++ri) {
        const Request &req = requests[ri];
        const RequestPlan &plan = plans[ri];
        std::string &line = responses[ri];
        ScopedMetricTimer request_timer("serve.request_us");

        if (plan.error) {
            serializeJson(errorResponse(req.id, *plan.error), line);
            continue;
        }

        switch (req.op) {
          case RequestOp::Analyze: {
            const Cell &cell = cells[plan.firstCell];
            if (cell.error) {
                serializeJson(errorResponse(req.id, *cell.error), line);
                break;
            }
            line.reserve(384);
            openOk(line, req.id, req.op);
            writeResult(line, cell.result, cell.cached, nullptr);
            line.push_back('}');
            break;
          }
          case RequestOp::Sweep: {
            // Per-cell isolation: one failed size becomes an error
            // cell, the rest of the sweep still answers.
            std::vector<size_t> order;
            for (size_t c = 0; c < plan.cellCount; ++c)
                order.push_back(plan.firstCell + c);
            writeCells(line, req.id, req.op, "cells", cells, order);
            break;
          }
          case RequestOp::Rank: {
            // Succeeded configurations sorted by speedup (descending,
            // protocol index breaking exact ties), failed ones last
            // in index order - a total, deterministic order.
            std::vector<size_t> order;
            for (size_t c = 0; c < plan.cellCount; ++c)
                order.push_back(plan.firstCell + c);
            std::stable_sort(
                order.begin(), order.end(), [&](size_t a, size_t b) {
                    const Cell &ca = cells[a], &cb = cells[b];
                    if (ca.error.has_value() != cb.error.has_value())
                        return !ca.error;
                    if (ca.error)
                        return false;
                    return ca.result.speedup > cb.result.speedup;
                });
            writeCells(line, req.id, req.op, "ranking", cells, order);
            break;
          }
          case RequestOp::Saturation: {
            // Uncached: the binary search probes dozens of sizes and
            // its answer is one integer, not a reusable solution.
            if (faultFires("serve.request",
                           static_cast<uint64_t>(req.id))) {
                serializeJson(
                    errorResponse(req.id,
                                  injectedFault(
                                      "serve.request",
                                      static_cast<uint64_t>(req.id))),
                    line);
                break;
            }
            serializeJson(
                analyzer_
                    .trySaturationPoint(req.protocol, req.workload,
                                        req.target, req.limit)
                    .match(
                        [&](unsigned knee) {
                            JsonValue::Object result;
                            result["n"] = JsonValue(knee);
                            result["found"] = JsonValue(knee > 0);
                            result["target"] = JsonValue(req.target);
                            return okResponse(
                                req.id, req.op,
                                JsonValue(std::move(result)));
                        },
                        [&](SolveError &&e) {
                            return errorResponse(req.id, std::move(e));
                        }),
                line);
            break;
          }
          case RequestOp::Stats:
            serializeJson(okResponse(req.id, req.op, statsResult()),
                          line);
            break;
          case RequestOp::Shutdown: {
            JsonValue::Object result;
            result["shutdown"] = JsonValue(true);
            serializeJson(okResponse(req.id, req.op,
                                     JsonValue(std::move(result))),
                          line);
            break;
          }
        }
    }
    return responses;
}

JsonValue
SolveService::statsResult() const
{
    JsonValue::Object cache;
    cache["size"] = JsonValue(static_cast<double>(cache_.size()));
    cache["capacity"] =
        JsonValue(static_cast<double>(cache_.capacity()));
    cache["evictions"] =
        JsonValue(static_cast<double>(cache_.evictions()));
    cache["quantum"] = JsonValue(cache_.quantum());

    JsonValue::Object counters;
    for (const MetricEntry &entry : metrics().snapshot()) {
        JsonValue::Object m;
        m["count"] = JsonValue(static_cast<double>(entry.count));
        m["total"] = JsonValue(entry.total);
        counters[entry.name] = JsonValue(std::move(m));
    }

    JsonValue::Object result;
    result["requests"] =
        JsonValue(static_cast<double>(requestsServed_));
    result["cache"] = JsonValue(std::move(cache));
    result["metrics"] = JsonValue(std::move(counters));
    return JsonValue(std::move(result));
}

} // namespace snoop
