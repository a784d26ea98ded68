#pragma once

/**
 * @file
 * The snoop_serve wire protocol: line-delimited JSON requests and
 * responses (docs/SERVING.md has the full schema).
 *
 * A request names an operation (`analyze`, `sweep`, `saturation`,
 * `rank`, `stats`, `shutdown`), a protocol configuration, a workload
 * (preset plus field overrides), and per-request admission knobs
 * (time/iteration budgets, cache controls). A `batch` envelope
 * carries several requests to be solved as one deterministic batch.
 * Parsing never throws and never exits: every malformed line becomes
 * a structured InvalidArgument that the daemon turns into an error
 * response.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "protocol/config.hh"
#include "util/json.hh"
#include "util/expected.hh"
#include "workload/params.hh"

namespace snoop {

/** The operations the serve engine implements. */
enum class RequestOp {
    Analyze,    ///< one (protocol, workload, n) solve
    Sweep,      ///< the same query over a list of system sizes
    Saturation, ///< Analyzer::trySaturationPoint
    Rank,       ///< all 16 protocol configurations, sorted by speedup
    Stats,      ///< serve/cache/solver metrics snapshot
    Shutdown,   ///< acknowledge and stop the daemon loop
};

/** Stable wire name of @p op (e.g. "analyze"). */
const char *to_string(RequestOp op);

/** One parsed request. */
struct Request
{
    int64_t id = 0;        ///< echoed verbatim in the response
    RequestOp op = RequestOp::Analyze;
    ProtocolConfig protocol;
    WorkloadParams workload;
    unsigned n = 0;              ///< analyze / rank system size
    std::vector<unsigned> ns;    ///< sweep system sizes
    double target = 0.95;        ///< saturation bus-utilization target
    unsigned limit = 4096;       ///< saturation search bound
    double timeBudget = 0.0;     ///< per-request seconds; 0 = default
    long iterationBudget = 0;    ///< per-request iterations; 0 = default
    bool noCache = false;        ///< bypass lookup AND insertion
    /** Accepted and ignored: every miss is a cold solve. Kept for
     * old clients and perfbench's traced replay. */
    bool noWarmStart = false;
};

/**
 * Parse one request object. Unknown fields, unknown ops, unknown
 * protocols/presets/workload fields, non-finite numbers, and
 * out-of-range values are all InvalidArgument errors naming the
 * offender. The request `id` is recovered even from requests that
 * fail validation later, so the error response still correlates.
 */
Expected<Request> parseRequest(const JsonValue &value);

/**
 * Parse one wire line: either a single request object or a
 * `{"op": "batch", "requests": [...]}` envelope (one level only).
 * Returns the requests in wire order.
 */
Expected<std::vector<Request>> parseRequestLine(const std::string &line);

/**
 * The `id` member of a request line, best effort, for correlating
 * error responses to lines that failed to parse as requests; 0 when
 * even that much cannot be recovered.
 */
int64_t recoverRequestId(const std::string &line);

/** A SolveError as its wire object (code/site/message/context). */
JsonValue errorJson(const SolveError &error);

/** The error response for @p id: {"id":..,"ok":false,"error":{..}}. */
JsonValue errorResponse(int64_t id, const SolveError &error);

/** The success response envelope: {"id":..,"ok":true,"result":..}. */
JsonValue okResponse(int64_t id, RequestOp op, JsonValue result);

} // namespace snoop
