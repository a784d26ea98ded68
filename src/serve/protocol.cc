#include "serve/protocol.hh"

#include <cmath>
#include <optional>

#include "protocol/catalog.hh"

namespace snoop {

const char *
to_string(RequestOp op)
{
    switch (op) {
      case RequestOp::Analyze: return "analyze";
      case RequestOp::Sweep: return "sweep";
      case RequestOp::Saturation: return "saturation";
      case RequestOp::Rank: return "rank";
      case RequestOp::Stats: return "stats";
      case RequestOp::Shutdown: return "shutdown";
    }
    return "unknown";
}

namespace {

SolveError
badRequest(const char *fmt, auto... args)
{
    return makeError(SolveErrorCode::InvalidArgument,
                     "serve::parseRequest", fmt, args...);
}

/** The workload fields a request may override, by wire name. */
struct WorkloadField
{
    const char *name;
    double WorkloadParams::*member;
};

constexpr WorkloadField kWorkloadFields[] = {
    {"tau", &WorkloadParams::tau},
    {"pPrivate", &WorkloadParams::pPrivate},
    {"pSro", &WorkloadParams::pSro},
    {"pSw", &WorkloadParams::pSw},
    {"hPrivate", &WorkloadParams::hPrivate},
    {"hSro", &WorkloadParams::hSro},
    {"hSw", &WorkloadParams::hSw},
    {"rPrivate", &WorkloadParams::rPrivate},
    {"rSw", &WorkloadParams::rSw},
    {"amodPrivate", &WorkloadParams::amodPrivate},
    {"amodSw", &WorkloadParams::amodSw},
    {"csupplySro", &WorkloadParams::csupplySro},
    {"csupplySw", &WorkloadParams::csupplySw},
    {"wbCsupply", &WorkloadParams::wbCsupply},
    {"repP", &WorkloadParams::repP},
    {"repSw", &WorkloadParams::repSw},
};

std::optional<SolveError>
parsePreset(const std::string &name, WorkloadParams &out)
{
    if (name == "appendixA1")
        out = presets::appendixA(SharingLevel::OnePercent);
    else if (name == "appendixA5")
        out = presets::appendixA(SharingLevel::FivePercent);
    else if (name == "appendixA20")
        out = presets::appendixA(SharingLevel::TwentyPercent);
    else if (name == "stress")
        out = presets::stressTest();
    else if (name == "highSharing")
        out = presets::highSharing();
    else
        return badRequest("unknown workload preset '%s'", name.c_str());
    return std::nullopt;
}

std::optional<SolveError>
parseWorkload(const JsonValue &req, WorkloadParams &out)
{
    if (const JsonValue *preset = req.get("preset")) {
        if (!preset->isString())
            return badRequest("'preset' must be a string");
        if (auto err = parsePreset(preset->asString(), out))
            return err;
    }
    const JsonValue *wl = req.get("workload");
    if (wl == nullptr)
        return std::nullopt;
    if (!wl->isObject())
        return badRequest("'workload' must be an object");
    for (const auto &[name, value] : wl->asObject()) {
        const WorkloadField *field = nullptr;
        for (const auto &f : kWorkloadFields) {
            if (name == f.name) {
                field = &f;
                break;
            }
        }
        if (field == nullptr) {
            return badRequest("unknown workload field '%s'",
                              name.c_str());
        }
        if (!value.isNumber()) {
            return badRequest("workload field '%s' must be a number",
                              name.c_str());
        }
        double v = value.asNumber();
        // Admission control: a NaN/inf here would sail through
        // validation ranges downstream (docs/CORRECTNESS.md).
        if (!std::isfinite(v)) {
            return badRequest("workload field '%s' = %g is not finite",
                              name.c_str(), v);
        }
        out.*(field->member) = v;
    }
    return std::nullopt;
}

std::optional<SolveError>
parseUnsignedField(const JsonValue &req, const char *name,
                   unsigned max_value, unsigned &out)
{
    const JsonValue *v = req.get(name);
    if (v == nullptr)
        return std::nullopt;
    if (!v->isNumber())
        return badRequest("'%s' must be a number", name);
    double d = v->asNumber();
    if (!(d >= 1.0) || d > max_value || d != std::floor(d)) {
        return badRequest("'%s' = %g must be an integer in [1, %u]",
                          name, d, max_value);
    }
    out = static_cast<unsigned>(d);
    return std::nullopt;
}

/** System sizes above this bound are a typo, not a machine. */
constexpr unsigned kMaxN = 1u << 20;

/** Whether @p d truncates to an int64_t: a cast from outside
 * [-2^63, 2^63) is undefined behaviour. */
bool
fitsInt64(double d)
{
    return d >= -0x1p63 && d < 0x1p63;
}

} // namespace

Expected<Request>
parseRequest(const JsonValue &value)
{
    if (!value.isObject())
        return badRequest("request must be a JSON object");

    Request req;
    if (const JsonValue *id = value.get("id")) {
        if (!id->isNumber())
            return badRequest("'id' must be a number");
        if (!fitsInt64(id->asNumber())) {
            return badRequest("'id' = %g is outside the 64-bit integer "
                              "range", id->asNumber());
        }
        req.id = static_cast<int64_t>(id->asNumber());
    }

    const JsonValue *op = value.get("op");
    if (op == nullptr || !op->isString())
        return badRequest("missing 'op' string");
    const std::string &op_name = op->asString();
    if (op_name == "analyze")
        req.op = RequestOp::Analyze;
    else if (op_name == "sweep")
        req.op = RequestOp::Sweep;
    else if (op_name == "saturation")
        req.op = RequestOp::Saturation;
    else if (op_name == "rank")
        req.op = RequestOp::Rank;
    else if (op_name == "stats")
        req.op = RequestOp::Stats;
    else if (op_name == "shutdown")
        req.op = RequestOp::Shutdown;
    else
        return badRequest("unknown op '%s'", op_name.c_str());

    if (req.op == RequestOp::Stats || req.op == RequestOp::Shutdown)
        return req;

    // Protocol: required for the per-configuration ops; rank spans
    // all 16 configurations itself.
    if (req.op != RequestOp::Rank) {
        const JsonValue *proto = value.get("protocol");
        if (proto == nullptr || !proto->isString())
            return badRequest("missing 'protocol' string");
        auto found = findProtocol(proto->asString());
        if (!found) {
            return makeError(SolveErrorCode::UnknownProtocol,
                             "serve::parseRequest",
                             "unknown protocol '%s'",
                             proto->asString().c_str());
        }
        req.protocol = *found;
    }

    if (auto err = parseWorkload(value, req.workload))
        return std::move(*err);

    if (req.op == RequestOp::Analyze || req.op == RequestOp::Rank) {
        if (value.get("n") == nullptr)
            return badRequest("missing 'n'");
        if (auto err = parseUnsignedField(value, "n", kMaxN, req.n))
            return std::move(*err);
    }

    if (req.op == RequestOp::Sweep) {
        const JsonValue *ns = value.get("ns");
        if (ns == nullptr || !ns->isArray() || ns->asArray().empty())
            return badRequest("missing non-empty 'ns' array");
        for (const JsonValue &item : ns->asArray()) {
            if (!item.isNumber())
                return badRequest("'ns' entries must be numbers");
            double d = item.asNumber();
            if (!(d >= 1.0) || d > kMaxN || d != std::floor(d)) {
                return badRequest(
                    "'ns' entry %g must be an integer in [1, %u]", d,
                    kMaxN);
            }
            req.ns.push_back(static_cast<unsigned>(d));
        }
    }

    if (req.op == RequestOp::Saturation) {
        if (const JsonValue *target = value.get("target")) {
            if (!target->isNumber())
                return badRequest("'target' must be a number");
            req.target = target->asNumber();
            // NaN-proof form: !(x > 0 && x <= 1) catches NaN, where
            // the complementary (x <= 0 || x > 1) lets it through.
            if (!(req.target > 0.0 && req.target <= 1.0)) {
                return badRequest("'target' = %g must be in (0, 1]",
                                  req.target);
            }
        }
        if (auto err =
                parseUnsignedField(value, "limit", kMaxN, req.limit))
            return std::move(*err);
    }

    if (const JsonValue *budget = value.get("timeBudget")) {
        if (!budget->isNumber() || !(budget->asNumber() >= 0.0))
            return badRequest("'timeBudget' must be a number >= 0");
        req.timeBudget = budget->asNumber();
    }
    if (const JsonValue *budget = value.get("iterationBudget")) {
        if (!budget->isNumber() || !(budget->asNumber() >= 0.0) ||
            budget->asNumber() !=
                std::floor(budget->asNumber()) ||
            !fitsInt64(budget->asNumber())) {
            return badRequest(
                "'iterationBudget' must be a non-negative integer");
        }
        req.iterationBudget = static_cast<long>(budget->asNumber());
    }
    if (const JsonValue *flag = value.get("noCache")) {
        if (!flag->isBool())
            return badRequest("'noCache' must be a bool");
        req.noCache = flag->asBool();
    }
    if (const JsonValue *flag = value.get("noWarmStart")) {
        if (!flag->isBool())
            return badRequest("'noWarmStart' must be a bool");
        req.noWarmStart = flag->asBool();
    }
    return req;
}

Expected<std::vector<Request>>
parseRequestLine(const std::string &line)
{
    SNOOP_TRY(const JsonValue &value, parseJson(line));

    std::vector<Request> out;
    const JsonValue *op = value.get("op");
    if (op != nullptr && op->isString() && op->asString() == "batch") {
        const JsonValue *requests = value.get("requests");
        if (requests == nullptr || !requests->isArray() ||
            requests->asArray().empty()) {
            return badRequest(
                "batch envelope needs a non-empty 'requests' array");
        }
        for (const JsonValue &item : requests->asArray()) {
            SNOOP_TRY(Request req, parseRequest(item));
            if (req.op == RequestOp::Shutdown) {
                return badRequest(
                    "'shutdown' cannot ride inside a batch");
            }
            out.push_back(std::move(req));
        }
        return out;
    }

    SNOOP_TRY(Request req, parseRequest(value));
    out.push_back(std::move(req));
    return out;
}

int64_t
recoverRequestId(const std::string &line)
{
    SNOOP_TRY_OR(const JsonValue &doc, parseJson(line),
                 [](SolveError &&) { return int64_t{0}; });
    const JsonValue *id = doc.get("id");
    if (id == nullptr || !id->isNumber() || !fitsInt64(id->asNumber()))
        return 0;
    return static_cast<int64_t>(id->asNumber());
}

JsonValue
errorJson(const SolveError &error)
{
    // The wire shape is the shared SolveError codec (util/json.hh),
    // which the sweep checkpoint format also round-trips through.
    return solveErrorToJson(error);
}

JsonValue
errorResponse(int64_t id, const SolveError &error)
{
    JsonValue::Object obj;
    obj["id"] = JsonValue(static_cast<double>(id));
    obj["ok"] = JsonValue(false);
    obj["error"] = errorJson(error);
    return JsonValue(std::move(obj));
}

JsonValue
okResponse(int64_t id, RequestOp op, JsonValue result)
{
    JsonValue::Object obj;
    obj["id"] = JsonValue(static_cast<double>(id));
    obj["ok"] = JsonValue(true);
    obj["op"] = JsonValue(to_string(op));
    obj["result"] = std::move(result);
    return JsonValue(std::move(obj));
}

} // namespace snoop
