/**
 * Deterministic hostile-input test for the JSON codec and the serve
 * request decoder (util/json.hh, serve/protocol.hh). SplitMix64-seeded
 * mutations of the serve fixtures' lines - byte flips, truncations,
 * splices, deep nesting, long and signed numbers, hostile fragments
 * and injected request fields - go through parseJson,
 * parseRequestLine and recoverRequestId. Every input must end in a
 * value or a structured error, every accepted document must
 * re-serialize to a fixed point, and every accepted request must hold
 * the values its line asked for. Inputs that once broke a rule are
 * kept below as named seeds.
 */

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hh"
#include "serve/protocol.hh"
#include "util/json.hh"

namespace snoop {
namespace {

/** Request and response lines of the serve fixtures, plus a few
 * hand-written requests for the ops the fixtures do not use. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> lines = {
        R"({"id":1,"op":"saturation","protocol":"13","preset":"stress","target":0.9,"limit":512})",
        R"({"id":2,"op":"sweep","protocol":"Berkeley","preset":"highSharing","ns":[1,2,4,8],"timeBudget":0.5})",
        R"({"op":"batch","requests":[{"id":3,"op":"stats"},{"id":4,"op":"rank","preset":"appendixA1","n":12,"noCache":true}]})",
        R"({"id":5,"op":"analyze","protocol":"write-once","workload":{"tau":2.5,"pSw":0.01},"n":4,"iterationBudget":40,"noWarmStart":false})",
        R"({"id":6,"op":"shutdown"})",
        R"(["é😀\n\t\"\\\/",-0,1e-310,5e-324,true,null,{}])",
    };
    for (const char *name : {"evict_requests.jsonl", "evict_responses.jsonl",
                             "table41_analyze.jsonl"}) {
        std::ifstream in(std::string(SNOOP_SERVE_FIXTURES) + "/" + name);
        EXPECT_TRUE(in.good()) << name;
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    return lines;
}

/** Numbers the decoder must survive: past every bound, signed,
 * malformed, and at the edges of int64 and of the double range. */
const char *const kHostileNumbers[] = {
    "0", "-0", "+1", "-", "--1", "+-1", "1.", ".5", "-.5", "01", "1e",
    "1e+", "1.2.3", "0x10", "1e309", "-1e309", "1e-400", "1e-320",
    "4.9e-324", "2.4703282292062327e-324", "1.7976931348623157e308",
    "9007199254740993", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "1e19", "-1e300",
    "1048576", "1048577", "4294967296", "0.5", "1e-9",
};

/** Fragments that open, close or escape something mid-line. */
const char *const kFragments[] = {
    "\\u", "\\ud800", "\\udc00x", "\\uZZZZ", "\"", "\\", "\x01", "\x7f",
    "\xff", "\xc3", ",", ":", "{}", "[]", "{", "]", "null", "tru",
    "\"op\":\"batch\",", "\"requests\":[", "\"id\":", "\"n\":", "  ",
};

/** Request members worth colliding with: each takes a hostile value. */
const char *const kMembers[] = {
    "id", "n", "ns", "target", "limit", "timeBudget", "iterationBudget",
    "noCache", "noWarmStart", "protocol", "preset", "workload", "op",
    "requests",
};

class Mutator
{
  public:
    explicit Mutator(uint64_t seed) : state_(seed) {}

    uint64_t below(uint64_t n) { return splitMix64(state_) % n; }

    /** One to three stacked mutations of @p line. */
    std::string mutate(std::string line,
                       const std::vector<std::string> &corpus)
    {
        for (uint64_t k = 1 + below(3); k > 0; --k)
            line = once(std::move(line), corpus);
        return line;
    }

  private:
    size_t at(const std::string &s) { return below(s.size() + 1); }

    std::string number()
    {
        if (below(3) > 0)
            return kHostileNumbers[below(std::size(kHostileNumbers))];
        // A long digit string, signed or not, maybe with a fraction
        // or an exponent.
        std::string n = below(2) ? "-" : (below(4) ? "" : "+");
        for (uint64_t d = 1 + below(400); d > 0; --d)
            n.push_back(static_cast<char>('0' + below(10)));
        if (below(2))
            n += "." + std::string(1 + below(40), '9');
        if (below(2))
            n += "e" + std::to_string(static_cast<int>(below(800)) - 400);
        return n;
    }

    std::string once(std::string s, const std::vector<std::string> &corpus)
    {
        switch (below(7)) {
          case 0: // byte flips
            for (uint64_t k = 1 + below(4); k > 0 && !s.empty(); --k)
                s[below(s.size())] ^= static_cast<char>(1u << below(8));
            return s;
          case 1: // truncation
            return s.substr(0, at(s));
          case 2: { // splice with another line
            const std::string &other = corpus[below(corpus.size())];
            return s.substr(0, at(s)) + other.substr(at(other));
          }
          case 3: { // deep nesting, around the 64-level bound
            size_t depth = 50 + below(30);
            if (below(3) == 0)
                return s.insert(at(s), std::string(depth, '['));
            std::string open, close;
            for (size_t d = 0; d < depth; ++d) {
                bool array = below(2) == 0;
                open += array ? "[" : "{\"a\":";
                close.insert(close.begin(), array ? ']' : '}');
            }
            return open + s + close;
          }
          case 4: { // a number token replaced by a hostile one
            std::vector<size_t> starts;
            for (size_t i = 0; i < s.size(); ++i) {
                bool digit = s[i] >= '0' && s[i] <= '9';
                if (digit && (i == 0 || s[i - 1] == ':' || s[i - 1] == '[' ||
                              s[i - 1] == ','))
                    starts.push_back(i);
            }
            if (starts.empty())
                return s.insert(at(s), number());
            size_t b = starts[below(starts.size())], e = b;
            while (e < s.size() && std::string_view("0123456789.eE+-")
                                           .find(s[e]) != std::string::npos)
                ++e;
            return s.replace(b, e - b, number());
          }
          case 5: // a hostile fragment
            return s.insert(at(s), kFragments[below(std::size(kFragments))]);
          default: { // a (repeated) member with a hostile value
            size_t brace = s.find('{');
            if (brace == std::string::npos)
                return s;
            std::string member = std::string("\"") +
                kMembers[below(std::size(kMembers))] + "\":" + number();
            return s.insert(brace + 1,
                            member + (s[brace + 1] == '}' ? "" : ","));
          }
        }
    }

    uint64_t state_;
};

/** The int64 a numeric `id` names, as recoverRequestId promises: its
 * truncation inside [-2^63, 2^63), else 0. */
int64_t
expectedId(const JsonValue *id)
{
    if (id == nullptr || !id->isNumber())
        return 0;
    double d = id->asNumber();
    if (!(d >= -0x1p63 && d < 0x1p63))
        return 0;
    return static_cast<int64_t>(d);
}

/** Check one request the decoder accepted against its object. */
void
checkRequest(const Request &req, const JsonValue &object,
             const std::string &input)
{
    SCOPED_TRACE(input.substr(0, 300));
    EXPECT_EQ(req.id, expectedId(object.get("id")));
    constexpr unsigned kMaxN = 1u << 20;
    if (req.op == RequestOp::Analyze || req.op == RequestOp::Rank) {
        EXPECT_GE(req.n, 1u);
        EXPECT_LE(req.n, kMaxN);
    }
    if (req.op == RequestOp::Sweep) {
        EXPECT_FALSE(req.ns.empty());
        for (unsigned n : req.ns) {
            EXPECT_GE(n, 1u);
            EXPECT_LE(n, kMaxN);
        }
    }
    if (req.op == RequestOp::Saturation) {
        EXPECT_GT(req.target, 0.0);
        EXPECT_LE(req.target, 1.0);
        EXPECT_GE(req.limit, 1u);
        EXPECT_LE(req.limit, kMaxN);
    }
    EXPECT_TRUE(std::isfinite(req.timeBudget) && req.timeBudget >= 0.0);
    EXPECT_GE(req.iterationBudget, 0);
    // stats and shutdown read no budget.
    const JsonValue *budget = object.get("iterationBudget");
    if (budget != nullptr && req.op != RequestOp::Stats &&
        req.op != RequestOp::Shutdown) {
        EXPECT_EQ(static_cast<double>(req.iterationBudget),
                  budget->asNumber());
    }
}

/**
 * The rules for one input. Returns the number of documents it
 * accepted (0 or 1) so the caller can see both outcomes exercised.
 */
size_t
checkInput(const std::string &input)
{
    SCOPED_TRACE(input.substr(0, 300));
    size_t accepted = 0;
    auto doc = parseJson(input);
    if (doc) {
        ++accepted;
        std::string once = serializeJson(doc.value());
        auto again = parseJson(once);
        EXPECT_TRUE(bool(again)) << once;
        if (again) {
            EXPECT_EQ(serializeJson(again.value()), once);
        }
    } else {
        EXPECT_EQ(doc.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(doc.error().message.find(" at byte "), std::string::npos)
            << doc.error().message;
    }

    auto requests = parseRequestLine(input);
    if (requests) {
        EXPECT_TRUE(bool(doc)) << "a request line that is not JSON";
        EXPECT_FALSE(requests.value().empty());
        const JsonValue *items =
            doc ? doc.value().get("requests") : nullptr;
        const JsonValue *op = doc ? doc.value().get("op") : nullptr;
        bool batch = op != nullptr && op->isString() &&
            op->asString() == "batch";
        for (size_t i = 0; doc && i < requests.value().size(); ++i) {
            const JsonValue &object =
                batch ? items->asArray()[i] : doc.value();
            checkRequest(requests.value()[i], object, input);
        }
    } else {
        const SolveError &e = requests.error();
        EXPECT_TRUE(e.code == SolveErrorCode::InvalidArgument ||
                    e.code == SolveErrorCode::UnknownProtocol)
            << to_string(e.code);
        EXPECT_FALSE(e.message.empty());
        EXPECT_FALSE(e.site.empty());
    }

    EXPECT_EQ(recoverRequestId(input),
              doc ? expectedId(doc.value().get("id")) : 0);
    return accepted;
}

TEST(JsonFuzz, SeededMutationsOfServeLinesEndInAValueOrAnError)
{
    const std::vector<std::string> lines = corpus();
    ASSERT_GT(lines.size(), 300u);
    Mutator mutator(0x15eedf00dULL);
    size_t accepted = 0;
    constexpr size_t kInputs = 100000;
    for (size_t i = 0; i < kInputs; ++i) {
        const std::string &base = lines[mutator.below(lines.size())];
        accepted += checkInput(mutator.mutate(base, lines));
        if (HasFailure())
            FAIL() << "stopped at mutation " << i;
    }
    // Both outcomes are exercised in bulk.
    EXPECT_GT(accepted, kInputs / 20);
    EXPECT_LT(accepted, kInputs - kInputs / 20);
}

TEST(JsonFuzz, EveryCorpusLineIsAcceptedAndAFixedPoint)
{
    for (const std::string &line : corpus())
        EXPECT_EQ(checkInput(line), 1u) << line;
}

/**
 * Inputs that broke a rule. An `id` or `iterationBudget` at or past
 * 2^63 was cast to int64 unchecked (undefined behaviour; x86 gives
 * INT64_MIN), so a request answered under a negative id, and a
 * budget came out negative; such values are now refused, and
 * recoverRequestId reads them as 0. The mutation stream above found
 * both (the id at mutation 243, with a 140-digit id; the budget with
 * the first line below).
 */
TEST(JsonFuzz, NamedSeeds)
{
    const char *const seeds[] = {
        R"({"iterationBudget":9223372036854775807,"id":102,"op":"analyze","protocol":"124","preset":"appendixA20","workload":{"hSw":0.424},"n":8})",
        // id past int64
        R"({"id":1e300,"op":"stats"})",
        R"({"id":9223372036854775808,"op":"stats"})",
        R"({"op":"batch","requests":[{"id":-1e19,"op":"stats"}]})",
        // 9223372036854775807 parses to 2^63 exactly
        R"({"id":1,"op":"analyze","protocol":"1","n":4,"iterationBudget":9223372036854775807})",
        // the ends of the range that stay valid
        R"({"id":-9223372036854775808,"op":"stats"})",
        R"({"id":9223372036854774784,"op":"analyze","protocol":"1","n":4,"iterationBudget":9223372036854774784})",
    };
    for (const char *seed : seeds)
        EXPECT_EQ(checkInput(seed), 1u) << seed;
    for (int refused : {0, 1, 2, 3, 4})
        EXPECT_FALSE(bool(parseRequestLine(seeds[refused]))) << refused;
    EXPECT_EQ(recoverRequestId(seeds[1]), 0);
    auto low = parseRequestLine(seeds[5]);
    ASSERT_TRUE(bool(low));
    EXPECT_EQ(low.value().front().id, INT64_MIN);
    EXPECT_TRUE(bool(parseRequestLine(seeds[6])));
}

} // namespace
} // namespace snoop
