#include "util/json.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "util/logging.hh"

namespace snoop {

namespace {

constexpr int kMaxDepth = 64;

constexpr char kHexDigits[] = "0123456789abcdef";

/** Recursive-descent parser over a byte range. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    // GCC 12 reports the inlined variant move of `v` into the
    // Expected as maybe-uninitialized: a known false positive for
    // std::variant payloads with trivially copyable alternatives.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
    Expected<JsonValue> parse()
    {
        skipWs();
        JsonValue v;
        if (auto err = parseValue(v, 0))
            return std::move(*err);
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing bytes after the document");
        return v;
    }
#pragma GCC diagnostic pop

  private:
    SolveError fail(const char *what) const
    {
        return makeError(SolveErrorCode::InvalidArgument,
                         "parseJson", "%s at byte %zu", what, pos_);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    // The parse* helpers return an engaged error on failure, nullopt
    // on success, writing the value through the out-parameter (the
    // recursive structure reads better than Expected plumbing here).
    std::optional<SolveError> parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting deeper than 64 levels");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"': {
            std::string s;
            if (auto err = parseString(s))
                return err;
            out = JsonValue(std::move(s));
            return std::nullopt;
          }
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            out = JsonValue(true);
            return std::nullopt;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            out = JsonValue(false);
            return std::nullopt;
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            out = JsonValue();
            return std::nullopt;
          default:
            return parseNumber(out);
        }
    }

    std::optional<SolveError> parseObject(JsonValue &out, int depth)
    {
        ++pos_; // '{'
        out = JsonValue(JsonValue::Object{});
        JsonValue::Object &members = out.asObject();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return std::nullopt;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected a string key");
            std::string key;
            if (auto err = parseString(key))
                return err;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            // A repeated key keeps its last value.
            if (auto err = parseValue(members[std::move(key)], depth + 1))
                return err;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return std::nullopt;
            }
            return fail("expected ',' or '}'");
        }
    }

    std::optional<SolveError> parseArray(JsonValue &out, int depth)
    {
        ++pos_; // '['
        out = JsonValue(JsonValue::Array{});
        JsonValue::Array &items = out.asArray();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return std::nullopt;
        }
        while (true) {
            if (auto err = parseValue(items.emplace_back(), depth + 1))
                return err;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return std::nullopt;
            }
            return fail("expected ',' or ']'");
        }
    }

    std::optional<SolveError> parseString(std::string &out)
    {
        ++pos_; // opening quote
        // The common string has no escape: copy it in one piece.
        size_t run = pos_;
        while (run < text_.size() && text_[run] != '"' &&
               text_[run] != '\\' &&
               static_cast<unsigned char>(text_[run]) >= 0x20)
            ++run;
        if (run < text_.size() && text_[run] == '"') {
            out.assign(text_, pos_, run - pos_);
            pos_ = run + 1;
            return std::nullopt;
        }
        std::string s;
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            unsigned char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                out = std::move(s);
                return std::nullopt;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                s.push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': s.push_back('"'); break;
              case '\\': s.push_back('\\'); break;
              case '/': s.push_back('/'); break;
              case 'b': s.push_back('\b'); break;
              case 'f': s.push_back('\f'); break;
              case 'n': s.push_back('\n'); break;
              case 'r': s.push_back('\r'); break;
              case 't': s.push_back('\t'); break;
              case 'u': {
                unsigned cp = 0;
                if (auto err = parseHex4(cp))
                    return err;
                // Combine a surrogate pair when one follows.
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    text_.compare(pos_, 2, "\\u") == 0) {
                    pos_ += 2;
                    unsigned lo = 0;
                    if (auto err = parseHex4(lo))
                        return err;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xD800 && cp <= 0xDFFF) {
                    return fail("unpaired surrogate");
                }
                appendUtf8(s, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    std::optional<SolveError> parseHex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_ + i];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        pos_ += 4;
        out = v;
        return std::nullopt;
    }

    static void appendUtf8(std::string &s, unsigned cp)
    {
        if (cp < 0x80) {
            s.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    std::optional<SolveError> parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        double v = 0.0;
        auto [ptr, ec] = std::from_chars(first, last, v);
        // from_chars reads a subset of strtod's syntax, correctly
        // rounded like it, so a token it takes whole is decided.
        if (ec == std::errc() && ptr == last) {
            out = JsonValue(v);
            return std::nullopt;
        }
        // The rest (out of range, a leading '+', malformed) is rare:
        // strtod decides on a NUL-terminated copy of the token, so it
        // cannot read on past it (into "0x..." or "inf").
        std::string token(first, last);
        char *end = nullptr;
        errno = 0;
        v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        // JSON has no NaN/inf literal; an overflowing exponent like
        // 1e999 is the only way here, and the serve layer's admission
        // control rejects non-finite inputs outright.
        if (!std::isfinite(v))
            return fail("number overflows to non-finite");
        // strtod's ERANGE also flags a subnormal result, which the
        // encoder writes and must read back; only a nonzero value lost
        // to zero is an error.
        if (errno == ERANGE && v == 0.0)
            return fail("number underflows to zero");
        out = JsonValue(v);
        return std::nullopt;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

/**
 * The precision search: the smallest p >= @p prec whose `%.{p}g`
 * bytes parse back to v, written through `to_chars(general, p)`
 * (which is `%.{p}g` by the standard's definition) and checked with
 * one `from_chars` per step.
 */
void
searchPrecision(double v, int prec, std::string &out)
{
    char buf[64];
    char *const last = buf + sizeof buf;
    char *end = buf;
    for (;; ++prec) {
        end = std::to_chars(buf, last, v, std::chars_format::general,
                            prec)
                  .ptr;
        double back = 0.0;
        std::from_chars(buf, end, back);
        if (back == v || prec >= 17)
            break;
    }
    out.append(buf, end);
}

} // namespace

Expected<JsonValue>
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

std::string
serializeJson(const JsonValue &value)
{
    std::string out;
    serializeJson(value, out);
    return out;
}

void
serializeJson(const JsonValue &v, std::string &out)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        serializeNumber(v.asNumber(), out);
        break;
      case JsonValue::Kind::String:
        serializeString(v.asString(), out);
        break;
      case JsonValue::Kind::Array: {
        out.push_back('[');
        bool first = true;
        for (const auto &item : v.asArray()) {
            if (!first)
                out.push_back(',');
            first = false;
            serializeJson(item, out);
        }
        out.push_back(']');
        break;
      }
      case JsonValue::Kind::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &[key, value] : v.asObject()) {
            if (!first)
                out.push_back(',');
            first = false;
            serializeString(key, out);
            out.push_back(':');
            serializeJson(value, out);
        }
        out.push_back('}');
        break;
      }
    }
}

void
serializeString(std::string_view s, std::string &out)
{
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                out += "\\u00";
                out.push_back(kHexDigits[c >> 4]);
                out.push_back(kHexDigits[c & 0xf]);
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
}

/**
 * Shortest decimal form that parses back to the same bits, byte for
 * byte what `%.{p}g` prints at the smallest precision p that round-
 * trips (the serializer's historical definition, which checkpoint
 * header checksums depend on), from one `to_chars` pass:
 *
 *  1. `std::to_chars` in scientific form prints Ryu's shortest
 *     round-trip digits; their count d is a lower bound on p, since a
 *     shorter `%g` string that round-tripped would be a shorter
 *     round-trip form.
 *  2. Unless v is an exact power of two, its rounding interval is
 *     symmetric about v. The shortest digits are the d-digit decimal
 *     nearest v inside it, so the nearest d-digit decimal overall -
 *     `%.{d}g`'s correctly rounded digits, ties to even in both - is
 *     in it too and is the same one: p = d, and the digits are done.
 *     `%g` then prints them in scientific form (which is step 1's
 *     bytes, two-digit exponent included) when the decimal exponent
 *     X is < -4 or >= d, else in fixed form, which is laid out here.
 *  3. At a power of two the lower neighbour is half as far away, the
 *     correctly rounded d digits can miss the interval, and the
 *     search steps p = d, d + 1, ... with one `from_chars` check each
 *     (searchPrecision). NaN and inf take the search too, which
 *     prints them as printf does.
 *
 * Locale-independent, unlike printf. Integers print as integers:
 * "30", not the equally round-tripping "3e+01" that %.1g would pick.
 */
void
serializeNumber(double v, std::string &out)
{
    char buf[64];
    char *const last = buf + sizeof buf;
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        out.append(buf,
                   std::to_chars(buf, last, v, std::chars_format::fixed)
                       .ptr);
        return;
    }
    char *end =
        std::to_chars(buf, last, v, std::chars_format::scientific).ptr;
    // [-]D[.DDD]e(+|-)XX: the digits, then the exponent.
    char *digits = buf + (buf[0] == '-');
    char *e = digits;
    int prec = 0;
    for (; e != end && *e != 'e'; ++e)
        prec += *e >= '0' && *e <= '9';
    int exp2 = 0;
    if (!std::isfinite(v) || std::fabs(std::frexp(v, &exp2)) == 0.5) {
        searchPrecision(v, prec, out);
        return;
    }
    int x = 0;
    std::from_chars(e + 1 + (e[1] == '+'), end, x);
    if (x < -4 || x >= prec) {
        out.append(buf, end);
        return;
    }
    out.append(buf, digits);
    if (x < 0) {
        // 0.000DDDD: the point, -x - 1 zeros, every digit.
        out += "0.";
        out.append(static_cast<size_t>(-x - 1), '0');
        out.push_back(digits[0]);
        if (prec > 1)
            out.append(digits + 2, e);
        return;
    }
    // DDD.DDDD: x + 1 integer digits (x < prec, so all are there).
    out.push_back(digits[0]);
    char *frac = digits + 2; // past "D."
    out.append(frac, frac + x);
    if (prec > x + 1) {
        out.push_back('.');
        out.append(frac + x, e);
    }
}

JsonValue
solveErrorToJson(const SolveError &error)
{
    JsonValue::Object obj;
    obj["code"] = JsonValue(to_string(error.code));
    obj["site"] = JsonValue(error.site);
    obj["message"] = JsonValue(error.message);
    if (!error.context.empty()) {
        JsonValue::Array frames;
        for (const std::string &frame : error.context)
            frames.push_back(JsonValue(frame));
        obj["context"] = JsonValue(std::move(frames));
    }
    return JsonValue(std::move(obj));
}

Expected<void>
solveErrorFromJson(const JsonValue &value, SolveError &out)
{
    if (!value.isObject()) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "solveErrorFromJson",
                         "error value is not an object");
    }
    const JsonValue *code = value.get("code");
    const JsonValue *site = value.get("site");
    const JsonValue *message = value.get("message");
    if (code == nullptr || !code->isString() || site == nullptr ||
        !site->isString() || message == nullptr ||
        !message->isString()) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "solveErrorFromJson",
                         "error object needs string members "
                         "code/site/message");
    }
    SolveError parsed;
    bool known = false;
    for (SolveErrorCode c :
         {SolveErrorCode::InvalidArgument, SolveErrorCode::UnknownProtocol,
          SolveErrorCode::NonConvergence, SolveErrorCode::NonFiniteIterate,
          SolveErrorCode::NumericRange, SolveErrorCode::BudgetExhausted,
          SolveErrorCode::InjectedFault, SolveErrorCode::IoError,
          SolveErrorCode::Internal}) {
        if (code->asString() == to_string(c)) {
            parsed.code = c;
            known = true;
            break;
        }
    }
    if (!known) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "solveErrorFromJson",
                         "unknown error code '%s'",
                         code->asString().c_str());
    }
    parsed.site = site->asString();
    parsed.message = message->asString();
    if (const JsonValue *context = value.get("context")) {
        if (!context->isArray()) {
            return makeError(SolveErrorCode::InvalidArgument,
                             "solveErrorFromJson",
                             "member 'context' is not an array");
        }
        for (const JsonValue &frame : context->asArray()) {
            if (!frame.isString()) {
                return makeError(SolveErrorCode::InvalidArgument,
                                 "solveErrorFromJson",
                                 "non-string frame in 'context'");
            }
            parsed.context.push_back(frame.asString());
        }
    }
    out = std::move(parsed);
    return {};
}

} // namespace snoop
