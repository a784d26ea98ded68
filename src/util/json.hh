#pragma once

/**
 * @file
 * A minimal JSON value model, parser, and serializer, shared by the
 * serving layer's line-delimited request/response protocol
 * (docs/SERVING.md) and the sweep checkpoint format
 * (docs/SHARDING.md). It lives in util so that both serve and core
 * can consume it without bending the module layering.
 *
 * Deliberately small: a value is one std::variant payload, objects
 * are std::map (so serialization order is deterministic regardless
 * of input order), numbers are doubles, and
 * parse failures come back as structured InvalidArgument errors
 * instead of exceptions - a malformed request line must become an
 * error *response* (and a corrupt checkpoint a structured rejection),
 * never a dead process.
 */

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/expected.hh"

namespace snoop {

/**
 * One JSON value: null, bool, number, string, array, or object.
 *
 * The value is one std::variant payload whose alternative index is
 * the Kind, so a number costs a double and a tag, not an empty
 * string, vector and map beside it, and copying or destroying a
 * value touches only the alternative it holds.
 */
class JsonValue
{
  public:
    /** The kinds, in the order of the payload's alternatives. */
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    /** Sorted keys; std::less<> lets get() look up a string_view. */
    using Object = std::map<std::string, JsonValue, std::less<>>;

    JsonValue() = default;
    JsonValue(bool b) : payload_(b) {}
    JsonValue(double v) : payload_(v) {}
    JsonValue(int v) : payload_(static_cast<double>(v)) {}
    JsonValue(long v) : payload_(static_cast<double>(v)) {}
    JsonValue(unsigned v) : payload_(static_cast<double>(v)) {}
    JsonValue(const char *s) : payload_(std::string(s)) {}
    JsonValue(std::string s) : payload_(std::move(s)) {}
    JsonValue(Array a) : payload_(std::move(a)) {}
    JsonValue(Object o) : payload_(std::move(o)) {}

    Kind kind() const { return static_cast<Kind>(payload_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isNumber() const { return kind() == Kind::Number; }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isObject() const { return kind() == Kind::Object; }

    /** The held bool; SNOOP_ASSERTs the kind. */
    bool asBool() const
    {
        SNOOP_ASSERT(isBool(), "JsonValue::asBool on a non-bool");
        return *std::get_if<bool>(&payload_);
    }

    /** The held number; SNOOP_ASSERTs the kind. */
    double asNumber() const
    {
        SNOOP_ASSERT(isNumber(), "JsonValue::asNumber on a non-number");
        return *std::get_if<double>(&payload_);
    }

    /** The held string; SNOOP_ASSERTs the kind. */
    const std::string &asString() const
    {
        SNOOP_ASSERT(isString(), "JsonValue::asString on a non-string");
        return *std::get_if<std::string>(&payload_);
    }

    /** The held array; SNOOP_ASSERTs the kind. */
    const Array &asArray() const
    {
        SNOOP_ASSERT(isArray(), "JsonValue::asArray on a non-array");
        return *std::get_if<Array>(&payload_);
    }
    Array &asArray()
    {
        SNOOP_ASSERT(isArray(), "JsonValue::asArray on a non-array");
        return *std::get_if<Array>(&payload_);
    }

    /** The held object; SNOOP_ASSERTs the kind. */
    const Object &asObject() const
    {
        SNOOP_ASSERT(isObject(), "JsonValue::asObject on a non-object");
        return *std::get_if<Object>(&payload_);
    }
    Object &asObject()
    {
        SNOOP_ASSERT(isObject(), "JsonValue::asObject on a non-object");
        return *std::get_if<Object>(&payload_);
    }

    /** Member @p key of an object, or nullptr when absent. */
    const JsonValue *get(std::string_view key) const
    {
        const Object *object = std::get_if<Object>(&payload_);
        if (object == nullptr)
            return nullptr;
        auto it = object->find(key);
        return it == object->end() ? nullptr : &it->second;
    }

    /** Set member @p key of an object (value must be an object). */
    void set(const std::string &key, JsonValue v)
    {
        asObject().insert_or_assign(key, std::move(v));
    }

  private:
    std::variant<std::monostate, bool, double, std::string, Array,
                 Object>
        payload_;
};

/**
 * Parse one JSON document. Trailing non-whitespace, nesting beyond 64
 * levels, non-finite numbers (JSON has no NaN/inf literal, and a
 * value like 1e999 overflows), a nonzero number that underflows to
 * zero (1e-400; subnormals parse), and every syntax error come back
 * as InvalidArgument with a byte offset in the message.
 *
 * A number token is read in place by `std::from_chars`; only a token
 * it does not take whole (out of range, a leading '+', malformed)
 * is copied and handed to strtod, which decides it as it always has,
 * so the accepted set is strtod's over the token.
 */
Expected<JsonValue> parseJson(const std::string &text);

/**
 * Serialize compactly (no whitespace), object keys in sorted order,
 * numbers in shortest round-trip decimal form (what `%.{p}g` prints at
 * the smallest precision p that parses back exactly; integers below
 * 1e15 without an exponent) - the same value always serializes to the
 * same bytes, in any C locale, which is what the serve layer's
 * response-determinism contract and the checkpoint header checksum
 * ride on.
 */
std::string serializeJson(const JsonValue &value);

/** serializeJson's bytes, appended to @p out. */
void serializeJson(const JsonValue &value, std::string &out);

/**
 * One number as serializeJson writes it, appended to @p out; for
 * fixed-field writers that emit the codec's bytes without a tree.
 *
 * Fast path: one shortest-digits `std::to_chars` pass gives d digits,
 * and unless v is an exact power of two those digits are also
 * `%.{d}g`'s (the rounding interval is symmetric, so the correctly
 * rounded d digits lie in it); they are laid out in `%g`'s fixed or
 * scientific form. Powers of two, and NaN/inf, take the precision
 * search (see json.cc).
 */
void serializeNumber(double v, std::string &out);

/** One string as serializeJson writes it (quoted, escaped), appended
 * to @p out. */
void serializeString(std::string_view s, std::string &out);

/**
 * A SolveError as a JSON object: {"code","site","message"} plus
 * "context" when any frames are attached. The serve wire protocol and
 * the sweep checkpoint format share this shape, so an error cell
 * round-trips bit-identically through either.
 */
JsonValue solveErrorToJson(const SolveError &error);

/**
 * Inverse of solveErrorToJson, writing through @p out (an
 * Expected<SolveError> cannot distinguish its value from its error).
 * Unknown code names, missing members, and wrong member kinds come
 * back as InvalidArgument and leave @p out untouched.
 */
Expected<void> solveErrorFromJson(const JsonValue &value,
                                  SolveError &out);

} // namespace snoop
