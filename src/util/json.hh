#pragma once

/**
 * @file
 * A minimal JSON value model, parser, and serializer, shared by the
 * serving layer's line-delimited request/response protocol
 * (docs/SERVING.md) and the sweep checkpoint format
 * (docs/SHARDING.md). It lives in util so that both serve and core
 * can consume it without bending the module layering.
 *
 * Deliberately small: objects are std::map (so serialization order is
 * deterministic regardless of input order), numbers are doubles, and
 * parse failures come back as structured InvalidArgument errors
 * instead of exceptions - a malformed request line must become an
 * error *response* (and a corrupt checkpoint a structured rejection),
 * never a dead process.
 */

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/expected.hh"

namespace snoop {

/** One JSON value: null, bool, number, string, array, or object. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    JsonValue() : kind_(Kind::Null) {}
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(double v) : kind_(Kind::Number), number_(v) {}
    JsonValue(int v) : kind_(Kind::Number), number_(v) {}
    JsonValue(long v)
        : kind_(Kind::Number), number_(static_cast<double>(v))
    {
    }
    JsonValue(unsigned v) : kind_(Kind::Number), number_(v) {}
    JsonValue(const char *s) : kind_(Kind::String), string_(s) {}
    JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s))
    {
    }
    JsonValue(Array a) : kind_(Kind::Array), array_(std::move(a)) {}
    JsonValue(Object o) : kind_(Kind::Object), object_(std::move(o)) {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** The held bool; SNOOP_ASSERTs the kind. */
    bool asBool() const
    {
        SNOOP_ASSERT(isBool(), "JsonValue::asBool on a non-bool");
        return bool_;
    }

    /** The held number; SNOOP_ASSERTs the kind. */
    double asNumber() const
    {
        SNOOP_ASSERT(isNumber(), "JsonValue::asNumber on a non-number");
        return number_;
    }

    /** The held string; SNOOP_ASSERTs the kind. */
    const std::string &asString() const
    {
        SNOOP_ASSERT(isString(), "JsonValue::asString on a non-string");
        return string_;
    }

    /** The held array; SNOOP_ASSERTs the kind. */
    const Array &asArray() const
    {
        SNOOP_ASSERT(isArray(), "JsonValue::asArray on a non-array");
        return array_;
    }
    Array &asArray()
    {
        SNOOP_ASSERT(isArray(), "JsonValue::asArray on a non-array");
        return array_;
    }

    /** The held object; SNOOP_ASSERTs the kind. */
    const Object &asObject() const
    {
        SNOOP_ASSERT(isObject(), "JsonValue::asObject on a non-object");
        return object_;
    }
    Object &asObject()
    {
        SNOOP_ASSERT(isObject(), "JsonValue::asObject on a non-object");
        return object_;
    }

    /** Member @p key of an object, or nullptr when absent. */
    const JsonValue *get(const std::string &key) const
    {
        if (!isObject())
            return nullptr;
        auto it = object_.find(key);
        return it == object_.end() ? nullptr : &it->second;
    }

    /** Set member @p key of an object (value must be an object). */
    void set(const std::string &key, JsonValue v)
    {
        SNOOP_ASSERT(isObject(), "JsonValue::set on a non-object");
        object_[key] = std::move(v);
    }

  private:
    Kind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/**
 * Parse one JSON document. Trailing non-whitespace, nesting beyond 64
 * levels, non-finite numbers (JSON has no NaN/inf literal, and a
 * value like 1e999 overflows), a nonzero number that underflows to
 * zero (1e-400; subnormals parse), and every syntax error come back
 * as InvalidArgument with a byte offset in the message.
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
