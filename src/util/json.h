#ifndef MOC_UTIL_JSON_H_
#define MOC_UTIL_JSON_H_

/**
 * @file
 * JSON for the whole codebase: a minimal recursive-descent reader and the
 * one writer every JSON document is emitted through (manifests, membership
 * tables, metrics, traces, journals, CLI reports).
 *
 * Reader: objects are std::maps (so re-emitted objects come out with
 * sorted keys), and parse errors throw std::invalid_argument with an
 * offset-tagged message. Numbers carry two representations: every number
 * exposes AsNumber() (double), and integer-syntax tokens that fit 64 bits
 * additionally keep their exact value. Iterations, byte counts, and
 * incarnations round-trip through AsU64()/AsI64() losslessly even past
 * 2^53, where the double form silently rounds; the exact accessors throw
 * on a number that was never exactly representable instead of rounding it.
 *
 * Writer: one layout, `": "` after a key and `", "` between members and
 * elements; integers exact, doubles in their shortest round-trip form.
 */

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace moc::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/** One parsed JSON value (null, bool, number, string, array, or object). */
class Value {
  public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Value() = default;
    explicit Value(bool b) : kind_(Kind::kBool), bool_(b) {}
    explicit Value(double n) : kind_(Kind::kNumber), number_(n) {}
    /** Exact integers: kept losslessly alongside their double image. */
    explicit Value(std::uint64_t n)
        : kind_(Kind::kNumber), number_(static_cast<double>(n)), int_mag_(n),
          exact_(true) {}
    explicit Value(std::int64_t n)
        : kind_(Kind::kNumber), number_(static_cast<double>(n)),
          int_mag_(n < 0 ? 0ULL - static_cast<std::uint64_t>(n)
                         : static_cast<std::uint64_t>(n)),
          negative_(n < 0), exact_(true) {}
    explicit Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
    explicit Value(Array a);
    explicit Value(Object o);

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::kNull; }
    bool is_bool() const { return kind_ == Kind::kBool; }
    bool is_number() const { return kind_ == Kind::kNumber; }
    bool is_string() const { return kind_ == Kind::kString; }
    bool is_array() const { return kind_ == Kind::kArray; }
    bool is_object() const { return kind_ == Kind::kObject; }

    /** Checked accessors; throw std::invalid_argument on a kind mismatch. */
    bool AsBool() const;
    double AsNumber() const;
    const std::string& AsString() const;
    const Array& AsArray() const;
    const Object& AsObject() const;

    /**
     * Exact 64-bit reads of a number. A value parsed from integer syntax
     * ("123", "-7") that fit the target type returns exactly; a fractional,
     * out-of-range, or precision-lossy number (e.g. one that only exists as
     * a rounded double) throws std::invalid_argument rather than silently
     * rounding — manifests and membership tables must never read back a
     * different iteration than was written.
     */
    std::uint64_t AsU64() const;
    std::int64_t AsI64() const;

    /** The parsed token had integer syntax and fit 64 bits exactly. */
    bool is_exact_int() const { return is_number() && exact_; }

    /** Object member, or nullptr when absent (or not an object). */
    const Value* Find(const std::string& key) const;

    /** Object member that must exist; throws when absent. */
    const Value& At(const std::string& key) const;

    /** Member number/string with a fallback for absent keys. */
    double NumberOr(const std::string& key, double fallback) const;
    std::string StringOr(const std::string& key, std::string fallback) const;

    /** Member exact integer with a fallback for absent keys. */
    std::uint64_t U64Or(const std::string& key, std::uint64_t fallback) const;

  private:
    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    /** Exact integer image of the token: magnitude + sign, valid iff
        exact_. Kept beside the double so AsNumber() stays cheap. */
    std::uint64_t int_mag_ = 0;
    bool negative_ = false;
    bool exact_ = false;
    std::string string_;
    /** unique_ptr keeps Value a complete type inside Array/Object. */
    std::unique_ptr<Array> array_;
    std::unique_ptr<Object> object_;

  public:
    Value(const Value& other);
    Value& operator=(const Value& other);
    Value(Value&&) noexcept = default;
    Value& operator=(Value&&) noexcept = default;
    ~Value() = default;
};

/** Deepest array/object nesting Parse accepts; the parser recurses per level. */
inline constexpr std::size_t kMaxDepth = 256;

/**
 * Parses one JSON document (trailing whitespace allowed, nothing else after).
 * @throws std::invalid_argument on malformed input, including nesting
 *         deeper than kMaxDepth.
 */
Value Parse(std::string_view text);

/**
 * The shortest decimal that reads back as exactly @p value (std::to_chars);
 * integral values print without a fraction ("3", not "3.0"). Non-finite
 * values, which JSON cannot spell, come out as the Prometheus text tokens
 * "NaN", "+Inf" and "-Inf"; Writer emits null for them instead.
 */
std::string FormatNumber(double value);

/**
 * Streaming JSON writer. Put() is overloaded for strings, bools, integers
 * (exact, any width and sign), doubles (FormatNumber; non-finite as null),
 * parsed Values (exact integers stay exact) and vectors of those; Field()
 * is Key() plus Put(). Strings escape quote, backslash and every byte
 * below 0x20. The writer tracks only comma placement: a caller that closes
 * what it opens and keys every object member gets a valid document.
 */
class Writer {
  public:
    Writer& BeginObject() { return Open('{'); }
    Writer& EndObject() { return Close('}'); }
    Writer& BeginArray() { return Open('['); }
    Writer& EndArray() { return Close(']'); }
    Writer& Key(std::string_view key);

    Writer& Put(std::string_view s);
    Writer& Put(const char* s) { return Put(std::string_view(s)); }
    Writer& Put(bool b) { return Raw(b ? "true" : "false"); }
    Writer& Put(double d);
    template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                               !std::is_same_v<T, bool>,
                                           int> = 0>
    Writer& Put(T n) {
        char buf[24];
        return Raw({buf, static_cast<std::size_t>(
                             std::to_chars(buf, buf + sizeof(buf), n).ptr -
                             buf)});
    }
    Writer& Put(const Value& v);
    template <typename T>
    Writer& Put(const std::vector<T>& items) {
        BeginArray();
        for (const T& item : items) {
            Put(item);
        }
        return EndArray();
    }
    Writer& Null() { return Raw("null"); }
    /** A scalar token written verbatim, e.g. a number the caller formatted. */
    Writer& Raw(std::string_view token);

    template <typename T>
    Writer& Field(std::string_view key, const T& value) {
        Key(key);
        return Put(value);
    }

    /** Ends one JSONL record with '\n'; the next value starts a new one. */
    Writer& EndLine();

    const std::string& str() const { return out_; }
    std::string Take() { return std::move(out_); }

  private:
    Writer& Open(char bracket);
    Writer& Close(char bracket);
    /** ", " unless the next value is first in its container or keyed. */
    void Separate();
    void Quote(std::string_view s);

    std::string out_;
    bool first_ = true;
    bool after_key_ = false;
};

}  // namespace moc::json

#endif  // MOC_UTIL_JSON_H_
