#ifndef MOC_UTIL_JSON_H_
#define MOC_UTIL_JSON_H_

/**
 * @file
 * A minimal recursive-descent JSON reader.
 *
 * The observability layer *writes* JSON with hand-rolled emitters
 * (obs/export.h); this is the matching reader, used by `moc_cli report` to
 * ingest metrics dumps and event journals, and by the exporter round-trip
 * tests. Objects preserve key order via std::map, and parse errors throw
 * std::invalid_argument with an offset-tagged message.
 *
 * Numbers carry two representations: every number exposes AsNumber()
 * (double), and integer-syntax tokens that fit 64 bits additionally keep
 * their exact value. Iterations, byte counts, and incarnations round-trip
 * through AsU64()/AsI64() losslessly even past 2^53, where the double form
 * silently rounds; the exact accessors throw on a number that was never
 * exactly representable instead of rounding it.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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

}  // namespace moc::json

#endif  // MOC_UTIL_JSON_H_
