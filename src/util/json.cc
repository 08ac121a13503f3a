#include "util/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace moc::json {

Value::Value(Array a)
    : kind_(Kind::kArray), array_(std::make_unique<Array>(std::move(a))) {}

Value::Value(Object o)
    : kind_(Kind::kObject), object_(std::make_unique<Object>(std::move(o))) {}

Value::Value(const Value& other)
    : kind_(other.kind_), bool_(other.bool_), number_(other.number_),
      int_mag_(other.int_mag_), negative_(other.negative_),
      exact_(other.exact_), string_(other.string_),
      array_(other.array_ ? std::make_unique<Array>(*other.array_) : nullptr),
      object_(other.object_ ? std::make_unique<Object>(*other.object_)
                            : nullptr) {}

Value&
Value::operator=(const Value& other) {
    if (this != &other) {
        Value copy(other);
        *this = std::move(copy);
    }
    return *this;
}

namespace {

[[noreturn]] void
Fail(const char* what, Value::Kind kind) {
    throw std::invalid_argument(std::string("json: value is not ") + what +
                                " (kind " +
                                std::to_string(static_cast<int>(kind)) + ")");
}

}  // namespace

bool
Value::AsBool() const {
    if (!is_bool()) {
        Fail("a bool", kind_);
    }
    return bool_;
}

double
Value::AsNumber() const {
    if (!is_number()) {
        Fail("a number", kind_);
    }
    return number_;
}

std::uint64_t
Value::AsU64() const {
    if (!is_number()) {
        Fail("a number", kind_);
    }
    if (exact_) {
        if (negative_ && int_mag_ != 0) {
            throw std::invalid_argument("json: number is negative, not u64");
        }
        return int_mag_;
    }
    // No exact token (a computed double, or integer syntax that overflowed
    // 64 bits): accept only doubles that are integral and inside the range
    // where every integer is representable.
    if (number_ < 0.0 || number_ > 9007199254740992.0 ||  // 2^53
        number_ != std::floor(number_)) {
        throw std::invalid_argument(
            "json: number has no exact u64 representation");
    }
    return static_cast<std::uint64_t>(number_);
}

std::int64_t
Value::AsI64() const {
    if (!is_number()) {
        Fail("a number", kind_);
    }
    if (exact_) {
        if (negative_) {
            // |INT64_MIN| = 2^63 still fits the magnitude field.
            if (int_mag_ > 0x8000000000000000ULL) {
                throw std::invalid_argument("json: number overflows i64");
            }
            return static_cast<std::int64_t>(0ULL - int_mag_);
        }
        if (int_mag_ > 0x7FFFFFFFFFFFFFFFULL) {
            throw std::invalid_argument("json: number overflows i64");
        }
        return static_cast<std::int64_t>(int_mag_);
    }
    if (number_ < -9007199254740992.0 || number_ > 9007199254740992.0 ||
        number_ != std::floor(number_)) {
        throw std::invalid_argument(
            "json: number has no exact i64 representation");
    }
    return static_cast<std::int64_t>(number_);
}

const std::string&
Value::AsString() const {
    if (!is_string()) {
        Fail("a string", kind_);
    }
    return string_;
}

const Array&
Value::AsArray() const {
    if (!is_array()) {
        Fail("an array", kind_);
    }
    return *array_;
}

const Object&
Value::AsObject() const {
    if (!is_object()) {
        Fail("an object", kind_);
    }
    return *object_;
}

const Value*
Value::Find(const std::string& key) const {
    if (!is_object()) {
        return nullptr;
    }
    const auto it = object_->find(key);
    return it == object_->end() ? nullptr : &it->second;
}

const Value&
Value::At(const std::string& key) const {
    const Value* v = Find(key);
    if (v == nullptr) {
        throw std::invalid_argument("json: missing key '" + key + "'");
    }
    return *v;
}

double
Value::NumberOr(const std::string& key, double fallback) const {
    const Value* v = Find(key);
    return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string
Value::StringOr(const std::string& key, std::string fallback) const {
    const Value* v = Find(key);
    return v != nullptr && v->is_string() ? v->AsString() : std::move(fallback);
}

std::uint64_t
Value::U64Or(const std::string& key, std::uint64_t fallback) const {
    const Value* v = Find(key);
    return v != nullptr && v->is_number() ? v->AsU64() : fallback;
}

namespace {

class Parser {
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value ParseDocument() {
        Value v = ParseValue();
        SkipWhitespace();
        if (pos_ != text_.size()) {
            Error("trailing characters after document");
        }
        return v;
    }

  private:
    [[noreturn]] void Error(const std::string& message) const {
        throw std::invalid_argument("json: " + message + " at offset " +
                                    std::to_string(pos_));
    }

    void SkipWhitespace() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char Peek() {
        SkipWhitespace();
        if (pos_ >= text_.size()) {
            Error("unexpected end of input");
        }
        return text_[pos_];
    }

    void Expect(char c) {
        if (Peek() != c) {
            Error(std::string("expected '") + c + "', got '" + text_[pos_] +
                  "'");
        }
        ++pos_;
    }

    bool Consume(char c) {
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void ExpectLiteral(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) {
            Error("invalid literal");
        }
        pos_ += literal.size();
    }

    Value ParseValue() {
        switch (Peek()) {
            case '{': return ParseObject();
            case '[': return ParseArray();
            case '"': return Value(ParseString());
            case 't': ExpectLiteral("true"); return Value(true);
            case 'f': ExpectLiteral("false"); return Value(false);
            case 'n': ExpectLiteral("null"); return Value();
            default: return ParseNumber();
        }
    }

    /** Enters one array/object level; throws past kMaxDepth. */
    void Descend() {
        if (++depth_ > kMaxDepth) {
            Error("nesting deeper than " + std::to_string(kMaxDepth) +
                  " levels");
        }
    }

    Value ParseObject() {
        Descend();
        Expect('{');
        Object members;
        if (!Consume('}')) {
            do {
                std::string key = ParseString();
                Expect(':');
                members.emplace(std::move(key), ParseValue());
            } while (Consume(','));
            Expect('}');
        }
        --depth_;
        return Value(std::move(members));
    }

    Value ParseArray() {
        Descend();
        Expect('[');
        Array items;
        if (!Consume(']')) {
            do {
                items.push_back(ParseValue());
            } while (Consume(','));
            Expect(']');
        }
        --depth_;
        return Value(std::move(items));
    }

    std::string ParseString() {
        Expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) {
                Error("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                Error("unterminated escape");
            }
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        Error("truncated \\u escape");
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            Error("invalid \\u escape");
                        }
                    }
                    // Our emitters only escape control characters; encode the
                    // code point as UTF-8 (no surrogate-pair handling).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: Error("invalid escape");
            }
        }
    }

    Value ParseNumber() {
        SkipWhitespace();
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
            ++pos_;
        }
        bool digits = false;
        bool integral = true;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            const char c = text_[pos_];
            digits = digits || (c >= '0' && c <= '9');
            integral = integral && ((c >= '0' && c <= '9') || c == '-');
            ++pos_;
        }
        if (!digits) {
            pos_ = start;
            Error("invalid number");
        }
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || !std::isfinite(value)) {
            pos_ = start;
            Error("invalid number");
        }
        // Integer tokens keep their exact 64-bit value alongside the double:
        // iterations and byte counts >= 2^53 must round-trip losslessly.
        if (integral) {
            const bool negative = token[0] == '-';
            errno = 0;
            char* iend = nullptr;
            const unsigned long long mag = std::strtoull(
                token.c_str() + (negative ? 1 : 0), &iend, 10);
            if (errno == 0 && iend == token.c_str() + token.size()) {
                if (!negative) {
                    return Value(static_cast<std::uint64_t>(mag));
                }
                if (mag <= 0x8000000000000000ULL) {
                    return Value(static_cast<std::int64_t>(0ULL - mag));
                }
                // Magnitude past |INT64_MIN|: double-only, like any
                // 64-bit-overflowing token.
            }
        }
        return Value(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    /** Open arrays and objects around the current position. */
    std::size_t depth_ = 0;
};

}  // namespace

Value
Parse(std::string_view text) {
    return Parser(text).ParseDocument();
}

std::string
FormatNumber(double value) {
    if (!std::isfinite(value)) {
        return std::isnan(value) ? "NaN" : value > 0 ? "+Inf" : "-Inf";
    }
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void
Writer::Separate() {
    if (!after_key_ && !first_) {
        out_ += ", ";
    }
    after_key_ = false;
    first_ = false;
}

void
Writer::Quote(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out_ += "\\\""; break;
            case '\\': out_ += "\\\\"; break;
            case '\n': out_ += "\\n"; break;
            case '\t': out_ += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out_ += "\\u00";
                    out_ += kHex[(c >> 4) & 0xf];
                    out_ += kHex[c & 0xf];
                } else {
                    out_ += c;
                }
        }
    }
    out_ += '"';
}

Writer&
Writer::Open(char bracket) {
    Separate();
    out_ += bracket;
    first_ = true;
    return *this;
}

Writer&
Writer::Close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
}

Writer&
Writer::Key(std::string_view key) {
    Separate();
    Quote(key);
    out_ += ": ";
    after_key_ = true;
    return *this;
}

Writer&
Writer::Put(std::string_view s) {
    Separate();
    Quote(s);
    return *this;
}

Writer&
Writer::Put(double d) {
    return std::isfinite(d) ? Raw(FormatNumber(d)) : Null();
}

Writer&
Writer::Put(const Value& v) {
    switch (v.kind()) {
        case Value::Kind::kNull: return Null();
        case Value::Kind::kBool: return Put(v.AsBool());
        case Value::Kind::kNumber:
            if (!v.is_exact_int()) {
                return Put(v.AsNumber());
            }
            return v.AsNumber() < 0 ? Put(v.AsI64()) : Put(v.AsU64());
        case Value::Kind::kString: return Put(v.AsString());
        case Value::Kind::kArray: return Put(v.AsArray());
        case Value::Kind::kObject:
            BeginObject();
            for (const auto& [key, member] : v.AsObject()) {
                Field(key, member);
            }
            return EndObject();
    }
    return *this;
}

Writer&
Writer::Raw(std::string_view token) {
    Separate();
    out_ += token;
    return *this;
}

Writer&
Writer::EndLine() {
    out_ += '\n';
    first_ = true;
    after_key_ = false;
    return *this;
}

}  // namespace moc::json
