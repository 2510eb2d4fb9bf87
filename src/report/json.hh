/**
 * @file
 * Minimal self-contained JSON value type for the run-report subsystem:
 * an ordered-object document model with a deterministic writer and a
 * strict recursive-descent parser. No external dependencies.
 *
 * Determinism contract: object members keep insertion order, integers
 * serialize via decimal digits, and doubles serialize via the shortest
 * round-trip representation (std::to_chars), so dump(parse(dump(x)))
 * is byte-identical to dump(x) for any value this writer produced.
 */

#ifndef GHRP_REPORT_JSON_HH
#define GHRP_REPORT_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ghrp::report
{

/** Thrown on malformed JSON text or type-mismatched access. */
struct JsonError : std::runtime_error
{
    explicit JsonError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** One JSON value (document model). */
class Json
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Int,     ///< negative integers
        Uint,    ///< non-negative integers (exact 64-bit counters)
        Double,
        String,
        Array,
        Object
    };

    /** Object member list; insertion order is preserved on dump(). */
    using Members = std::vector<std::pair<std::string, Json>>;
    using Array = std::vector<Json>;

    Json() : kind(Type::Null) {}
    Json(std::nullptr_t) : kind(Type::Null) {}
    Json(bool v) : kind(Type::Bool), boolValue(v) {}
    Json(int v) : kind(v < 0 ? Type::Int : Type::Uint)
    {
        if (v < 0)
            intValue = v;
        else
            uintValue = static_cast<std::uint64_t>(v);
    }
    Json(std::int64_t v) : kind(v < 0 ? Type::Int : Type::Uint)
    {
        if (v < 0)
            intValue = v;
        else
            uintValue = static_cast<std::uint64_t>(v);
    }
    Json(std::uint64_t v) : kind(Type::Uint), uintValue(v) {}
    Json(unsigned v) : kind(Type::Uint), uintValue(v) {}
    Json(double v) : kind(Type::Double), doubleValue(v) {}
    Json(const char *v) : kind(Type::String), stringValue(v) {}
    Json(std::string v) : kind(Type::String), stringValue(std::move(v)) {}

    /** Empty array / object factories (unambiguous construction). */
    static Json array() { Json j; j.kind = Type::Array; return j; }
    static Json object() { Json j; j.kind = Type::Object; return j; }

    Type type() const { return kind; }
    bool isNull() const { return kind == Type::Null; }
    bool isBool() const { return kind == Type::Bool; }
    bool isNumber() const
    {
        return kind == Type::Int || kind == Type::Uint ||
               kind == Type::Double;
    }
    bool isString() const { return kind == Type::String; }
    bool isArray() const { return kind == Type::Array; }
    bool isObject() const { return kind == Type::Object; }

    /** Typed access; throws JsonError on kind mismatch. */
    bool asBool() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    /** Any numeric kind widens to double. */
    double asDouble() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Members &asObject() const;

    /** Array element append. */
    void push(Json value);

    /** Object member append (no duplicate-key check; callers own it). */
    void set(std::string key, Json value);

    /** Pointer to the member named @p key, or nullptr. O(n). */
    const Json *find(const std::string &key) const;

    /** Member access; throws JsonError when @p key is absent. */
    const Json &at(const std::string &key) const;

    /** Array element count / object member count. */
    std::size_t size() const;

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces per
     * level; 0 emits the compact single-line form. Deterministic: see
     * the file comment.
     */
    std::string dump(int indent = 2) const;

    /** Deepest array/object nesting parse() accepts — far above any
     *  report or protocol document, far below a stack overflow. */
    static constexpr int kMaxDepth = 256;

    /** Parse a complete JSON document; throws JsonError with a byte
     *  offset on malformed input. Trailing garbage and nesting deeper
     *  than kMaxDepth are errors. */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type kind;
    bool boolValue = false;
    std::int64_t intValue = 0;
    std::uint64_t uintValue = 0;
    double doubleValue = 0.0;
    std::string stringValue;
    Array arrayValue;
    Members objectValue;
};

} // namespace ghrp::report

#endif // GHRP_REPORT_JSON_HH
