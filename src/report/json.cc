#include "report/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ghrp::report
{

namespace
{

[[noreturn]] void
typeError(const char *wanted, Json::Type got)
{
    static const char *const names[] = {"null",   "bool",  "int",
                                        "uint",   "double", "string",
                                        "array",  "object"};
    throw JsonError(std::string("expected ") + wanted + ", got " +
                    names[static_cast<int>(got)]);
}

void
escapeInto(std::string &out, const std::string &s)
{
    out += '"';
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
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
numberInto(std::string &out, double v)
{
    // JSON has no NaN/Inf; represent them as null so a report with a
    // degenerate statistic still parses everywhere.
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Strict parser over a byte range. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text(text) {}

    Json
    document()
    {
        skipWs();
        Json v = value();
        skipWs();
        if (pos != text.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonError("JSON parse error at byte " + std::to_string(pos) +
                        ": " + what);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek() const
    {
        return pos < text.size() ? text[pos] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n])
            ++n;
        if (text.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    Json
    value()
    {
        switch (peek()) {
        case '{':
        case '[': {
            // Bounded recursion: hostile input (a frame of a million
            // '[') must fail cleanly instead of exhausting the stack.
            if (++depth > Json::kMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(Json::kMaxDepth) + " levels");
            Json v = peek() == '{' ? object() : array();
            --depth;
            return v;
        }
        case '"': return Json(string());
        case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return Json(true);
        case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return Json(false);
        case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return Json(nullptr);
        default: return number();
        }
    }

    Json
    object()
    {
        expect('{');
        Json out = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos;
            return out;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key");
            std::string key = string();
            skipWs();
            expect(':');
            skipWs();
            out.set(std::move(key), value());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return out;
        }
    }

    Json
    array()
    {
        expect('[');
        Json out = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos;
            return out;
        }
        while (true) {
            skipWs();
            out.push(value());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return out;
        }
    }

    void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    std::uint32_t
    hex4()
    {
        if (pos + 4 > text.size())
            fail("truncated \\u escape");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                fail("bad \\u escape digit");
        }
        return v;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                if (static_cast<unsigned char>(c) < 0x20)
                    fail("raw control character in string");
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                std::uint32_t cp = hex4();
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // high surrogate; require the low half
                    if (pos + 1 < text.size() && text[pos] == '\\' &&
                        text[pos + 1] == 'u') {
                        pos += 2;
                        const std::uint32_t lo = hex4();
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            fail("bad low surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else {
                        fail("lone high surrogate");
                    }
                }
                appendUtf8(out, cp);
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    Json
    number()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        bool integral = true;
        if (!(peek() >= '0' && peek() <= '9'))
            fail("expected value");
        while (peek() >= '0' && peek() <= '9')
            ++pos;
        if (peek() == '.') {
            integral = false;
            ++pos;
            while (peek() >= '0' && peek() <= '9')
                ++pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            integral = false;
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            while (peek() >= '0' && peek() <= '9')
                ++pos;
        }
        const std::string token = text.substr(start, pos - start);
        if (integral) {
            if (token[0] == '-') {
                std::int64_t v = 0;
                const auto res = std::from_chars(
                    token.data(), token.data() + token.size(), v);
                if (res.ec == std::errc() &&
                    res.ptr == token.data() + token.size())
                    return Json(v);
            } else {
                std::uint64_t v = 0;
                const auto res = std::from_chars(
                    token.data(), token.data() + token.size(), v);
                if (res.ec == std::errc() &&
                    res.ptr == token.data() + token.size())
                    return Json(v);
            }
            // overflowed 64 bits: fall through to double
        }
        return Json(std::strtod(token.c_str(), nullptr));
    }

    const std::string &text;
    int depth = 0;  ///< open arrays/objects around the cursor
    std::size_t pos = 0;
};

} // anonymous namespace

bool
Json::asBool() const
{
    if (kind != Type::Bool)
        typeError("bool", kind);
    return boolValue;
}

std::int64_t
Json::asInt() const
{
    if (kind == Type::Int)
        return intValue;
    if (kind == Type::Uint && uintValue <= 0x7FFFFFFFFFFFFFFFull)
        return static_cast<std::int64_t>(uintValue);
    typeError("int", kind);
}

std::uint64_t
Json::asUint() const
{
    if (kind == Type::Uint)
        return uintValue;
    if (kind == Type::Int && intValue >= 0)
        return static_cast<std::uint64_t>(intValue);
    typeError("uint", kind);
}

double
Json::asDouble() const
{
    switch (kind) {
    case Type::Double: return doubleValue;
    case Type::Int: return static_cast<double>(intValue);
    case Type::Uint: return static_cast<double>(uintValue);
    default: typeError("number", kind);
    }
}

const std::string &
Json::asString() const
{
    if (kind != Type::String)
        typeError("string", kind);
    return stringValue;
}

const Json::Array &
Json::asArray() const
{
    if (kind != Type::Array)
        typeError("array", kind);
    return arrayValue;
}

const Json::Members &
Json::asObject() const
{
    if (kind != Type::Object)
        typeError("object", kind);
    return objectValue;
}

void
Json::push(Json value)
{
    if (kind != Type::Array)
        typeError("array", kind);
    arrayValue.push_back(std::move(value));
}

void
Json::set(std::string key, Json value)
{
    if (kind != Type::Object)
        typeError("object", kind);
    for (auto &[k, v] : objectValue) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    objectValue.emplace_back(std::move(key), std::move(value));
}

const Json *
Json::find(const std::string &key) const
{
    if (kind != Type::Object)
        return nullptr;
    for (const auto &[k, v] : objectValue)
        if (k == key)
            return &v;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    if (!v)
        throw JsonError("missing member '" + key + "'");
    return *v;
}

std::size_t
Json::size() const
{
    if (kind == Type::Array)
        return arrayValue.size();
    if (kind == Type::Object)
        return objectValue.size();
    typeError("array or object", kind);
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(d),
                   ' ');
    };

    switch (kind) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += boolValue ? "true" : "false"; break;
    case Type::Int: out += std::to_string(intValue); break;
    case Type::Uint: out += std::to_string(uintValue); break;
    case Type::Double: numberInto(out, doubleValue); break;
    case Type::String: escapeInto(out, stringValue); break;
    case Type::Array:
        if (arrayValue.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arrayValue.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arrayValue[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
    case Type::Object:
        if (objectValue.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < objectValue.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            escapeInto(out, objectValue[i].first);
            out += indent > 0 ? ": " : ":";
            objectValue[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace ghrp::report
