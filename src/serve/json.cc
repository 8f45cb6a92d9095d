#include "serve/json.hh"

#include <cmath>
#include <cstdlib>

namespace rmp::serve
{

namespace
{

/** Nesting bound: a request nested deeper than this is rejected before
 *  the recursive parser can exhaust the stack. */
constexpr unsigned kMaxDepth = 64;

struct Parser
{
    const std::string &s;
    size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &why)
    {
        if (err.empty())
            err = "offset " + std::to_string(pos) + ": " + why;
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            pos++;
    }

    bool
    expect(char c)
    {
        if (pos >= s.size() || s[pos] != c)
            return fail(std::string("expected '") + c + "'");
        pos++;
        return true;
    }

    bool
    literal(const char *word, size_t n)
    {
        if (s.compare(pos, n, word) != 0)
            return fail("invalid literal");
        pos += n;
        return true;
    }

    bool
    parseHex4(uint32_t *out)
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; i++) {
            if (pos >= s.size())
                return fail("truncated \\u escape");
            char c = s[pos++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        *out = v;
        return true;
    }

    static void
    appendUtf8(std::string *out, uint32_t cp)
    {
        if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    parseString(std::string *out)
    {
        if (!expect('"'))
            return false;
        out->clear();
        while (true) {
            if (pos >= s.size())
                return fail("unterminated string");
            char c = s[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos >= s.size())
                return fail("truncated escape");
            char e = s[pos++];
            switch (e) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u': {
                uint32_t cp = 0;
                if (!parseHex4(&cp))
                    return false;
                // Surrogate pair: a high surrogate must be followed by
                // \uDC00-\uDFFF; combine into one code point.
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    if (s.compare(pos, 2, "\\u") != 0)
                        return fail("unpaired high surrogate");
                    pos += 2;
                    uint32_t lo = 0;
                    if (!parseHex4(&lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        return fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
    }

    bool
    parseNumber(JsonValue *out)
    {
        size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            pos++;
        if (pos >= s.size() || s[pos] < '0' || s[pos] > '9')
            return fail("malformed number");
        if (s[pos] == '0' && pos + 1 < s.size() && s[pos + 1] >= '0' &&
            s[pos + 1] <= '9')
            return fail("leading zero");
        while (pos < s.size() &&
               (s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-' ||
                (s[pos] >= '0' && s[pos] <= '9')))
            pos++;
        char *end = nullptr;
        const char *begin = s.c_str() + start;
        double v = std::strtod(begin, &end);
        if (end != s.c_str() + pos || !std::isfinite(v))
            return fail("malformed number");
        out->kind = JsonValue::Kind::Number;
        out->number = v;
        return true;
    }

    bool
    parseValue(JsonValue *out, unsigned depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        char c = s[pos];
        if (c == '{') {
            pos++;
            out->kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                pos++;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                JsonValue v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->members.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    pos++;
                    continue;
                }
                return expect('}');
            }
        }
        if (c == '[') {
            pos++;
            out->kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                pos++;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->items.push_back(std::move(v));
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    pos++;
                    continue;
                }
                return expect(']');
            }
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parseString(&out->string);
        }
        if (c == 't') {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out->kind = JsonValue::Kind::Null;
            return literal("null", 4);
        }
        return parseNumber(out);
    }
};

} // anonymous namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
JsonValue::str(const std::string &key, const std::string &def) const
{
    const JsonValue *v = find(key);
    return v && v->kind == Kind::String ? v->string : def;
}

uint64_t
JsonValue::u64(const std::string &key, uint64_t def) const
{
    const JsonValue *v = find(key);
    // 2^64: the first double a uint64_t cannot hold (converting it or
    // anything larger is undefined behaviour).
    if (!v || v->kind != Kind::Number || v->number < 0 ||
        v->number >= 18446744073709551616.0)
        return def;
    return static_cast<uint64_t>(v->number);
}

bool
JsonValue::boolean_(const std::string &key, bool def) const
{
    const JsonValue *v = find(key);
    return v && v->kind == Kind::Bool ? v->boolean : def;
}

bool
parseJson(const std::string &text, JsonValue *out, std::string *err)
{
    Parser p{text, 0, {}};
    *out = JsonValue{};
    if (!p.parseValue(out, 0)) {
        if (err)
            *err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "offset " + std::to_string(p.pos) +
                   ": trailing bytes after document";
        return false;
    }
    return true;
}

} // namespace rmp::serve
