/**
 * @file
 * Minimal JSON value parser for the serve protocol.
 *
 * The repo's report/json.hh is write-only (insertion-ordered builders);
 * the daemon also needs to *read* newline-delimited JSON requests off a
 * socket. This is the matching reader: a small recursive-descent parser
 * into a tagged value tree, with the convenience accessors request
 * dispatch wants (find a key, read it as a string/number/bool with a
 * default). It accepts strict JSON — no comments, no trailing commas —
 * and rejects input nested deeper than kMaxDepth so a hostile client
 * cannot overflow the stack.
 */

#ifndef SERVE_JSON_HH
#define SERVE_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rmp::serve
{

/** One parsed JSON value. Object member order is preserved. */
struct JsonValue
{
    enum class Kind : uint8_t { Null, Bool, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object
    std::vector<JsonValue> items;                           ///< Array

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }

    /** First member named @p key, or nullptr (non-objects: nullptr). */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key as a string; @p def when absent or not a string. */
    std::string str(const std::string &key,
                    const std::string &def = "") const;
    /** Member @p key as an unsigned integer (truncated); @p def when
     *  absent, not a number, negative, or past the uint64_t range. */
    uint64_t u64(const std::string &key, uint64_t def = 0) const;
    /** Member @p key as a bool; @p def when absent or not a bool. */
    bool boolean_(const std::string &key, bool def = false) const;
};

/**
 * Parse one JSON document from @p text. Trailing whitespace is allowed;
 * any other trailing bytes are an error. Returns false and fills @p err
 * (byte offset + reason) on malformed input.
 */
bool parseJson(const std::string &text, JsonValue *out, std::string *err);

} // namespace rmp::serve

#endif // SERVE_JSON_HH
