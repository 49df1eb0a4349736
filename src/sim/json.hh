/**
 * @file
 * The one JSON codec. Every struct with a field list (sim/fields.hh)
 * round-trips through it, and every file jetsim writes in order to
 * read it back — result-cache entries, fleet replay specs, jetmc
 * counterexamples, engine plans — is a document of this codec, tag
 * first:
 *
 *     {"<tag>": <version>, "<field>": <value>, ...}
 *
 * Writing is bit-exact: doubles use 17 significant digits and
 * integers are written verbatim, so 64-bit seeds and tick counts never
 * pass through a double. Reading is checked and driven by the same
 * field lists, with no intermediate tree: every listed key must appear
 * exactly once (in any order) with a value of its field's type, no
 * other key may appear, a number must parse completely and fit its
 * field, and an enum name must be known. The first failure is reported
 * as "<field path>: <reason>", e.g. "spec.devices[2].batch: 'abc' is
 * not an integer in [-2147483648, 2147483647]".
 *
 * An enum E is encoded by name. Its header declares, next to
 * `const char *name(E)`, the hook
 *
 *     constexpr const auto &enumValues(E);  // every value, in order
 *
 * found by argument-dependent lookup; enumFromName() and the decoder
 * read names through it, so this header knows no enum of its own.
 *
 * The command-line tools parse flag values with the same parseNumber
 * and enumFromName, and write-only JSON (the jetlint report, the
 * Chrome trace) uses putJsonString and putJsonNumber.
 */

#ifndef JETSIM_SIM_JSON_HH
#define JETSIM_SIM_JSON_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jetsim::sim {

/** The whole of @p s as one number of type T (an integer type or
 * double): nullopt on an empty string, leading blanks, trailing text,
 * a value out of T's range, or a non-finite double. */
template <class T>
std::optional<T>
parseNumber(std::string_view s)
{
    T x{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), x);
    if (s.empty() || ec != std::errc{} || end != s.data() + s.size())
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(x))
            return std::nullopt;
    return x;
}

/** The value of enum E named @p s (see the file comment); nullopt
 * for any other string. */
template <class E>
std::optional<E>
enumFromName(std::string_view s)
{
    for (const E e : enumValues(E{}))
        if (s == name(e))
            return e;
    return std::nullopt;
}

/** Append @p s as a JSON string: quoted, with '"', '\\' and control
 * characters escaped. */
void putJsonString(std::string &out, std::string_view s);

/** Append @p v as a JSON number that parses back to exactly @p v
 * (17 significant digits). */
void putJsonNumber(std::string &out, double v);

/** Whole-file read; nullopt when the file cannot be read. */
std::optional<std::string> readFile(const std::string &path);

/** Write @p text to @p path atomically (temp file + rename). */
bool writeFileAtomic(const std::string &path, const std::string &text);

namespace json_detail {

/** Field-list visitor appending each field as `"key":value`. */
struct Encoder
{
    std::string out;

    template <class T>
    void
    operator()(const char *key, const T &x)
    {
        if (out.back() != '{')
            out += ',';
        putJsonString(out, key);
        out += ':';
        put(x);
    }

    template <class T>
    void
    put(const T &x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out += x ? "true" : "false";
        } else if constexpr (std::is_integral_v<T>) {
            out += std::to_string(x);
        } else if constexpr (std::is_same_v<T, double>) {
            putJsonNumber(out, x);
        } else if constexpr (std::is_same_v<T, std::string>) {
            putJsonString(out, x);
        } else if constexpr (std::is_enum_v<T>) {
            putJsonString(out, name(x));
        } else if constexpr (std::ranges::range<T>) {
            out += '[';
            for (const auto &e : x) {
                if (out.back() != '[')
                    out += ',';
                put(e);
            }
            out += ']';
        } else {
            out += '{';
            visitFields(*this, x);
            out += '}';
        }
    }
};

/** Reads one document straight into field lists. */
class Decoder
{
  public:
    explicit Decoder(std::string_view text) : s_(text) {}

    /** First failure as "<field path>: <reason>"; empty if none. */
    std::string err;

    template <class T>
    void
    document(T &x, std::string_view tag, int version)
    {
        std::string key;
        if (!eat('{') || !readString(key) || key != tag || !eat(':') ||
            token() != std::to_string(version))
            return fail("", "not a \"" + std::string(tag) +
                                "\": " + std::to_string(version) +
                                " document");
        members(x, "", false);
        skipWs();
        if (err.empty() && pos_ != s_.size())
            fail("", "trailing text at byte " + std::to_string(pos_));
    }

  private:
    template <class T>
    void
    get(T &x, const std::string &path)
    {
        if constexpr (std::is_same_v<T, bool>) {
            const auto t = token();
            if (t != "true" && t != "false")
                return fail(path, "'" + std::string(t) +
                                      "' is not true or false");
            x = t == "true";
        } else if constexpr (std::is_arithmetic_v<T>) {
            using Lim = std::numeric_limits<T>;
            const auto t = token();
            const auto n = parseNumber<T>(t);
            if (!n)
                return fail(path, "'" + std::string(t) + "' is not " +
                                      (std::is_integral_v<T>
                                           ? "an integer in [" +
                                                 std::to_string(Lim::min()) +
                                                 ", " +
                                                 std::to_string(Lim::max()) +
                                                 "]"
                                           : "a finite number"));
            x = *n;
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (!readString(x))
                fail(path, "'" + std::string(token()) +
                               "' is not a string");
        } else if constexpr (std::is_enum_v<T>) {
            getName(x, path);
        } else if constexpr (std::ranges::range<T>) {
            if (!eat('['))
                return fail(path, "not an array");
            x.clear();
            while (err.empty() && !eat(']')) {
                if (!x.empty() && !eat(','))
                    return fail(path, "expected ',' or ']' at byte " +
                                          std::to_string(pos_));
                const auto at = path + "[" + std::to_string(x.size()) + "]";
                get(x.emplace_back(), at);
            }
        } else {
            if (!eat('{'))
                return fail(path, "not an object");
            members(x, path, true);
        }
    }

    /** The members of an object after its '{' — and, unless
     * @p first, after a member the caller already read. */
    template <class T>
    void
    members(T &x, const std::string &path, bool first)
    {
        std::vector<std::string> seen;
        while (err.empty() && !eat('}')) {
            std::string key;
            if ((!first && !eat(',')) || !readString(key) || !eat(':'))
                return fail(path, "expected \"key\": at byte " +
                                      std::to_string(pos_));
            first = false;
            const std::string at = join(path, key);
            bool known = false;
            auto one = [&](const char *k, auto &field) {
                if (!known && key == k) {
                    known = true;
                    get(field, at);
                }
            };
            if (std::ranges::count(seen, key))
                return fail(at, "repeated key");
            visitFields(one, x);
            if (!known)
                return fail(at, "unexpected key");
            seen.push_back(std::move(key));
        }
        auto present = [&](const char *k, auto &) {
            if (err.empty() && !std::ranges::count(seen, k))
                fail(join(path, k), "missing");
        };
        visitFields(present, x);
    }

    template <class E>
    void
    getName(E &x, const std::string &path)
    {
        std::string s, names;
        const bool read = readString(s);
        for (const E e : enumValues(x)) {
            if (read && s == name(e)) {
                x = e;
                return;
            }
            names += std::string(" ") + name(e);
        }
        fail(path, "'" + s + "' is not one of" + names);
    }

    void skipWs();
    bool eat(char c);
    bool readString(std::string &out);
    /** The next run of characters up to a delimiter (a scalar). */
    std::string_view token();
    static std::string join(const std::string &path, std::string_view key);
    void fail(const std::string &path, const std::string &why);

    std::string_view s_;
    std::size_t pos_ = 0;
};

} // namespace json_detail

/** Serialise @p x through its field list as one JSON document
 * tagged `"<tag>": <version>`. */
template <class T>
std::string
toJson(const T &x, std::string_view tag, int version)
{
    json_detail::Encoder e;
    e.out = "{";
    putJsonString(e.out, tag);
    e.out += ':' + std::to_string(version);
    visitFields(e, x);
    e.out += "}\n";
    return std::move(e.out);
}

/**
 * Decode a toJson() document with the same @p tag and @p version into
 * @p x. On any malformed, missing, unexpected, mistyped or
 * out-of-range field returns false and sets @p err.
 */
template <class T>
bool
fromJson(std::string_view text, std::string_view tag, int version, T &x,
         std::string &err)
{
    json_detail::Decoder d(text);
    d.document(x, tag, version);
    err = std::move(d.err);
    return err.empty();
}

/**
 * fromJson() over the file at @p path, then @p check on the decoded
 * value (returning "" or "<field>: <reason>"). On failure returns
 * false and sets @p err to "<path>: <reason>".
 */
template <class T, class Check>
bool
readJson(const std::string &path, std::string_view tag, int version,
         T &x, std::string &err, Check check)
{
    const auto text = readFile(path);
    if (!text)
        err = "cannot open";
    else if (fromJson(*text, tag, version, x, err))
        err = check(x);
    if (err.empty())
        return true;
    err = path + ": " + err;
    return false;
}

} // namespace jetsim::sim

#endif // JETSIM_SIM_JSON_HH
