#include "sim/json.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace jetsim::sim {

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return ss.str();
}

bool
writeFileAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << text;
        if (!out.flush())
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

void
putJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
putJsonNumber(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

namespace json_detail {

void
Decoder::skipWs()
{
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
        ++pos_;
}

bool
Decoder::eat(char c)
{
    skipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
        ++pos_;
        return true;
    }
    return false;
}

bool
Decoder::readString(std::string &out)
{
    if (!eat('"'))
        return false;
    out.clear();
    while (pos_ < s_.size()) {
        const char c = s_[pos_++];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (pos_ >= s_.size())
            return false;
        switch (const char e = s_[pos_++]) {
          case '"':
          case '\\':
          case '/': out += e; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            // The writer escapes only ASCII control characters.
            unsigned code = 0;
            const char *hex = s_.data() + pos_;
            if (pos_ + 4 > s_.size() ||
                std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
                code > 0x7f)
                return false;
            out += static_cast<char>(code);
            pos_ += 4;
            break;
          }
          default: return false;
        }
    }
    return false; // unterminated
}

std::string_view
Decoder::token()
{
    skipWs();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']' && s_[pos_] != ' ' && s_[pos_] != '\n' &&
           s_[pos_] != '\t' && s_[pos_] != '\r')
        ++pos_;
    return s_.substr(start, pos_ - start);
}

std::string
Decoder::join(const std::string &path, std::string_view key)
{
    return path.empty() ? std::string(key)
                        : path + "." + std::string(key);
}

void
Decoder::fail(const std::string &path, const std::string &why)
{
    if (err.empty())
        err = (path.empty() ? std::string("document") : path) + ": " +
              why;
}

} // namespace json_detail

} // namespace jetsim::sim
