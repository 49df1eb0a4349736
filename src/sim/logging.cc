#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace jetsim::sim {

namespace {

/** One "jetsim: <tag>: <msg>" line on stderr. */
void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "jetsim: %s: %s\n", tag, msg.c_str());
}

} // namespace

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
format(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    emit("warn", vformat(fmt, ap));
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    emit("fatal", vformat(fmt, ap));
    va_end(ap);
    std::exit(1);
}

void
assertFail(const char *func, const char *cond, const char *fmt, ...)
{
    std::string msg =
        "assertion failed: " + std::string(func) + ": " + cond;
    if (fmt) {
        std::va_list ap;
        va_start(ap, fmt);
        msg += ": " + vformat(fmt, ap);
        va_end(ap);
    }
    emit("panic", msg);
    std::abort();
}

} // namespace jetsim::sim
