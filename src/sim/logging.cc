#include "sim/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace jetsim::sim {

namespace {

void
defaultSink(LogLevel level, const std::string &msg)
{
    const char *tag = "info";
    switch (level) {
      case LogLevel::Info: tag = "info"; break;
      case LogLevel::Warn: tag = "warn"; break;
      case LogLevel::Fatal: tag = "fatal"; break;
      case LogLevel::Panic: tag = "panic"; break;
    }
    std::fprintf(stderr, "jetsim: %s: %s\n", tag, msg.c_str());
}

// Atomic: core::Runner workers log concurrently, and a plain global
// here was the first race the pool exposed.
//
// Benign-racy by contract (PR-7 thread-safety audit): a logger that
// loaded the old sink may still be *executing* it after a concurrent
// setLogSink() returns — the swap is atomic but does not wait for
// in-flight calls to drain. That is sound only because LogSink is a
// plain function pointer with no owned state to tear down; sinks
// must stay callable for the life of the process (see the contract
// on setLogSink in logging.hh). A sink with captured state would
// need RCU-style quiescence the simulator has no use for.
std::atomic<LogSink> current_sink{&defaultSink};

LogSink
sink()
{
    return current_sink.load(std::memory_order_acquire);
}

} // namespace

LogSink
setLogSink(LogSink new_sink)
{
    return current_sink.exchange(new_sink ? new_sink : &defaultSink,
                                 std::memory_order_acq_rel);
}

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
inform(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    sink()(LogLevel::Info, vformat(fmt, ap));
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    sink()(LogLevel::Warn, vformat(fmt, ap));
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    sink()(LogLevel::Fatal, vformat(fmt, ap));
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    sink()(LogLevel::Panic, vformat(fmt, ap));
    va_end(ap);
    std::abort();
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
    sink()(LogLevel::Panic, msg);
    std::abort();
}

} // namespace jetsim::sim
