/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * `fatal()` terminates the run for conditions that are the user's
 * fault (bad configuration, impossible experiment spec). `panic()`
 * aborts for conditions that indicate a bug in the simulator itself.
 * `warn()` and `inform()` report without stopping.
 */

#ifndef JETSIM_SIM_LOGGING_HH
#define JETSIM_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace jetsim::sim {

/** Severity of a log message. */
enum class LogLevel { Info, Warn, Fatal, Panic };

/**
 * Sink invoked for every log message. Tests may replace it to capture
 * output; the default writes to stderr.
 */
using LogSink = void (*)(LogLevel, const std::string &);

/**
 * Replace the process-wide log sink; returns the previous sink.
 *
 * The swap is atomic but deliberately does not wait for concurrent
 * log calls to finish: a thread may still be executing the *old*
 * sink when this returns. Sinks are therefore required to be
 * stateless function pointers that remain callable for the life of
 * the process — do not install a sink that reads state you intend
 * to tear down while other threads can still log (annotated
 * benign-racy in the PR-7 thread-safety audit; see logging.cc).
 */
LogSink setLogSink(LogSink sink);

/** printf-style message formatting used by the helpers below. */
std::string vformat(const char *fmt, std::va_list ap);

/** printf-style formatting into a string, of any length. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a condition the user should know about but not worry over. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a condition that might indicate degraded behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate with exit(1): the simulation cannot continue due to a
 * user-level error (invalid configuration or arguments).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Abort: an internal invariant was violated; this is a simulator bug.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** JETSIM_ASSERT's slow path; `fmt` adds optional context. */
[[noreturn]] void assertFail(const char *func, const char *cond,
                             const char *fmt = nullptr, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Assertion that survives NDEBUG builds: panics with a message when
 * the condition is false. Optional printf-style arguments add
 * context to the failure report.
 */
#define JETSIM_ASSERT(cond, ...)                                        \
    do {                                                                \
        if (!(cond))                                                    \
            ::jetsim::sim::assertFail(__func__, #cond                   \
                                          __VA_OPT__(, ) __VA_ARGS__);  \
    } while (0)

} // namespace jetsim::sim

#endif // JETSIM_SIM_LOGGING_HH
