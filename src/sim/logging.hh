/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * `fatal()` terminates the run for conditions that are the user's
 * fault (bad configuration, impossible experiment spec).
 * JETSIM_ASSERT aborts for conditions that indicate a bug in the
 * simulator itself. `warn()` reports without stopping. Every message
 * goes to stderr.
 */

#ifndef JETSIM_SIM_LOGGING_HH
#define JETSIM_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace jetsim::sim {

/** printf-style message formatting used by the helpers below. */
std::string vformat(const char *fmt, std::va_list ap);

/** printf-style formatting into a string, of any length. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a condition that might indicate degraded behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate with exit(1): the simulation cannot continue due to a
 * user-level error (invalid configuration or arguments).
 */
[[noreturn]] void fatal(const char *fmt, ...)
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
