/**
 * @file
 * The JetSan violation reporter.
 *
 * Every runtime invariant check in the simulator funnels through one
 * process-wide Reporter. A violation carries a severity, the
 * invariant class, the reporting component ("sim.event_queue",
 * "soc.memory", ...), the simulated time at which it was detected
 * (kTimeUnknown when the component has no clock), and a formatted
 * message.
 *
 * The reporter's mode decides what happens next:
 *  - Abort: print and abort() on Error (the default — tests and
 *    tier-1 runs must never continue past a simulator bug),
 *  - Log:   print to stderr and keep running (benches, tools),
 *  - Count: record silently (violation-injection tests).
 *
 * The JETSIM_CHECK_MODE environment variable ("abort", "log",
 * "count") overrides the initial mode.
 */

#ifndef JETSIM_CHECK_REPORTER_HH
#define JETSIM_CHECK_REPORTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant.hh"
#include "core/mutex.hh"
#include "core/thread_annotations.hh"

namespace jetsim::check {

/** Sim time for components without access to a clock. */
constexpr std::int64_t kTimeUnknown = -1;

/** One recorded invariant violation. */
struct Violation
{
    Severity severity;
    Invariant invariant;
    std::string component; ///< e.g. "sim.event_queue"
    std::int64_t sim_time; ///< ticks; kTimeUnknown if not available
    std::string message;

    /** One-line rendering used by the Log/Abort modes. */
    std::string str() const;
};

/** Process-wide sink for invariant violations. */
class Reporter
{
  public:
    /** What to do when a violation is reported. */
    enum class Mode { Abort, Log, Count };

    /** The process-wide reporter. */
    static Reporter &instance();

    /** Report one violation (printf-style message). */
    void report(Severity sev, Invariant inv, const char *component,
                std::int64_t sim_time, const char *fmt, ...)
        JETSIM_EXCLUDES(mu_) __attribute__((format(printf, 6, 7)));

    /** Replace the mode; returns the previous one. */
    Mode setMode(Mode m) JETSIM_EXCLUDES(mu_);

    Mode mode() const JETSIM_EXCLUDES(mu_);

    /** Total violations reported since construction / clear(). */
    std::uint64_t total() const JETSIM_EXCLUDES(mu_);

    /** Violations reported for one invariant class. */
    std::uint64_t count(Invariant inv) const JETSIM_EXCLUDES(mu_);

    /**
     * Most recent violations (bounded history), by reference to
     * internal storage — legal only from a quiescent point (no
     * concurrent simulations reporting), e.g. after a Runner batch
     * has joined or under ScopedCapture in a single-threaded test.
     * The thread-safety analysis is suppressed here, so new callers
     * must justify quiescence.
     */
    const std::vector<Violation> &violations() const
        JETSIM_NO_THREAD_SAFETY_ANALYSIS
    {
        return violations_;
    }

    /** Drop all recorded violations and zero the counters. */
    void clear() JETSIM_EXCLUDES(mu_);

  private:
    Reporter();

    static constexpr std::size_t kMaxRecorded = 64;

    /** Guards every member: parallel Runner cells report through the
     * one process-wide instance. */
    mutable core::Mutex mu_;
    Mode mode_ JETSIM_GUARDED_BY(mu_) = Mode::Abort;
    std::uint64_t total_ JETSIM_GUARDED_BY(mu_) = 0;
    std::uint64_t by_invariant_[kInvariantCount] JETSIM_GUARDED_BY(
        mu_) = {};
    std::vector<Violation> violations_ JETSIM_GUARDED_BY(mu_);
};

/**
 * RAII capture scope for violation-injection tests: switches the
 * reporter to Count mode and clears its history, restoring both on
 * destruction. Query what the planted bug produced via the
 * accessors.
 */
class ScopedCapture
{
  public:
    ScopedCapture();
    ~ScopedCapture();

    ScopedCapture(const ScopedCapture &) = delete;
    ScopedCapture &operator=(const ScopedCapture &) = delete;

    std::uint64_t total() const { return Reporter::instance().total(); }

    std::uint64_t count(Invariant inv) const
    {
        return Reporter::instance().count(inv);
    }

    const std::vector<Violation> &violations() const
    {
        return Reporter::instance().violations();
    }

  private:
    Reporter::Mode prev_;
};

} // namespace jetsim::check

#endif // JETSIM_CHECK_REPORTER_HH
