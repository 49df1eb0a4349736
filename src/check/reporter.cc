#include "check/reporter.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/env.hh"
#include "core/mutex.hh"

namespace jetsim::check {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

const char *
invariantName(Invariant i)
{
    switch (i) {
      case Invariant::Causality: return "causality";
      case Invariant::MemoryAccounting: return "memory-accounting";
      case Invariant::StreamHazard: return "stream-hazard";
      case Invariant::Plausibility: return "plausibility";
      case Invariant::Determinism: return "determinism";
    }
    return "?";
}

std::string
Violation::str() const
{
    char time_buf[32];
    if (sim_time == kTimeUnknown)
        std::snprintf(time_buf, sizeof(time_buf), "t=?");
    else
        std::snprintf(time_buf, sizeof(time_buf), "t=%lld",
                      static_cast<long long>(sim_time));
    return std::string("jetsan: ") + severityName(severity) + " [" +
           invariantName(invariant) + "] " + component + " " +
           time_buf + ": " + message;
}

Reporter::Reporter()
{
    // Read once at construction, never per-check: the mode is
    // ambient config from the cached startup environment.
    const std::string &m = core::env().check_mode;
    if (m == "log")
        mode_ = Mode::Log;
    else if (m == "count")
        mode_ = Mode::Count;
    else if (m == "abort")
        mode_ = Mode::Abort;
}

Reporter &
Reporter::instance()
{
    // Self-synchronized: every member is guarded by Reporter::mu_.
    static Reporter r; // jetrace: guarded(Reporter::mu_)
    return r;
}

Reporter::Mode
Reporter::setMode(Mode m)
{
    core::LockGuard lock(mu_);
    const Mode prev = mode_;
    mode_ = m;
    return prev;
}

Reporter::Mode
Reporter::mode() const
{
    core::LockGuard lock(mu_);
    return mode_;
}

std::uint64_t
Reporter::total() const
{
    core::LockGuard lock(mu_);
    return total_;
}

std::uint64_t
Reporter::count(Invariant inv) const
{
    core::LockGuard lock(mu_);
    return by_invariant_[static_cast<int>(inv)];
}

void
Reporter::clear()
{
    core::LockGuard lock(mu_);
    total_ = 0;
    for (auto &c : by_invariant_)
        c = 0;
    violations_.clear();
}

void
Reporter::report(Severity sev, Invariant inv, const char *component,
                 std::int64_t sim_time, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);

    Violation v;
    v.severity = sev;
    v.invariant = inv;
    v.component = component;
    v.sim_time = sim_time;
    v.message = buf;

    core::LockGuard lock(mu_);
    ++total_;
    ++by_invariant_[static_cast<int>(inv)];
    if (violations_.size() < kMaxRecorded)
        violations_.push_back(v);

    if (mode_ == Mode::Count)
        return;

    std::fprintf(stderr, "%s\n", v.str().c_str());
    if (mode_ == Mode::Abort && sev == Severity::Error) {
        std::fflush(stderr);
        std::abort();
    }
}

ScopedCapture::ScopedCapture()
    : prev_(Reporter::instance().setMode(Reporter::Mode::Count))
{
    Reporter::instance().clear();
}

ScopedCapture::~ScopedCapture()
{
    Reporter::instance().clear();
    Reporter::instance().setMode(prev_);
}

} // namespace jetsim::check
