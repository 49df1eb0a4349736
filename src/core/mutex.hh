/**
 * @file
 * Annotated mutex wrappers: the only sanctioned lock types in src/.
 *
 * core::Mutex wraps std::mutex with Clang thread-safety-analysis
 * capability attributes; core::LockGuard is the RAII scope that the
 * analysis (and the jetrace lock-order auditor) understands. Raw
 * std::mutex / std::lock_guard / std::unique_lock are banned from
 * src/ by jetrace's `raw-mutex` rule: routing every lock through
 * these two types is what makes both the compiler analysis
 * (-Wthread-safety) and the static lock-acquisition-order graph
 * sound — an unwrapped lock would be invisible to both.
 *
 * The wrappers are zero-cost: LockGuard is std::lock_guard with
 * attributes, Mutex is std::mutex with attributes; everything
 * inlines to the identical pthread calls (verified perf-neutral in
 * BENCH_runner.json after the PR-7 migration).
 *
 * Header-only so the lowest layers (sim, check) can use it without a
 * link dependency on jetsim_core.
 */

#ifndef JETSIM_CORE_MUTEX_HH
#define JETSIM_CORE_MUTEX_HH

#include <mutex>

#include "core/thread_annotations.hh"

namespace jetsim::core {

/** Annotated exclusive mutex (capability "mutex"). */
class JETSIM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() JETSIM_ACQUIRE() { m_.lock(); }
    void unlock() JETSIM_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/** RAII lock scope over core::Mutex (annotated std::lock_guard). */
class JETSIM_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) JETSIM_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~LockGuard() JETSIM_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

} // namespace jetsim::core

#endif // JETSIM_CORE_MUTEX_HH
