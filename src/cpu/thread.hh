/**
 * @file
 * Simulated CPU thread.
 *
 * Threads execute *work items*: a duration of CPU work plus a
 * completion callback. Between items a thread is idle (blocked —
 * e.g. waiting on a cudaStreamSynchronize); queueing a new item makes
 * it runnable and the OS scheduler dispatches it onto a core.
 *
 * The accounting here feeds the paper's Section 7 decomposition
 * EC_i = sum_l (K_l + T_l + C_l + B_l):
 *  - wakeWait()    — B_l: runnable-after-idle until first dispatch;
 *  - preemptWait() — T_l: re-dispatch latency after preemption;
 *  - cpuTime()     — C_l: work actually executed (including the
 *                    cache-migration inflation);
 *  - cachePenalty() — the inflation component alone.
 */

#ifndef JETSIM_CPU_THREAD_HH
#define JETSIM_CPU_THREAD_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/inline_fn.hh"
#include "sim/types.hh"

namespace jetsim::cpu {

class OsScheduler;

/** One schedulable thread. Created via OsScheduler::createThread(). */
class Thread
{
  public:
    /** Thread scheduling states. */
    enum class State { Idle, Runnable, Running };

    /**
     * Queue @p work nanoseconds of CPU work; @p done fires when the
     * work completes (from scheduler context). If the thread was
     * idle it becomes runnable. Items execute FIFO.
     */
    void exec(sim::Tick work, sim::InlineFn done);

    /**
     * Busy-poll until @p *ready: queue one @p chunk-long item that,
     * each time it ends, reads @p *ready. While false the same item
     * runs another @p chunk — the thread keeps its core unless the
     * scheduler preempts it at that boundary, exactly as if a fresh
     * chunk had been exec()'d — and once true it completes and
     * @p done fires. Called with an empty queue; @p ready must stay
     * valid until then.
     */
    void spin(sim::Tick chunk, const bool *ready, sim::InlineFn done);

    /** Creation index in the owning scheduler: 0 for its first
     * thread, then 1, 2, ... */
    int index() const { return index_; }
    State state() const { return state_; }

    /** @name Accounting (Section 7 decomposition)
     * @{ */
    sim::Tick cpuTime() const { return cpu_time_; }
    sim::Tick wakeWait() const { return wake_wait_; }
    sim::Tick preemptWait() const { return preempt_wait_; }
    sim::Tick cachePenalty() const { return cache_penalty_; }
    std::uint64_t preemptions() const { return preemptions_; }
    std::uint64_t migrations() const { return migrations_; }
    std::uint64_t dispatches() const { return dispatches_; }
    /** @} */

    /** Zero all accounting (used after warm-up). */
    void resetStats();

  private:
    friend class OsScheduler;

    Thread(int index, bool big, OsScheduler &sched);

    struct WorkItem
    {
        sim::Tick remaining;
        sim::InlineFn done;
    };

    int index_;
    bool big_;
    OsScheduler &sched_;

    State state_ = State::Idle;
    sim::Fifo<WorkItem> queue_;
    /** The running slice's end: a thread runs one slice at a time. */
    sim::EventQueue::Timer slice_end_;
    /** Non-null while the front item is a spin() poll. */
    const bool *poll_ready_ = nullptr;
    sim::Tick poll_chunk_ = 0;
    int core_ = -1;       ///< core currently running on, -1 if none
    int last_core_ = -1;  ///< core of the previous dispatch
    sim::Tick runnable_since_ = sim::kTickInvalid;
    bool was_preempted_ = false;

    sim::Tick cpu_time_ = 0;
    sim::Tick wake_wait_ = 0;
    sim::Tick preempt_wait_ = 0;
    sim::Tick cache_penalty_ = 0;
    std::uint64_t preemptions_ = 0;
    std::uint64_t migrations_ = 0;
    std::uint64_t dispatches_ = 0;
};

} // namespace jetsim::cpu

#endif // JETSIM_CPU_THREAD_HH
