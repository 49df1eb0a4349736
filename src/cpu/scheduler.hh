/**
 * @file
 * Time-sharing OS scheduler over big.LITTLE CPU clusters.
 *
 * The model captures the CPU-side phenomena the paper identifies as
 * GPU-performance bottlenecks (Section 7):
 *  - when runnable threads exceed the heavy-load cluster's cores,
 *    execution becomes time-shared: wake-up and re-dispatch latency
 *    appear (B_l, T_l) and grow with the process count;
 *  - preemption at timeslice boundaries charges a context-switch
 *    cost;
 *  - dispatching a thread on a different core than last time inflates
 *    its remaining work by a cache-warmth penalty (the paper's L1/L2
 *    miss-rate growth inflating C_l).
 *
 * Inference (heavy) threads are created with big-cluster affinity,
 * mirroring the 3 heavy cores on Orin Nano / 2 on Nano.
 */

#ifndef JETSIM_CPU_SCHEDULER_HH
#define JETSIM_CPU_SCHEDULER_HH

#include <memory>
#include <vector>

#include "cpu/thread.hh"
#include "sim/event_queue.hh"
#include "soc/board.hh"

namespace jetsim::cpu {

/** Round-robin time-sharing scheduler with per-cluster run queues. */
class OsScheduler
{
  public:
    explicit OsScheduler(soc::Board &board);

    OsScheduler(const OsScheduler &) = delete;
    OsScheduler &operator=(const OsScheduler &) = delete;

    /**
     * Create a thread with affinity to the big (heavy-load) cluster
     * when @p big, otherwise to the LITTLE cluster. The scheduler
     * owns the Thread; the pointer stays valid for its lifetime.
     */
    Thread *createThread(bool big = true);

    /** Cores of the given kind currently executing a thread. */
    int busyCores(bool big) const;

    /** Total context switches charged. */
    std::uint64_t contextSwitches() const { return context_switches_; }

    /** Total timeslice preemptions. */
    std::uint64_t preemptions() const { return preemptions_; }

    /**
     * Ablation hook (A3): when false, big-affinity threads may run on
     * any core (no big.LITTLE partition).
     */
    void setPartitioned(bool on) { partitioned_ = on; }

  private:
    friend class Thread;

    struct Core
    {
        int id = 0;
        bool big = false;
        Thread *running = nullptr;
        Thread *last_thread = nullptr;
        /** When the running thread was dispatched (for the CFS-like
         * minimum-granularity rule). */
        sim::Tick dispatched_at = 0;
    };

    /** Called by Thread::exec when an idle thread gains work. */
    void makeRunnable(Thread *t);

    /** Place runnable threads onto idle cores. */
    void dispatchAll();

    /** Pick an idle core usable by @p t; nullptr if none. */
    Core *pickCore(Thread *t);

    /** Begin (or resume) executing @p t on @p core. */
    void dispatch(Core &core, Thread *t);

    /** @p t's slice-end timer fired: a timeslice or work-item
     * boundary on the core it runs on. */
    void sliceEnd(Thread *t);

    /** Thread finished its queue: idle it and free the core. */
    void idleThread(Core &core, Thread *t);

    void updateBoardActivity();

    sim::Fifo<Thread *> &queueFor(bool big)
    {
        return big ? runq_big_ : runq_little_;
    }

    soc::Board &board_;
    sim::EventQueue &eq_;
    std::vector<Core> cores_;
    std::vector<std::unique_ptr<Thread>> threads_;
    sim::Fifo<Thread *> runq_big_;
    sim::Fifo<Thread *> runq_little_;
    bool partitioned_ = true;
    std::uint64_t context_switches_ = 0;
    std::uint64_t preemptions_ = 0;
};

} // namespace jetsim::cpu

#endif // JETSIM_CPU_SCHEDULER_HH
