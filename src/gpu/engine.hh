/**
 * @file
 * The GPU execution engine.
 *
 * Jetson integrated GPUs do not support MPS (paper S2): concurrent
 * processes share the GPU by *time multiplexing*. The engine models
 * one hardware queue: each process's stream maps onto a channel, and
 * the scheduler runs one channel's kernels at a time, rotating at a
 * quantum boundary or when the channel drains, paying a channel-
 * switch penalty. During a switch the SMs hold resident state but
 * issue nothing — which is exactly how concurrency pushes SM-active
 * up while issue-slot and TC utilisation sag (paper Fig 10).
 *
 * A hypothetical *spatial* sharing mode (idealised MPS, ablation A5)
 * runs all channels concurrently under processor sharing instead.
 */

#ifndef JETSIM_GPU_ENGINE_HH
#define JETSIM_GPU_ENGINE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/cost_model.hh"
#include "gpu/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "soc/board.hh"

namespace jetsim::gpu {

/** Single-device GPU engine with per-process channels. */
class GpuEngine
{
  public:
    /** A channel's completion callback is the event queue's callback
     * type, which never heap-allocates. */
    using Callback = sim::InlineFn;
    using RecordFn = std::function<void(const KernelRecord &)>;

    /** A Subscription's deleter: unsubscribes, then frees. */
    struct Unsubscribe
    {
        GpuEngine *engine = nullptr;
        void operator()(RecordFn *fn) const;
    };

    /** Keeps one record subscriber attached (see subscribe()); reset()
     * or destruction unsubscribes. It must not outlive its engine
     * (~GpuEngine asserts that none is left). */
    using Subscription = std::unique_ptr<RecordFn, Unsubscribe>;

    explicit GpuEngine(soc::Board &board);
    ~GpuEngine();

    GpuEngine(const GpuEngine &) = delete;
    GpuEngine &operator=(const GpuEngine &) = delete;

    /**
     * Create a channel (one per process stream). @p on_done fires
     * once per kernel the channel completes, in submission order,
     * while the channel is alive; it may be empty. Channels are
     * created before the run: creating one from inside a completion
     * callback is a bug (the callback runs in place in the channel
     * table, which the new channel could reallocate).
     */
    int createChannel(const std::string &name, Callback on_done = nullptr);

    /**
     * Retire a channel when its owning stream is destroyed. Queued
     * (not yet started) kernels are dropped and the in-flight one,
     * if any, completes without invoking its callback — submitting
     * to a retired channel afterwards is a JetSan stream-hazard
     * violation (the CUDA use-after-destroy analogue).
     */
    void destroyChannel(int channel);

    /** True while the channel's owning stream is alive. */
    bool channelAlive(int channel) const;

    /**
     * Enqueue @p k on @p channel; the channel's completion callback
     * fires when it finishes. The KernelDesc must outlive the
     * execution (engines own theirs).
     */
    void submit(int channel, const KernelDesc *k);

    /** Kernels queued or executing on @p channel. */
    std::size_t channelDepth(int channel) const;

    /**
     * Highest channelDepth() ever observed on @p channel. The static
     * queue-depth bound in src/absint ((1 + pre_enqueue) x kernels
     * per EC for trtexec-style processes) is checked against this.
     */
    std::size_t peakChannelDepth(int channel) const;

    /** Switch between time-multiplexed (default) and spatial mode. */
    void setSpatialSharing(bool on);

    /**
     * Hand every finished kernel's record to @p fn, in subscription
     * order and before its channel's completion callback, until the
     * subscription is reset (retired channels' kernels reach no one).
     * Subscribers only observe: (un)subscribing from inside a record
     * or completion callback is a bug.
     */
    [[nodiscard]] Subscription subscribe(RecordFn fn);

    /**
     * Extra GPU residency added to every kernel (profiler intrusion:
     * Nsight-style instrumentation serialises per-kernel bookkeeping;
     * the paper reports ~50 % throughput loss in phase 2).
     */
    void setExtraKernelOverhead(sim::Tick t) { extra_overhead_ = t; }

    sim::Tick extraKernelOverhead() const { return extra_overhead_; }

    /** @name Statistics
     * @{ */
    std::uint64_t kernelsExecuted() const { return kernels_executed_; }
    std::uint64_t channelSwitches() const { return channel_switches_; }
    /** @} */

  private:
    /** One queued kernel: descriptor and submit tick (16 bytes; the
     * completion callback is the channel's). */
    struct Queued
    {
        const KernelDesc *desc;
        sim::Tick submit;
    };

    struct Channel
    {
        std::string name;
        Callback on_done;
        sim::Fifo<Queued> queue;
        bool executing = false; // spatial mode only
        bool alive = true;      // owning stream exists
        std::size_t peak_depth = 0;
    };

    /** One in-flight kernel under spatial sharing. */
    struct Exec
    {
        int channel;
        const KernelDesc *desc;
        sim::Tick submit;
        sim::Tick start;
        double remaining_ns; // at exclusive service rate
        KernelTiming timing;
    };

    // --- time-multiplexed path
    void scheduleNext();
    /** The in-flight kernel's residency starts (start_timer_). */
    void startMux();
    /** The in-flight kernel finishes (finish_timer_). */
    void finishMux();

    // --- spatial path
    void spatialStart(int channel);
    void spatialAdvance();
    /** Re-arm spatial_timer_ at the earliest completion, if any. */
    void spatialReschedule();
    /** The earliest in-flight kernels finish (spatial_timer_). */
    void spatialComplete();
    void spatialPublish();

    void publishIdleIfQuiet();

    /** Hand @p rec to every subscriber, then run its channel's
     * completion callback in place, if the channel is alive. */
    void complete(const KernelRecord &rec);

    soc::Board &board_;
    sim::EventQueue &eq_;
    KernelCostModel cost_;
    JitterStream jitter_;

    std::vector<RecordFn *> subscribers_; ///< owned by Subscriptions
    std::vector<Channel> channels_;
    bool in_callback_ = false; ///< a record or completion callback runs
    bool spatial_ = false;
    sim::Tick extra_overhead_ = 0;

    // time-mux state. Exactly one kernel is in flight (busy_), so its
    // record lives here and its two edges are timers the engine owns.
    bool busy_ = false;
    int active_channel_ = -1;
    sim::Tick quantum_start_ = 0;
    KernelRecord inflight_rec_;
    sim::EventQueue::Timer start_timer_;
    sim::EventQueue::Timer finish_timer_;

    // spatial state
    std::vector<Exec> execs_;
    std::vector<Exec> finished_scratch_; ///< reused across fires
    sim::Tick last_advance_ = 0;
    /** spatialComplete runs: its close arms spatial_timer_ once for
     * every kernel started meanwhile. */
    bool spatial_completing_ = false;
    sim::EventQueue::Timer spatial_timer_;

    std::uint64_t kernels_executed_ = 0;
    std::uint64_t channel_switches_ = 0;
};

} // namespace jetsim::gpu

#endif // JETSIM_GPU_ENGINE_HH
