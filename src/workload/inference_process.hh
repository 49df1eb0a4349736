/**
 * @file
 * One concurrent inference process.
 *
 * A process owns an engine built for its precision/batch, a CUDA
 * stream, an enqueue thread on the big CPU cluster, and its device
 * memory (CUDA runtime overhead + engine footprint). The thread runs
 * one EC loop: prep -> enqueue -> fill the pipeline to
 * 1 + pre_enqueue ECs -> sync the oldest. Only the request source
 * differs between the two operating points the paper's intro cares
 * about (ProcessConfig::arrival_rate):
 *
 *  - Closed loop (trtexec, the paper's capacity measurement): a full
 *    batch is always ready and one batch is pre-enqueued, so the GPU
 *    never idles on host-side prep. The paper notes this makes the
 *    measured throughput an upper bound; ablation A1 quantifies it.
 *    Steady state at pre_enqueue = 1: the GPU executes EC_i while
 *    EC_{i+1} sits in the stream; when EC_i completes, the thread
 *    wakes (sync return, paying B_l), preps, and enqueues EC_{i+2}.
 *  - Open loop (serving, an extension beyond the paper): requests
 *    arrive on their own clock into a FIFO, and latency under
 *    queueing is the QoS metric. A fixed-batch engine serves up to
 *    `batch` queued requests per EC; a short batch is padded, as real
 *    fixed-shape TensorRT engines do.
 */

#ifndef JETSIM_WORKLOAD_INFERENCE_PROCESS_HH
#define JETSIM_WORKLOAD_INFERENCE_PROCESS_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/scheduler.hh"
#include "cuda/device_buffer.hh"
#include "cuda/stream.hh"
#include "graph/network.hh"
#include "prof/cdf.hh"
#include "sim/stats.hh"
#include "trt/builder.hh"
#include "trt/execution_context.hh"

namespace jetsim::workload {

/** Per-process configuration. */
struct ProcessConfig
{
    std::string name = "proc";
    trt::BuilderConfig build;
    /**
     * The request source. Empty: trtexec's closed loop, a full batch
     * is always ready. A rate in images/s: open-loop Poisson arrivals
     * into a FIFO. 0: an open loop fed only by injectArrival(), the
     * fleet balancer's cross-shard dispatch path.
     */
    std::optional<double> arrival_rate;
    /** Extra ECs kept in flight beyond the executing one. */
    int pre_enqueue = 1;
    /** Host-side per-EC work (input prep, bindings, bookkeeping). */
    sim::Tick prep_cost = sim::usec(450);
    /** Stagger offset before a closed loop starts. */
    sim::Tick start_offset = 0;
    /**
     * Busy-spin in cudaStreamSynchronize (trtexec's low-latency sync
     * mode). Spinning threads occupy CPU cores, so once processes
     * outnumber the heavy-load cores the OS time-shares them and
     * completion detection is deferred — the paper's blocking
     * mechanism (S7). false = blocking sync (yield until woken), what
     * servers typically use.
     */
    bool spin_wait = true;
    /** Spin-loop polling granularity. */
    sim::Tick spin_chunk = sim::usec(150);
    /**
     * Stop enqueueing after this many ECs (0 = unbounded). The bound
     * is counted in the enqueue thread's program order, so the number
     * of ECs a bounded process submits is identical across all legal
     * interleavings — the closed-workload property the model checker
     * (src/mc) relies on to compare schedule-independent digests.
     * Remaining in-flight ECs still drain and sync normally.
     */
    std::uint64_t max_ecs = 0;
};

/** A deployed, running inference process. */
class InferenceProcess
{
  public:
    InferenceProcess(soc::Board &board, cpu::OsScheduler &sched,
                     gpu::GpuEngine &gpu, const graph::Network &net,
                     ProcessConfig cfg);

    InferenceProcess(const InferenceProcess &) = delete;
    InferenceProcess &operator=(const InferenceProcess &) = delete;

    /**
     * Build the engine and pin device memory.
     * @return false when unified memory cannot hold the deployment
     *         (the paper's Nano FCN_ResNet50 x4 failure mode).
     */
    bool deploy();

    bool deployed() const { return deployed_; }

    /** Begin the loop, or the arrivals of an open loop (after
     * deploy()). */
    void start();

    /**
     * Externally injected request (open loop only; the fleet
     * balancer's cross-shard dispatch). @p origin is the tick the
     * request entered the system — at the balancer, before the
     * dispatch hop — so request latency includes the network leg.
     * Dropped after stopEnqueue(), like locally generated arrivals.
     */
    void injectArrival(sim::Tick origin);

    /** Accept no new requests; every accepted EC still finishes and
     * is synced. */
    void stopEnqueue() { stopped_ = true; }

    /** Zero all measurement state (end of warm-up). */
    void beginMeasurement();

    /** Freeze the measurement window. */
    void endMeasurement();

    /** @name Results (valid after endMeasurement)
     * @{ */
    double throughput() const; ///< images/s over the window
    /** Images whose EC completed in the window: `batch` per
     * closed-loop EC, the requests it carried per open-loop EC. */
    std::uint64_t imagesCompleted() const { return images_; }
    std::uint64_t ecsCompleted() const { return ecs_; }
    /** Lifetime ECs enqueued (not reset by beginMeasurement). */
    std::uint64_t ecsLaunched() const { return launched_; }
    /** Open-loop requests accepted in the window. */
    std::uint64_t arrived() const { return arrived_; }
    /** Largest open-loop backlog observed during the window. */
    std::size_t maxQueueDepth() const { return max_queue_; }
    /** Pipeline span: enqueue begin to GPU done (includes queueing
     * behind the pre-enqueued EC). */
    const sim::Accumulator &ecSpan() const { return ec_span_; }
    /** EC duration: interval between successive EC completions — the
     * per-EC GPU residency at steady state (the paper's EC_i). */
    const sim::Accumulator &ecPeriod() const { return ec_period_; }
    const sim::Accumulator &enqueueSpan() const { return enqueue_span_; }
    const sim::Accumulator &launchApiPerEc() const { return launch_api_; }
    const sim::Accumulator &syncSpan() const { return sync_span_; }
    /** Per-EC blocking B_l: GPU completion to CPU-side detection. */
    const sim::Accumulator &blockedTime() const { return blocked_; }
    /** Latency samples (ns) for percentile reporting: one pipeline
     * span per closed-loop EC, a la trtexec, and one arrival-to-GPU-
     * done time per open-loop request. */
    const prof::Cdf &latencyCdf() const { return latency_cdf_; }
    /** @} */

    const trt::Engine &engine() const;
    const cpu::Thread &thread() const { return *thread_; }
    const ProcessConfig &config() const { return cfg_; }

    /** Device bytes pinned (runtime overhead + engine footprint). */
    sim::Bytes deviceBytes() const;

  private:
    /** One in-flight EC's bookkeeping. */
    struct Slot
    {
        bool gpu_done = false;
        trt::EcRecord rec;
        std::vector<sim::Tick> arrivals; ///< open-loop requests served
    };

    bool openLoop() const { return cfg_.arrival_rate.has_value(); }
    bool hasWork() const;

    void scheduleArrival();
    void onArrival();
    void kick();
    void prepAndEnqueue();
    void enqueueOne();
    void next();
    void syncFront();
    void spinWait();
    void syncReturn();
    void recordEc(const Slot &slot);

    soc::Board &board_;
    gpu::GpuEngine &gpu_;
    graph::Network net_;
    ProcessConfig cfg_;
    sim::Rng rng_;

    cpu::Thread *thread_;
    std::optional<trt::Engine> engine_;
    std::optional<cuda::Stream> stream_;
    std::optional<trt::ExecutionContext> ctx_;
    std::optional<cuda::DeviceBuffer> runtime_mem_;
    std::optional<cuda::DeviceBuffer> engine_mem_;

    bool deployed_ = false;
    bool stopped_ = false;
    bool measuring_ = false;
    bool cycling_ = false; ///< the thread is inside the EC loop
    std::deque<sim::Tick> queue_; ///< open-loop request origins
    std::deque<std::shared_ptr<Slot>> pending_;
    std::shared_ptr<Slot> waiting_on_;
    sim::Tick sync_begin_ = 0;

    sim::Tick window_start_ = 0;
    sim::Tick window_end_ = 0;
    sim::Tick last_ec_done_ = sim::kTickInvalid;
    std::uint64_t images_ = 0;
    std::uint64_t ecs_ = 0;
    std::uint64_t launched_ = 0;
    std::uint64_t arrived_ = 0;
    std::size_t max_queue_ = 0;
    sim::Accumulator ec_span_;
    sim::Accumulator ec_period_;
    sim::Accumulator enqueue_span_;
    sim::Accumulator launch_api_;
    sim::Accumulator sync_span_;
    sim::Accumulator blocked_;
    prof::Cdf latency_cdf_;
};

} // namespace jetsim::workload

#endif // JETSIM_WORKLOAD_INFERENCE_PROCESS_HH
