/**
 * @file
 * ExecutionContext: per-inference state (TensorRT analogue).
 *
 * One enqueue() call represents the inference of one batch (the
 * paper's EC_i): the owning CPU thread issues one launch API call per
 * engine kernel onto the process's stream, then the context reports
 * completion when the GPU finishes the last kernel. Multiple ECs may
 * be in flight on the stream (trtexec pre-enqueues one batch), but
 * CPU-side enqueues are naturally serialised by the owning thread.
 *
 * The per-EC record captures the quantities of the paper's kernel-
 * level analysis: total launch-API wall time (which inflates under
 * CPU contention — the K_l growth of Fig 11/12), CPU enqueue span,
 * and GPU completion time.
 */

#ifndef JETSIM_TRT_EXECUTION_CONTEXT_HH
#define JETSIM_TRT_EXECUTION_CONTEXT_HH

#include "cpu/scheduler.hh"
#include "cuda/stream.hh"
#include "sim/draw_stream.hh"
#include "sim/fifo.hh"
#include "sim/inline_fn.hh"
#include "soc/board.hh"
#include "trt/engine.hh"

namespace jetsim::trt {

/** Coefficient of variation of one launch API call's CPU cost. */
inline constexpr double kLaunchCostCv = 0.35;

/** Timing record for one executed EC. */
struct EcRecord
{
    sim::Tick enqueue_begin = 0; ///< enqueue() entry
    sim::Tick enqueue_end = 0;   ///< last launch API returned
    sim::Tick gpu_done = 0;      ///< last kernel completed
    sim::Tick launch_api_total = 0; ///< sum of launch-API wall spans
    int kernels = 0;

    /** Wall duration of the EC (enqueue begin to GPU completion). */
    sim::Tick span() const { return gpu_done - enqueue_begin; }
};

/** Drives one engine's inference invocations. */
class ExecutionContext
{
  public:
    /** Completion callbacks are the event queue's callback type, so
     * an enqueue never heap-allocates. */
    using DoneFn = sim::InlineFn;

    /**
     * @param engine compiled plan (must outlive the context)
     * @param stream the process's CUDA stream
     * @param thread the process's enqueue thread
     * @param board  device (for timing constants and the clock)
     */
    ExecutionContext(const Engine &engine, cuda::Stream &stream,
                     cpu::Thread &thread, soc::Board &board);

    ExecutionContext(const ExecutionContext &) = delete;
    ExecutionContext &operator=(const ExecutionContext &) = delete;

    /**
     * Enqueue one batch inference, recording it into @p rec (which
     * is reset first and must stay valid until @p done fires). @p done
     * fires (in GPU-completion context) when the batch finishes, with
     * @p rec complete; @p cpu_done fires (in thread context) when the
     * CPU-side launch sequence returns — the moment the real
     * enqueueV3() call would return. Must be invoked from the owning
     * thread's logic, and the caller must not issue other work on the
     * thread until @p cpu_done (real TensorRT contexts are not
     * re-entrant either).
     */
    void enqueue(EcRecord &rec, DoneFn done, DoneFn cpu_done = nullptr);

  private:
    /** An EC whose kernels are launched, or being launched, and not
     * yet complete. The stream completes ECs in enqueue order. */
    struct Pending
    {
        EcRecord *rec;
        DoneFn done;
    };

    /** Launch kernel @p i of the EC at the back of inflight_. */
    void launchNext(std::size_t i);

    /** The oldest in-flight EC's last kernel completed. */
    void finishFront();

    const Engine &engine_;
    cuda::Stream &stream_;
    cpu::Thread &thread_;
    soc::Board &board_;
    /** Launch-API cost distribution, rebuilt when its mean moves
     * (attaching a profiler inflates it). */
    sim::Lognormal launch_cost_;
    /** Its draws, one tuple per launch; a new mean applies from the
     * next draw on. */
    sim::DrawStream<2> launch_draws_;
    sim::Fifo<Pending> inflight_;
    /** The launching EC's cpu_done: one launch sequence at a time. */
    DoneFn cpu_done_;
};

} // namespace jetsim::trt

#endif // JETSIM_TRT_EXECUTION_CONTEXT_HH
