/**
 * @file
 * CUDA-like stream abstraction over a GPU engine channel.
 *
 * A stream is a FIFO of kernels belonging to one process. Launching
 * is asynchronous from the CPU's point of view; completion order
 * within a stream matches submission order (the engine's channels
 * are FIFOs). Completion-count bookkeeping supports synchronisation
 * (the paper's CudaSynchronization spans).
 */

#ifndef JETSIM_CUDA_STREAM_HH
#define JETSIM_CUDA_STREAM_HH

#include <cstdint>
#include <string>

#include "gpu/engine.hh"
#include "sim/fifo.hh"
#include "sim/inline_fn.hh"

namespace jetsim::cuda {

/** One in-order work queue on the GPU. */
class Stream
{
  public:
    /**
     * @param engine the device's GPU engine
     * @param name   used for the engine channel (diagnostics)
     */
    Stream(gpu::GpuEngine &engine, const std::string &name);

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /**
     * Retires the engine channel: queued kernels are dropped and any
     * in-flight one completes without calling back into this object.
     * Work submitted to the channel afterwards is a JetSan
     * stream-hazard violation. The engine must outlive the stream.
     */
    ~Stream();

    /**
     * Submit @p k for execution after everything previously launched
     * on this stream. Asynchronous: returns immediately.
     */
    void launch(const gpu::KernelDesc *k);

    /** Kernels launched over the stream's lifetime. */
    std::uint64_t submitted() const { return submitted_; }

    /** Kernels completed over the stream's lifetime. */
    std::uint64_t completed() const { return completed_; }

    /** Work still queued or executing. */
    bool idle() const { return completed_ == submitted_; }

    /**
     * Invoke @p cb as soon as completed() >= @p target. Fires
     * immediately (synchronously) when already satisfied.
     */
    void onComplete(std::uint64_t target, sim::InlineFn cb);

    /** The engine channel backing this stream. */
    int channel() const { return channel_; }

  private:
    void kernelDone();

    gpu::GpuEngine &engine_;
    int channel_;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;

    struct Waiter
    {
        std::uint64_t target;
        sim::InlineFn cb;
    };
    sim::Fifo<Waiter> waiters_; // sorted by target (FIFO submit order)
};

} // namespace jetsim::cuda

#endif // JETSIM_CUDA_STREAM_HH
