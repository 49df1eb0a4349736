/**
 * @file
 * Nsight Systems analogue: the phase-2 deep tracer.
 *
 * While attached it (a) records every kernel execution through a GPU
 * engine subscription, (b) samples the SM-active / issue-slot / TC
 * utilisation counters at a fixed period into CDFs (Fig 5 / Fig 10),
 * and (c) *intrudes*: per-kernel instrumentation overhead on the GPU
 * and inflated CPU launch-API costs. The paper measured a ~50 %
 * throughput reduction under Nsight; ablation A4 reproduces it.
 */

#ifndef JETSIM_PROF_NSIGHT_HH
#define JETSIM_PROF_NSIGHT_HH

#include <cstdint>

#include "gpu/engine.hh"
#include "prof/cdf.hh"
#include "sim/stats.hh"
#include "soc/board.hh"

namespace jetsim::prof {

/** Kernel-level tracer with a modelled intrusion. */
class NsightTracer
{
  public:
    /** Default intrusion parameters (calibrated to ~50 % loss). */
    static constexpr sim::Tick kPerKernelOverhead = sim::usec(40);
    static constexpr double kLaunchOverheadFactor = 1.7;

    NsightTracer(soc::Board &board, gpu::GpuEngine &engine,
                 sim::Tick counter_interval = sim::msec(1));

    ~NsightTracer();

    /** Subscribe to the engine's kernel records, start sampling the
     * counters and enable the intrusion. */
    void attach();

    /** Unsubscribe, stop sampling and restore unprofiled
     * behaviour; call it (or destroy the tracer) while the board's
     * queue lives. */
    void detach();

    /** Drop collected data (e.g. after warm-up). */
    void reset();

    /** @name Kernel-span statistics (ns samples)
     * @{ */
    const sim::Accumulator &kernelDuration() const { return duration_; }
    std::uint64_t kernelCount() const { return kernel_count_; }
    /** @} */

    /** @name Counter CDFs (percent units)
     * Sampled at the counter interval while the GPU is busy.
     * @{ */
    const Cdf &smActiveCdf() const { return sm_active_; }
    const Cdf &issueSlotCdf() const { return issue_slot_; }
    const Cdf &tcUtilCdf() const { return tc_util_; }
    /** @} */

  private:
    void sampleCounters();

    soc::Board &board_;
    gpu::GpuEngine &engine_;
    sim::Tick interval_;
    gpu::GpuEngine::Subscription sub_;
    sim::EventQueue::Timer sample_timer_; ///< target: sampleCounters()

    sim::Accumulator duration_;
    std::uint64_t kernel_count_ = 0;
    Cdf sm_active_;
    Cdf issue_slot_;
    Cdf tc_util_;
};

} // namespace jetsim::prof

#endif // JETSIM_PROF_NSIGHT_HH
