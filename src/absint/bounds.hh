/**
 * @file
 * jetbound: sound static latency / throughput / memory / queue-depth
 * bounds for a deployment spec, derived by abstract interpretation of
 * the same cost and scheduling models the simulator executes.
 *
 * Every time and rate is an Interval whose containment of the
 * simulated value is a *tested property* (tests/absint/soundness_test.cc
 * runs every zoo model x board x process count and asserts lo <= sim
 * <= hi); memory is the exact resident sum, checked the same way. The
 * bounds rest on explicit mechanisms, not tuning:
 *
 *  - Kernel bodies are inside [kJitterLo, kJitterHi] x the
 *    deterministic roofline body (clamped lognormal jitter), and the
 *    body is monotone in DVFS frequency, so evaluating the cost
 *    model at f=1 / f=f_min brackets every reachable duration.
 *  - CPU-side draws (prep, launch) map through
 *    sim::Lognormal::boundedTick, whose Ticks stay inside
 *    mean x [1/kLognormalEnvelope, kLognormalEnvelope].
 *  - The OS scheduler's slice/min-granularity/cache-penalty rules
 *    bound a work item's wall time (see CpuModel::serviceHiMs).
 *  - The GPU's time-multiplexed arbitration rotates cyclically to
 *    the first runnable channel, so between two occupancies of one
 *    channel every other channel runs at most once, for at most
 *    quantum + one maximal kernel + a channel switch.
 *
 * Spatial sharing (the MPS ablation) deliberately has no bounds:
 * analyze() rejects such specs rather than emit unsound intervals.
 */

#ifndef JETSIM_ABSINT_BOUNDS_HH
#define JETSIM_ABSINT_BOUNDS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "absint/interval.hh"
#include "core/experiment.hh"

namespace jetsim::absint {

/** Static duration interval for one GPU kernel. */
struct KernelBound
{
    std::string name;
    int workload = 0;
    Interval ms; ///< occupancy incl. profiler intrusion in hi
};

/**
 * The scheduler constants the CPU-side bound is computed from, kept
 * on the result so the model-checker cross-check (adversarial
 * blocking) can be evaluated later for any max_ecs.
 */
struct CpuModel
{
    double timeslice_ms = 0;
    double ctx_switch_ms = 0;
    int big_cores = 0;
    int procs = 0; ///< competing enqueue threads (one per process)
    double prep_hi_ms = 0;   ///< envelope-clamped host prep
    double launch_hi_ms = 0; ///< envelope-clamped launch API call
    double sync_ms = 0;      ///< cudaStreamSynchronize CPU cost
    double spin_chunk_ms = 0;
    bool spin_wait = true;

    /**
     * Worst-case wall-clock to retire one exec() item of nominal
     * work @p w ms under FIFO run queues:
     *  - cache penalty inflates work to W' <= (4w + ts)/3 (each
     *    dispatch adds <= ts/4, each non-final dispatch retires
     *    >= ts of inflated work), or 1.25 w for single-slice items;
     *  - each dispatch may wait for ceil((P-1)/B)+1 occupancy turns
     *    of at most cs + 1.5 ts each (min-granularity yield), zero
     *    when threads do not outnumber big cores;
     *  - plus one context switch per dispatch.
     */
    double serviceHiMs(double w) const;

    /** Worst-case gap from becoming runnable to first dispatch. */
    double dispatchWaitHiMs() const;
};

/** Per-process bounds (one entry per deployed process). */
struct ProcBounds
{
    std::string name;
    int workload = 0;       ///< index into the mixed spec
    int kernels_per_ec = 0; ///< K: engine kernel count
    /** Static cap on resident kernels in this process's channel:
     * (1 + pre_enqueue) x K, checked vs GpuEngine::peakChannelDepth. */
    int queue_depth_hi = 0;
    /** Run-alone serial GPU time per EC (sum of kernel bounds). */
    Interval gpu_ec_ms;
    /** Pipeline span: enqueue-begin to GPU-done (paper latency). */
    Interval latency_ms;
    /** Completion-to-completion period (paper EC_i). */
    Interval period_ms;
    /** Per-process throughput over the measurement window. */
    Interval throughput_fps;
    /** Per-EC blocking B_l (GPU done -> CPU detection), upper. */
    double blocking_ms_hi = 0;
};

/** Whole-deployment bounds. */
struct DeploymentBounds
{
    bool ok = false;
    std::string error; ///< why analysis refused (when !ok)

    std::string device;
    int processes = 0;
    int pre_enqueue = 1;
    double window_ms = 0; ///< nominal measurement window

    /** @name Memory (MiB)
     * @{ */
    double available_mib = 0;
    double mem_mib = 0; ///< resident high-water: D001's sum (exact)
    bool oom = false;   ///< mem_mib exceeds the budget
    /** @} */

    /** Aggregate throughput cap from GPU serialization: completed
     * ECs beyond the in-flight allowance each hold the GPU for at
     * least their run-alone time. */
    double total_throughput_hi_fps = 0;
    /** total / processes: a bound on the *mean* per-process rate
     * (individual processes may transiently exceed it). */
    double mean_throughput_hi_fps = 0;

    CpuModel cpu;
    double quantum_ms = 0;
    double switch_ms = 0;
    double d_max_hi_ms = 0; ///< heaviest single kernel bound

    std::vector<KernelBound> kernels;
    std::vector<ProcBounds> procs;
};

/** Analyze a heterogeneous deployment. Never runs the simulator. */
DeploymentBounds analyze(const core::MixedExperimentSpec &spec);

/** Analyze a homogeneous grid cell (wrapped into a mixed spec the
 * same way core::runExperiment wraps it). */
DeploymentBounds analyze(const core::ExperimentSpec &spec);

/**
 * Worst-case per-EC blocking for process @p proc when the CPU run
 * queue order is adversarial (jetmc's controlled scheduler may
 * dispatch any queued thread, not the FIFO head) in a closed
 * deployment of @p max_ecs ECs per process: the FIFO chain bound
 * plus every other process's total (cache-inflated) CPU work and
 * per-item context switches — an adversary can steal at most the
 * work that exists. jetmc's observed max_block_ms must stay below
 * this (tests/absint/soundness_test.cc).
 */
double adversarialBlockingHiMs(const DeploymentBounds &b, int proc,
                               std::uint64_t max_ecs);

} // namespace jetsim::absint

#endif // JETSIM_ABSINT_BOUNDS_HH
