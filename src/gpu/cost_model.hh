/**
 * @file
 * Roofline-style kernel cost model with derived hardware counters.
 *
 * Duration = fixed per-kernel overhead + max(compute, memory) time,
 * where compute time scales with the DVFS frequency and the kernel's
 * shape-dependent efficiency, and memory time with sustained DRAM
 * bandwidth. The same quantities yield the counters the paper reads
 * from Nsight Systems: SM-active (grid occupancy over SMs), issue-
 * slot utilisation, tensor-core utilisation (TC-busy cycles over
 * elapsed), and bandwidth utilisation.
 */

#ifndef JETSIM_GPU_COST_MODEL_HH
#define JETSIM_GPU_COST_MODEL_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "gpu/kernel.hh"
#include "sim/draw_stream.hh"
#include "soc/device_spec.hh"

namespace jetsim::gpu {

/** timing()'s draws per kernel: the body jitter's two uniforms, then
 * the SM-occupancy one. */
using JitterStream = sim::DrawStream<3>;

/**
 * Pure-function cost model for one device. Keeps the device's GpuSpec
 * and name, nothing else of its DeviceSpec.
 *
 * timing() runs in two stages. The device-static one validates the
 * descriptor and computes the capped rate before DVFS scaling, the
 * memory time and the wave occupancy (statics()); the per-call one
 * applies the DVFS point, the latency floor, both jitter draws and the
 * counters. A descriptor whose KernelDesc::statics block carries this
 * GPU's tag skips the first stage; any other (hand-built, restored
 * from a plan, or built for another GPU) runs it on every call. The
 * two paths give the same bits.
 */
class KernelCostModel
{
  public:
    explicit KernelCostModel(const soc::DeviceSpec &spec);

    /**
     * Where timing() draws a call's jitter: a JitterStream (the
     * engine's); a plain Rng, which gives the same draws one call at
     * a time (perfbench's cost-model layer times it so); or nothing,
     * for the deterministic expectation.
     */
    class Draws
    {
      public:
        Draws(std::nullptr_t = nullptr) {}
        Draws(JitterStream *stream) : stream_(stream) {}
        Draws(sim::Rng *rng) : rng_(rng) {}

      private:
        friend class KernelCostModel;
        JitterStream *stream_ = nullptr;
        sim::Rng *rng_ = nullptr;
    };

    /** A stream of timing()'s draws from @p rng. */
    static JitterStream jitterStream(sim::Rng rng);

    /**
     * Timing and counters for @p k at the given DVFS point.
     * @param freq_frac current GPU frequency / max frequency
     * @param draws source of the small execution-time jitter; nullptr
     *        for the deterministic expectation.
     */
    KernelTiming timing(const KernelDesc &k, double freq_frac,
                        Draws draws = nullptr) const;

    /**
     * The device-static stage of timing() for @p k on this GPU, tagged
     * with gpuTag(). A descriptor that fails timing()'s validation
     * gets an untagged block (gpu 0), so JetSan still reports it on
     * every call. Reports nothing itself.
     */
    KernelStatics statics(const KernelDesc &k) const;

    /** Digest of every GpuSpec field, never 0: the tag of the blocks
     * a model for @p g computes and uses. */
    static std::uint64_t gpuTag(const soc::GpuSpec &g);

    /**
     * Sustained GFLOPS this kernel's path achieves (before the
     * per-kernel efficiency scale). 0 means the path is absent and
     * the builder should not have produced this kernel.
     */
    double baseRate(const KernelDesc &k) const;

    /** Fixed per-kernel start/teardown overhead. */
    static constexpr sim::Tick kKernelOverhead = sim::usec(3);

    /**
     * Execution-time jitter envelope: the lognormal(1.0, 0.05) body
     * factor is clamped into [kJitterLo, kJitterHi]. The upper clamp
     * binds with probability < 1e-15 per draw (8 sigma at cv 0.05),
     * so observed timing is unchanged — but every kernel body is now
     * *provably* inside [kJitterLo, kJitterHi] x the deterministic
     * roofline body, which is what the src/absint latency intervals
     * rest on.
     */
    static constexpr double kJitterLo = 0.5;
    static constexpr double kJitterHi = 1.5;

    /** Coefficient of variation of the body factor's lognormal (mean
     * 1) draw. */
    static constexpr double kJitterCv = 0.05;

    /**
     * Longest single kernel body the model will produce, in ns (one
     * simulated hour). Finite-clamping before the Tick cast keeps a
     * degenerate input (zero rate or bandwidth would otherwise yield
     * inf, and casting a non-finite double to an integer is UB).
     */
    static constexpr double kMaxBodyNsCap = 3.6e12;

    /**
     * The body of one call in ns before jitter, over static terms
     * @p s: the roofline max of compute and memory time at DVFS
     * fraction @p freq_frac, raised to the device's latency floor.
     */
    double body(const KernelStatics &s, double flops,
                double freq_frac) const;

    /**
     * Tick of a body of @p body_ns ns at jitter factor @p j: the
     * factor clamped into [kJitterLo, kJitterHi], the product capped
     * at kMaxBodyNsCap, then truncated. Monotone non-decreasing in
     * @p j, as a lognormal draw's Tick map must be.
     */
    static sim::Tick
    jitteredBody(double body_ns, double j)
    {
        return static_cast<sim::Tick>(std::min(
            body_ns * std::clamp(j, kJitterLo, kJitterHi), kMaxBodyNsCap));
    }

  private:
    /** The static stage's block plus the sanitised flops and bytes
     * the per-call stage reads. */
    struct Terms
    {
        KernelStatics block;
        double flops;
        double bytes;
    };

    Terms terms(const KernelDesc &k) const;

    /** JetSan: report what makes @p k fail validation. */
    void reportInvalid(const KernelDesc &k) const;

    /** The per-call stage over static terms @p s. */
    KernelTiming perCall(const KernelDesc &k, const KernelStatics &s,
                         double flops, double bytes, double freq_frac,
                         Draws draws) const;

    /** Does @p k run on the tensor-core path on this GPU? */
    bool
    onTc(const KernelDesc &k) const
    {
        return k.tc && gpu_.hasTensorCores() &&
               k.prec != soc::Precision::Fp32;
    }

    soc::GpuSpec gpu_;
    std::string device_;
    std::uint64_t tag_;
    /** gpu_.peakTcGflops() per precision, in kAllPrecisions order. */
    std::array<double, soc::kAllPrecisions.size()> tc_peak_;
};

} // namespace jetsim::gpu

#endif // JETSIM_GPU_COST_MODEL_HH
