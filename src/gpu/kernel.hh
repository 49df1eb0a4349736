/**
 * @file
 * Static and dynamic descriptions of GPU kernels.
 *
 * A KernelDesc is produced once by the TensorRT-like builder for each
 * fused operation of an engine; the GPU cost model turns it into a
 * duration and a set of utilisation counters at execution time.
 */

#ifndef JETSIM_GPU_KERNEL_HH
#define JETSIM_GPU_KERNEL_HH

#include <cstdint>
#include <string>

#include "sim/fields.hh"
#include "sim/types.hh"
#include "soc/precision.hh"

namespace jetsim::gpu {

/**
 * The device-static half of one kernel's timing on one GPU, which
 * KernelCostModel::timing() would otherwise recompute from the
 * descriptor and the GpuSpec on every call (see
 * KernelCostModel::statics). 32 bytes.
 */
struct KernelStatics
{
    /** Sustained rate before DVFS scaling, GFLOPS:
     * min(max(base, 1e-9) * efficiency_scale, 0.95 * peak). */
    double rate = 0.0;
    /** DRAM time at the sustained bandwidth, ns. */
    double mem_ns = 0.0;
    /** Wave occupancy of the launch grid, before jitter. */
    double occupancy = 0.0;
    /** KernelCostModel::gpuTag() of the GPU these were computed on;
     * 0 means there is no block. */
    std::uint64_t gpu = 0;
};

static_assert(sizeof(KernelStatics) <= 32);

/**
 * One compiled GPU kernel (a fused engine operation) with everything
 * the cost model needs. Values are totals for one invocation at the
 * engine's compiled batch size.
 */
struct KernelDesc
{
    std::string name;           ///< e.g. "layer1.0.conv1+bn+relu"

    /** Numeric operations (FLOPs, or 8-bit MAC-equivalents for int8). */
    double flops = 0.0;

    /** DRAM traffic in bytes (weights + activations in and out). */
    double bytes = 0.0;

    /** Compute precision assigned by the builder (post-fallback). */
    soc::Precision prec = soc::Precision::Fp32;

    /** True when the kernel maps onto the tensor-core path. */
    bool tc = false;

    /** Thread blocks in the launch grid (occupancy proxy). */
    int blocks = 1;

    /**
     * Shape-dependent efficiency multiplier applied to the device's
     * base sustained rate. Large regular GEMM-like kernels approach
     * peak (values up to ~3 over a base calibrated near 30 % of
     * peak); small or irregular kernels fall below 1.
     */
    double efficiency_scale = 1.0;

    /**
     * Scalar-instruction issue density, used to derive the SM issue-
     * slot utilisation counter. Tensor-core kernels issue sparsely
     * (~0.3-0.4); plain CUDA math kernels issue densely (~0.7).
     */
    double issue_intensity = 0.4;

    /**
     * Multiplier on tensor-core *residency* relative to the ideal
     * flops/peak time: >1 means the TCs sit occupied-but-stalled
     * (dilated convolutions) — how FCN_ResNet50 shows near-100 % TC
     * utilisation without matching throughput.
     */
    double tc_stall_factor = 1.0;

    /**
     * Device-static timing terms, filled by trt::Builder::build for
     * the GPU it builds on (TensorRT settles its kernel choices when
     * it builds the plan). Derived, so never serialised: a restored
     * plan or a hand-built descriptor has none, and whoever edits a
     * built descriptor's fields must reset it.
     */
    KernelStatics statics;
};

/** Everything but @ref KernelDesc::statics, which is derived. */
template <class V, sim::FieldsOf<KernelDesc> S>
void
visitFields(V &v, S &k)
{
    v("name", k.name);
    v("flops", k.flops);
    v("bytes", k.bytes);
    v("precision", k.prec);
    v("tc", k.tc);
    v("blocks", k.blocks);
    v("efficiency_scale", k.efficiency_scale);
    v("issue_intensity", k.issue_intensity);
    v("tc_stall_factor", k.tc_stall_factor);
}

/** Timing and counters for one kernel execution. */
struct KernelTiming
{
    sim::Tick duration = 0;    ///< total GPU residency
    double sm_active = 0.0;    ///< SM-active fraction during the kernel
    double issue_slot = 0.0;   ///< issue-slot utilisation
    double tc_util = 0.0;      ///< tensor-core utilisation
    double bw_util = 0.0;      ///< DRAM bandwidth utilisation
    double compute_frac = 0.0; ///< fraction of duration compute-bound
};

/** Trace record handed to every record subscriber per executed kernel
 * (GpuEngine::subscribe). */
struct KernelRecord
{
    int channel = -1;
    const KernelDesc *desc = nullptr;
    sim::Tick submit = 0;   ///< when the kernel entered the channel
    sim::Tick start = 0;    ///< execution start (after any switch)
    sim::Tick end = 0;      ///< completion
    KernelTiming timing;
};

} // namespace jetsim::gpu

#endif // JETSIM_GPU_KERNEL_HH
