/**
 * @file
 * Static description of a target platform (the paper's Table 1, plus
 * the calibrated performance-model parameters behind it).
 *
 * Everything a simulation needs to know about a board lives here:
 * CPU clusters, GPU geometry and effective throughput per precision,
 * unified-memory budget, OS scheduling constants, and power-model
 * coefficients. Factory functions provide the two boards the paper
 * measures (Jetson Orin Nano, Jetson Nano) and the A40-class cloud
 * GPU used by its introduction for the edge-vs-cloud comparison.
 *
 * Calibration: peak rates come from the published architecture specs;
 * the `eff*` factors fold in the sustained efficiency observed in the
 * paper (SM issue-slot utilisation ~25-40 %, TC utilisation ~25-30 %)
 * so that simulated throughput lands on the paper's reported numbers.
 * See DESIGN.md §4 and tests/core/calibration_test.cc.
 */

#ifndef JETSIM_SOC_DEVICE_SPEC_HH
#define JETSIM_SOC_DEVICE_SPEC_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/fields.hh"
#include "sim/types.hh"
#include "soc/precision.hh"

namespace jetsim::soc {

/** One CPU cluster of a big.LITTLE system. */
struct CpuClusterSpec
{
    std::string name;     ///< e.g. "A78AE-big"
    int cores = 0;        ///< cores in this cluster
    double freq_ghz = 0;  ///< nominal frequency
    bool big = false;     ///< heavy-load cluster?
};

/** GPU geometry and calibrated throughput model. */
struct GpuSpec
{
    std::string arch;           ///< "Ampere" / "Maxwell" / ...
    int num_sms = 0;            ///< streaming multiprocessors
    int cuda_cores_per_sm = 0;  ///< CUDA cores per SM
    int tensor_cores_per_sm = 0;///< tensor cores per SM (0 = none)
    double max_freq_ghz = 0;    ///< top DVFS state
    double min_freq_ghz = 0;    ///< lowest DVFS state
    int dvfs_levels = 8;        ///< discrete frequency steps
    double mem_bw_gbps = 0;     ///< peak DRAM bandwidth, GB/s
    double mem_efficiency = 0.6;///< sustained fraction of peak BW

    /**
     * Latency floor for one kernel body: small kernels on embedded
     * GPUs cannot finish faster than this regardless of their work
     * (launch tail, DRAM latency, inter-layer dependencies). This is
     * what makes many-small-kernel models (YoloV8n at batch 1)
     * overhead-bound and is amortised by larger batches.
     */
    sim::Tick min_kernel_latency = sim::usec(25);

    /**
     * Effective sustained GFLOPS on the tensor-core path at max
     * frequency, per precision (0 when the path does not exist, e.g.
     * no tensor cores, or tf32 on Maxwell). int8 values count
     * equivalent 8-bit MAC ops.
     */
    double eff_tc_gflops_int8 = 0;
    double eff_tc_gflops_fp16 = 0;
    double eff_tc_gflops_tf32 = 0;

    /** Effective sustained GFLOPS on the CUDA-core path. */
    double eff_cuda_gflops_fp32 = 0;
    double eff_cuda_gflops_fp16 = 0; ///< 0 ⇒ no fast-fp16 CUDA path

    /** @name Peak rates (for utilisation-counter derivation)
     * @{ */
    double peakCudaGflopsFp32() const;
    /** Peak tensor-core GFLOPS for the given precision; 0 if none. */
    double peakTcGflops(Precision p) const;
    /** @} */

    int totalCudaCores() const { return num_sms * cuda_cores_per_sm; }
    int totalTensorCores() const { return num_sms * tensor_cores_per_sm; }
    bool hasTensorCores() const { return tensor_cores_per_sm > 0; }
};

/** Every GpuSpec field (gpu::KernelCostModel::gpuTag digests them). */
template <class V, sim::FieldsOf<GpuSpec> S>
void
visitFields(V &v, S &g)
{
    v("arch", g.arch);
    v("num_sms", g.num_sms);
    v("cuda_cores_per_sm", g.cuda_cores_per_sm);
    v("tensor_cores_per_sm", g.tensor_cores_per_sm);
    v("max_freq_ghz", g.max_freq_ghz);
    v("min_freq_ghz", g.min_freq_ghz);
    v("dvfs_levels", g.dvfs_levels);
    v("mem_bw_gbps", g.mem_bw_gbps);
    v("mem_efficiency", g.mem_efficiency);
    v("min_kernel_latency", g.min_kernel_latency);
    v("eff_tc_gflops_int8", g.eff_tc_gflops_int8);
    v("eff_tc_gflops_fp16", g.eff_tc_gflops_fp16);
    v("eff_tc_gflops_tf32", g.eff_tc_gflops_tf32);
    v("eff_cuda_gflops_fp32", g.eff_cuda_gflops_fp32);
    v("eff_cuda_gflops_fp16", g.eff_cuda_gflops_fp16);
}

/** Unified-memory budget and per-process footprint constants. */
struct MemorySpec
{
    sim::Bytes total = 0;        ///< physical unified RAM
    sim::Bytes os_reserved = 0;  ///< kernel + desktop + daemons
    /** CUDA context + runtime libraries mapped per process. */
    sim::Bytes process_runtime_overhead = 0;
};

/**
 * Power-model coefficients. Instantaneous power =
 *   idle_w
 * + cpu_core_w × (active big cores) + cpu_little_w × (active LITTLE)
 * + gpu_base_w × gpu_busy
 * + (sm_w × sm_active + tc_w × tc_util + dram_w × bw_util) × f/fmax
 * clamped by the DVFS governor to stay under cap_w.
 */
struct PowerSpec
{
    double idle_w = 0;
    double cap_w = 0;          ///< board power-mode budget
    double cpu_core_w = 0;     ///< per active big core
    double cpu_little_w = 0;   ///< per active LITTLE core
    double gpu_base_w = 0;     ///< any kernel resident
    double sm_w = 0;           ///< scaled by SM-active fraction
    double tc_w = 0;           ///< scaled by TC utilisation
    double dram_w = 0;         ///< scaled by bandwidth utilisation
    /** Thermal throttle threshold in deg C and ambient temperature. */
    double throttle_temp_c = 95.0;
    double ambient_temp_c = 35.0;
};

/** OS / runtime timing constants used by the CPU and CUDA models. */
struct RuntimeSpec
{
    sim::Tick timeslice = sim::msec(2);        ///< scheduler quantum
    sim::Tick context_switch = sim::usec(12);  ///< direct switch cost
    /** Extra first-touch compute inflation after a core migration
     * (models L1/L2 cold misses; the paper's C_l growth). */
    double migration_penalty = 0.25;
    /** CPU-side cost to enqueue one kernel launch. */
    sim::Tick launch_cpu_cost = sim::usec(6);
    /** GPU-side launch latency K_l (paper: 20-100 us). */
    sim::Tick launch_gpu_min = sim::usec(20);
    sim::Tick launch_gpu_max = sim::usec(100);
    /** GPU channel-switch penalty between different processes. */
    sim::Tick channel_switch = sim::usec(35);
    /** GPU scheduler quantum: how long one process's channel keeps
     * the GPU before rotating (Jetson lacks MPS, so sharing is
     * time-multiplexed at this granularity). */
    sim::Tick gpu_quantum = sim::msec(1);
    /** Fixed CPU cost of a cudaStreamSynchronize call. */
    sim::Tick sync_cpu_cost = sim::usec(10);
};

/**
 * Complete platform description. Value type: copy freely; a
 * Simulation owns one per board.
 */
struct DeviceSpec
{
    std::string name;
    std::vector<CpuClusterSpec> clusters;
    GpuSpec gpu;
    MemorySpec memory;
    PowerSpec power;
    RuntimeSpec runtime;

    /**
     * Fraction of DL layer types with a native kernel at precision
     * @p p (1.0 = full support). Layers without a native kernel fall
     * back to the fp32 path at build time — the mechanism behind the
     * Jetson Nano's poor int8/tf32 results (paper §6.1.1).
     */
    double precisionCoverage(Precision p) const;

    /** Convenience: per-coverage table filled by the factories. */
    double coverage_int8 = 1.0;
    double coverage_fp16 = 1.0;
    double coverage_tf32 = 1.0;
    double coverage_fp32 = 1.0;

    /** Number of cores in big (heavy-load) clusters. */
    int bigCores() const;

    /** Number of cores in LITTLE clusters. */
    int littleCores() const;

    int totalCores() const { return bigCores() + littleCores(); }

    /** Memory available to inference processes. */
    sim::Bytes
    availableMemory() const
    {
        return memory.total - memory.os_reserved;
    }
};

/** The NVIDIA Jetson Orin Nano 8 GB (Ampere, 1024 cores, 32 TC),
 * in the 7 W power mode the paper measures. */
DeviceSpec orinNano();

/**
 * The same board in its 15 W power mode (extension): GPU clock up to
 * 1.02 GHz and a 15 W budget. The paper stays in the 7 W mode; this
 * variant quantifies what the bigger envelope buys.
 */
DeviceSpec orinNano15W();

/** The NVIDIA Jetson Nano 4 GB (Maxwell, 128 cores, no TC). */
DeviceSpec jetsonNano();

/**
 * An A40-class cloud GPU (the paper intro's reference point: a single
 * YoloV8n fp16 stream exceeds 1000 img/s). Modelled as a "board" with
 * a large core/TC count and a server-class CPU; used only by the
 * edge-vs-cloud example and tests.
 */
DeviceSpec cloudA40();

/** Look up a device by name ("orin-nano", "nano", "a40"). */
DeviceSpec deviceByName(const std::string &name);

/** Every name deviceByName() accepts, in presentation order. */
const std::vector<std::string> &deviceNames();

/** Non-fatal lookup for validation passes (jetlint). */
std::optional<DeviceSpec> findDevice(const std::string &name);

} // namespace jetsim::soc

#endif // JETSIM_SOC_DEVICE_SPEC_HH
