/**
 * @file
 * Experiment specification and result types — the public face of the
 * profiling library.
 *
 * One ExperimentSpec describes a cell of the paper's measurement
 * grid: device x model x precision x batch x concurrent processes,
 * plus the profiling phase (1 = lightweight jetson-stats/trtexec,
 * 2 = deep Nsight tracing with intrusion) and ablation switches.
 */

#ifndef JETSIM_CORE_EXPERIMENT_HH
#define JETSIM_CORE_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "prof/cdf.hh"
#include "sim/fields.hh"
#include "sim/types.hh"
#include "soc/precision.hh"

namespace jetsim::core {

/** Which methodology phase to run (paper Section 4). */
enum class Phase {
    Light, ///< phase 1: trtexec + jetson-stats, no intrusion
    Deep,  ///< phase 2: + Nsight tracing, ~50 % throughput intrusion
};

inline constexpr std::array<Phase, 2> kAllPhases = {Phase::Light,
                                                    Phase::Deep};

/** "light" or "deep", as in labels and files. */
const char *name(Phase p);

/** Every phase, for names read back (sim::enumFromName). */
constexpr const auto &
enumValues(Phase)
{
    return kAllPhases;
}

/** Full description of one profiling run. */
struct ExperimentSpec
{
    std::string device = "orin-nano"; ///< orin-nano | nano | a40
    std::string model = "resnet50";
    soc::Precision precision = soc::Precision::Fp16;
    int batch = 1;
    int processes = 1;
    Phase phase = Phase::Light;

    sim::Tick warmup = sim::msec(400);
    sim::Tick duration = sim::sec(4);

    /** trtexec pre-enqueue depth (0 disables; ablation A1). */
    int pre_enqueue = 1;
    /** DVFS governor enabled (ablation A2). */
    bool dvfs = true;
    /** big.LITTLE partitioning enabled (ablation A3). */
    bool biglittle = true;
    /** Hypothetical spatial GPU sharing, i.e. MPS (ablation A5). */
    bool spatial_sharing = false;

    std::uint64_t seed = 1;

    /** Compact one-line identity for logs and reports. */
    std::string label() const;

    bool operator==(const ExperimentSpec &) const = default;
};

template <class V, sim::FieldsOf<ExperimentSpec> S>
void
visitFields(V &v, S &s)
{
    v("device", s.device);
    v("model", s.model);
    v("precision", s.precision);
    v("batch", s.batch);
    v("processes", s.processes);
    v("phase", s.phase);
    v("warmup", s.warmup);
    v("duration", s.duration);
    v("pre_enqueue", s.pre_enqueue);
    v("dvfs", s.dvfs);
    v("biglittle", s.biglittle);
    v("spatial_sharing", s.spatial_sharing);
    v("seed", s.seed);
}

/** Per-process measurements (Section 7 decomposition inputs). */
struct ProcessMetrics
{
    std::string name;
    bool deployed = false;
    double throughput = 0;        ///< img/s
    double ec_ms = 0;             ///< mean EC duration (completion period)
    double pipeline_ms = 0;       ///< enqueue-begin to GPU-done span
    double enqueue_ms = 0;        ///< mean CPU enqueue span
    double launch_ms_per_ec = 0;  ///< K: launch-API wall per EC
    double sync_ms = 0;           ///< CS span (wake + sync API)
    double blocking_ms_per_ec = 0;///< B: wake-wait per EC
    double resched_ms_per_ec = 0; ///< T: post-preemption wait per EC
    double cpu_ms_per_ec = 0;     ///< C: CPU work per EC
    double cache_ms_per_ec = 0;   ///< cache-penalty share of C
    std::uint64_t migrations = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t ecs = 0;

    bool operator==(const ProcessMetrics &) const = default;
};

template <class V, sim::FieldsOf<ProcessMetrics> S>
void
visitFields(V &v, S &p)
{
    v("name", p.name);
    v("deployed", p.deployed);
    v("throughput", p.throughput);
    v("ec_ms", p.ec_ms);
    v("pipeline_ms", p.pipeline_ms);
    v("enqueue_ms", p.enqueue_ms);
    v("launch_ms_per_ec", p.launch_ms_per_ec);
    v("sync_ms", p.sync_ms);
    v("blocking_ms_per_ec", p.blocking_ms_per_ec);
    v("resched_ms_per_ec", p.resched_ms_per_ec);
    v("cpu_ms_per_ec", p.cpu_ms_per_ec);
    v("cache_ms_per_ec", p.cache_ms_per_ec);
    v("migrations", p.migrations);
    v("preemptions", p.preemptions);
    v("ecs", p.ecs);
}

/**
 * One group of identical processes inside a mixed (multi-tenant)
 * experiment — e.g. 2x ResNet50 int8 b1 alongside 1x YoloV8n fp16 b4
 * on the same board, the AI-multi-tenancy scenario the paper's
 * related work motivates.
 */
struct WorkloadSpec
{
    std::string model = "resnet50";
    soc::Precision precision = soc::Precision::Fp16;
    int batch = 1;
    int processes = 1;

    bool operator==(const WorkloadSpec &) const = default;
};

template <class V, sim::FieldsOf<WorkloadSpec> S>
void
visitFields(V &v, S &w)
{
    v("model", w.model);
    v("precision", w.precision);
    v("batch", w.batch);
    v("processes", w.processes);
}

/** A heterogeneous concurrent experiment. */
struct MixedExperimentSpec
{
    std::string device = "orin-nano";
    std::vector<WorkloadSpec> workloads;
    Phase phase = Phase::Light;

    sim::Tick warmup = sim::msec(400);
    sim::Tick duration = sim::sec(4);
    int pre_enqueue = 1;
    bool dvfs = true;
    bool biglittle = true;
    bool spatial_sharing = false;
    std::uint64_t seed = 1;

    int totalProcesses() const;
    std::string label() const;

    bool operator==(const MixedExperimentSpec &) const = default;
};

/** @p spec as a one-workload mixed experiment. */
MixedExperimentSpec toMixed(const ExperimentSpec &spec);

template <class V, sim::FieldsOf<MixedExperimentSpec> S>
void
visitFields(V &v, S &s)
{
    v("device", s.device);
    v("workloads", s.workloads);
    v("phase", s.phase);
    v("warmup", s.warmup);
    v("duration", s.duration);
    v("pre_enqueue", s.pre_enqueue);
    v("dvfs", s.dvfs);
    v("biglittle", s.biglittle);
    v("spatial_sharing", s.spatial_sharing);
    v("seed", s.seed);
}

/** Everything one run produces. */
struct ExperimentResult
{
    ExperimentSpec spec;

    /** Deployment outcome. */
    bool all_deployed = false;
    int deployed_count = 0;

    /** SoC level. */
    double total_throughput = 0;     ///< img/s across processes
    double throughput_per_process = 0;
    double avg_power_w = 0;
    double max_power_w = 0;

    /** GPU level. */
    double gpu_util_pct = 0;
    double mem_pct = 0;          ///< of total RAM, incl. OS share
    double workload_mem_mb = 0;  ///< the deployment's own footprint
    int dvfs_throttle_events = 0;
    double final_freq_frac = 1.0;

    /** Phase-2 counter CDFs (percent units; empty in phase 1). */
    prof::Cdf sm_active;
    prof::Cdf issue_slot;
    prof::Cdf tc_util;

    /** Phase-2 kernel spans. */
    double kernel_us_mean = 0;
    std::uint64_t kernels = 0;

    std::vector<ProcessMetrics> procs;

    /** Across deployed processes: the mean of every double field; the
     * total of migrations, preemptions and ecs. */
    ProcessMetrics mean;

    bool operator==(const ExperimentResult &) const = default;
};

template <class V, sim::FieldsOf<ExperimentResult> S>
void
visitFields(V &v, S &r)
{
    v("spec", r.spec);
    v("all_deployed", r.all_deployed);
    v("deployed_count", r.deployed_count);
    v("total_throughput", r.total_throughput);
    v("throughput_per_process", r.throughput_per_process);
    v("avg_power_w", r.avg_power_w);
    v("max_power_w", r.max_power_w);
    v("gpu_util_pct", r.gpu_util_pct);
    v("mem_pct", r.mem_pct);
    v("workload_mem_mb", r.workload_mem_mb);
    v("dvfs_throttle_events", r.dvfs_throttle_events);
    v("final_freq_frac", r.final_freq_frac);
    v("sm_active", r.sm_active);
    v("issue_slot", r.issue_slot);
    v("tc_util", r.tc_util);
    v("kernel_us_mean", r.kernel_us_mean);
    v("kernels", r.kernels);
    v("procs", r.procs);
    v("mean", r.mean);
}

/** Result of a heterogeneous run. */
struct MixedExperimentResult
{
    MixedExperimentSpec spec;
    bool all_deployed = false;
    int deployed_count = 0;

    double total_throughput = 0;
    double avg_power_w = 0;
    double max_power_w = 0;
    double gpu_util_pct = 0;
    double mem_pct = 0;
    double workload_mem_mb = 0;

    /** Aggregate throughput per workload group (spec order). */
    std::vector<double> throughput_by_workload;

    /** Per-process metrics, named "<model>/<precision>.N". */
    std::vector<ProcessMetrics> procs;

    /** Phase-2 counter CDFs (empty in phase 1). */
    prof::Cdf sm_active;
    prof::Cdf issue_slot;
    prof::Cdf tc_util;

    /** Phase-2 kernel spans. */
    double kernel_us_mean = 0;
    std::uint64_t kernels = 0;

    int dvfs_throttle_events = 0;
    double final_freq_frac = 1.0;

    bool operator==(const MixedExperimentResult &) const = default;
};

template <class V, sim::FieldsOf<MixedExperimentResult> S>
void
visitFields(V &v, S &r)
{
    v("spec", r.spec);
    v("all_deployed", r.all_deployed);
    v("deployed_count", r.deployed_count);
    v("total_throughput", r.total_throughput);
    v("avg_power_w", r.avg_power_w);
    v("max_power_w", r.max_power_w);
    v("gpu_util_pct", r.gpu_util_pct);
    v("mem_pct", r.mem_pct);
    v("workload_mem_mb", r.workload_mem_mb);
    v("throughput_by_workload", r.throughput_by_workload);
    v("procs", r.procs);
    v("sm_active", r.sm_active);
    v("issue_slot", r.issue_slot);
    v("tc_util", r.tc_util);
    v("kernel_us_mean", r.kernel_us_mean);
    v("kernels", r.kernels);
    v("dvfs_throttle_events", r.dvfs_throttle_events);
    v("final_freq_frac", r.final_freq_frac);
}

} // namespace jetsim::core

#endif // JETSIM_CORE_EXPERIMENT_HH
