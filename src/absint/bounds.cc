#include "absint/bounds.hh"

#include <algorithm>
#include <cmath>

#include "gpu/cost_model.hh"
#include "models/zoo.hh"
#include "prof/nsight.hh"
#include "sim/rng.hh"
#include "soc/device_spec.hh"
#include "trt/builder.hh"
#include "workload/inference_process.hh"

namespace jetsim::absint {

namespace {

constexpr double kNsToMs = 1e-6;

/** Per-workload-group engine facts shared by its processes. */
struct WorkloadInfo
{
    int kernels = 0;
    int batch = 1;
    double e_lo_ms = 0; ///< sum of kernel lower bounds
    double e_hi_ms = 0; ///< sum of kernel upper bounds
    sim::Bytes engine_bytes = 0;
};

} // namespace

double
CpuModel::dispatchWaitHiMs() const
{
    if (procs <= big_cores || big_cores <= 0)
        return 0.0; // an idle core always exists: dispatch immediate
    // FIFO run queue: at most P-1 threads ahead, B cores serving,
    // each occupancy turn bounded by one context switch plus 1.5
    // timeslices (the min-granularity yield fires at the first slice
    // end past ts/2, and a slice is at most ts).
    const double turns =
        std::ceil(static_cast<double>(procs - 1) /
                  static_cast<double>(big_cores)) +
        1.0;
    return turns * (ctx_switch_ms + 1.5 * timeslice_ms);
}

double
CpuModel::serviceHiMs(double w) const
{
    const double ts = timeslice_ms;
    const double cs = ctx_switch_ms;
    double inflated;  // work incl. worst-case cache penalties
    double dispatches;
    if (1.25 * w <= ts) {
        // Single dispatch: the one cold-start penalty is bounded by
        // the item's own size (factor <= 0.25), and the whole item
        // fits one slice.
        inflated = 1.25 * w;
        dispatches = 1.0;
    } else {
        // Each dispatch adds <= ts/4 penalty and every non-final
        // dispatch retires >= ts of inflated work, so
        // W' <= w + (W'/ts + 1) * ts/4  =>  W' <= (4w + ts)/3.
        inflated = (4.0 * w + ts) / 3.0;
        dispatches = std::floor(inflated / ts) + 1.0;
    }
    return inflated + dispatches * (dispatchWaitHiMs() + cs);
}

DeploymentBounds
analyze(const core::MixedExperimentSpec &spec)
{
    DeploymentBounds b;
    b.device = spec.device;
    b.pre_enqueue = spec.pre_enqueue;
    b.window_ms = sim::toMsec(spec.duration);

    const auto dev = soc::findDevice(spec.device);
    if (!dev) {
        b.error = "unknown device '" + spec.device + "'";
        return b;
    }
    if (spec.spatial_sharing) {
        b.error = "spatial sharing (MPS ablation) is out of the "
                  "abstract domain: bounds model time-multiplexed "
                  "channel arbitration only";
        return b;
    }
    if (spec.workloads.empty()) {
        b.error = "no workloads";
        return b;
    }
    const auto &known = models::allModelNames();
    for (const auto &w : spec.workloads) {
        if (std::find(known.begin(), known.end(), w.model) ==
            known.end()) {
            b.error = "unknown model '" + w.model + "'";
            return b;
        }
        if (w.processes < 1 || w.batch < 1) {
            b.error = "workload '" + w.model +
                      "' needs processes >= 1 and batch >= 1";
            return b;
        }
    }
    if (spec.pre_enqueue < 0 || spec.duration <= 0) {
        b.error = "pre_enqueue must be >= 0 and duration positive";
        return b;
    }

    const int nproc = spec.totalProcesses();
    b.processes = nproc;

    // --- Per-kernel duration intervals --------------------------------
    // Deterministic roofline body at f=1 (largest frequency => least
    // work time) and at the lowest DVFS point, bracketed by the
    // jitter clamp; +-1 ns absorbs the Tick truncations. The deep
    // phase's per-kernel tracer gap extends occupancy on the hi side.
    const double f_lo =
        spec.dvfs ? dev->gpu.min_freq_ghz / dev->gpu.max_freq_ghz
                  : 1.0;
    const bool deep = spec.phase == core::Phase::Deep;
    const double extra_ms =
        deep ? sim::toMsec(prof::NsightTracer::kPerKernelOverhead)
             : 0.0;
    const double lof =
        deep ? prof::NsightTracer::kLaunchOverheadFactor : 1.0;

    const gpu::KernelCostModel cm(*dev);
    constexpr auto kOv =
        static_cast<double>(gpu::KernelCostModel::kKernelOverhead);

    std::vector<WorkloadInfo> infos;
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        const auto &w = spec.workloads[wi];
        const auto eng =
            trt::sharedEngine(*dev, models::modelByName(w.model),
                              trt::BuilderConfig{w.precision, w.batch});
        WorkloadInfo info;
        info.kernels = static_cast<int>(eng->kernels().size());
        info.batch = w.batch;
        info.engine_bytes = eng->deviceBytes();
        for (const auto &k : eng->kernels()) {
            const auto t1 = cm.timing(k, 1.0, nullptr);
            const auto tmin = cm.timing(k, f_lo, nullptr);
            const double body1 =
                static_cast<double>(t1.duration) - kOv;
            const double bodymin =
                static_cast<double>(tmin.duration) - kOv;
            const double lo_ns =
                kOv + std::floor(gpu::KernelCostModel::kJitterLo *
                                 body1);
            const double hi_ns =
                kOv +
                std::ceil(gpu::KernelCostModel::kJitterHi *
                          (bodymin + 1.0)) +
                1.0;
            KernelBound kb;
            kb.name = w.model + "/" + k.name;
            kb.workload = static_cast<int>(wi);
            kb.ms = {lo_ns * kNsToMs, hi_ns * kNsToMs + extra_ms};
            info.e_lo_ms += kb.ms.lo;
            info.e_hi_ms += kb.ms.hi;
            b.d_max_hi_ms = std::max(b.d_max_hi_ms, kb.ms.hi);
            b.kernels.push_back(std::move(kb));
        }
        if (info.kernels == 0 || info.e_lo_ms <= 0.0) {
            b.error = "model '" + w.model +
                      "' produced an empty engine";
            return b;
        }
        infos.push_back(info);
    }

    // --- CPU service model --------------------------------------------
    const auto &rt = dev->runtime;
    const workload::ProcessConfig defaults;
    b.cpu.timeslice_ms = sim::toMsec(rt.timeslice);
    b.cpu.ctx_switch_ms = sim::toMsec(rt.context_switch);
    b.cpu.big_cores = dev->bigCores();
    b.cpu.procs = nproc;
    b.cpu.prep_hi_ms =
        sim::toMsec(workload::kPrepCost) * sim::kLognormalEnvelope;
    b.cpu.launch_hi_ms = sim::toMsec(rt.launch_cpu_cost) * lof *
                         sim::kLognormalEnvelope;
    b.cpu.sync_ms = sim::toMsec(rt.sync_cpu_cost);
    b.cpu.spin_chunk_ms = sim::toMsec(workload::kSpinChunk);
    b.cpu.spin_wait = defaults.spin_wait;

    // --- GPU arbitration ----------------------------------------------
    // Channel rotation is cyclic-first-runnable: between two
    // occupancies of one channel every other channel runs at most
    // once, each for at most quantum + one maximal kernel (the
    // quantum check happens when the *next* kernel is picked) plus a
    // channel switch.
    b.quantum_ms = sim::toMsec(rt.gpu_quantum);
    b.switch_ms = sim::toMsec(rt.channel_switch);
    const double gap_hi =
        nproc > 1 ? static_cast<double>(nproc - 1) *
                            (b.switch_ms + b.quantum_ms +
                             b.d_max_hi_ms) +
                        b.switch_ms
                  : 0.0;

    // --- Memory high-water ---------------------------------------------
    // Each process pins its runtime overhead and its engine's device
    // buffers at deploy and holds them until it exits, so every
    // allocation is resident at once: the high-water mark is exactly
    // jetlint D001's whole sum, and the simulator's sequential deploy
    // fails exactly when that sum exceeds the budget.
    std::vector<std::string> proc_name;
    std::vector<int> proc_workload;
    sim::Bytes need = 0;
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
        const auto &w = spec.workloads[wi];
        for (int i = 0; i < w.processes; ++i) {
            proc_name.push_back(w.model + "/" +
                                soc::name(w.precision) + "." +
                                std::to_string(i));
            proc_workload.push_back(static_cast<int>(wi));
            need += dev->memory.process_runtime_overhead +
                    infos[wi].engine_bytes;
        }
    }
    b.available_mib = sim::toMiB(dev->availableMemory());
    b.mem_mib = sim::toMiB(need);
    b.oom = need > dev->availableMemory();

    // --- Per-process intervals ----------------------------------------
    const double in_flight =
        static_cast<double>(1 + spec.pre_enqueue);
    const double w_ms = b.window_ms;
    double best_rate = 0.0;
    for (std::size_t pi = 0; pi < proc_name.size(); ++pi) {
        const auto &info =
            infos[static_cast<std::size_t>(proc_workload[pi])];
        ProcBounds pb;
        pb.name = proc_name[pi];
        pb.workload = proc_workload[pi];
        pb.kernels_per_ec = info.kernels;
        pb.queue_depth_hi =
            (1 + spec.pre_enqueue) * info.kernels;
        pb.gpu_ec_ms = {info.e_lo_ms, info.e_hi_ms};

        const double kd = static_cast<double>(info.kernels);
        const double detect =
            b.cpu.spin_wait ? b.cpu.serviceHiMs(b.cpu.spin_chunk_ms)
                            : b.cpu.serviceHiMs(b.cpu.sync_ms);
        const double sync_hi = b.cpu.serviceHiMs(b.cpu.sync_ms);
        const double prep_hi = b.cpu.serviceHiMs(b.cpu.prep_hi_ms);
        const double launch_total =
            kd * b.cpu.serviceHiMs(b.cpu.launch_hi_ms);

        // Pipeline span: our K launches (CPU), then the channel
        // drains at most (1+pre) ECs' kernels, each preceded by a
        // full rotation gap.
        const double drain_hi = in_flight * info.e_hi_ms +
                                in_flight * kd * gap_hi;
        const double span_hi = launch_total + drain_hi;
        pb.latency_ms = {info.e_lo_ms, span_hi};

        // Completion period: detection + sync + prep + the span
        // chain on the hi side; on the lo side consecutive
        // completions are separated by one EC's serial kernels
        // (channel FIFO: EC i+1's kernels all run after EC i's
        // last one finishes).
        const double period_hi =
            detect + sync_hi + prep_hi + span_hi;
        pb.period_ms = {info.e_lo_ms, period_hi};

        // B_l: worst case is a completion landing just after the
        // previous EC's detection began — the chain re-runs detect +
        // sync twice around one prep + K launches.
        pb.blocking_ms_hi =
            2.0 * (detect + sync_hi) + prep_hi + launch_total;

        // Throughput: at most one EC per E_lo of exclusive GPU time
        // plus the in-flight allowance at the window edge; at least
        // one EC per period_hi minus two edge ECs. The measured
        // window is >= the nominal one (the runner extends slow
        // cells), which only shrinks the edge terms.
        const double batch = static_cast<double>(info.batch);
        const double tput_hi = 1000.0 * batch / info.e_lo_ms +
                               1000.0 * batch * in_flight / w_ms;
        const double tput_lo = std::max(
            0.0, 1000.0 * batch / period_hi -
                     2000.0 * batch / w_ms);
        pb.throughput_fps = {tput_lo, tput_hi};

        best_rate =
            std::max(best_rate, 1000.0 * batch / info.e_lo_ms);
        b.total_throughput_hi_fps +=
            1000.0 * batch * in_flight / w_ms;
        b.procs.push_back(std::move(pb));
    }
    // Aggregate cap: every completed EC beyond the in-flight
    // allowance holds the (serial) GPU for at least its E_lo, so
    // the sum over processes of (n_p - in_flight) * E_lo_p fits in
    // the window; the best images-per-GPU-second ratio bounds the
    // total.
    b.total_throughput_hi_fps += best_rate;
    b.mean_throughput_hi_fps =
        b.total_throughput_hi_fps / static_cast<double>(nproc);

    b.ok = true;
    return b;
}

DeploymentBounds
analyze(const core::ExperimentSpec &spec)
{
    return analyze(core::toMixed(spec));
}

double
adversarialBlockingHiMs(const DeploymentBounds &b, int proc,
                        std::uint64_t max_ecs)
{
    const CpuModel &cpu = b.cpu;
    const auto &me = b.procs[static_cast<std::size_t>(proc)];
    // The model checker's deployments sync in blocking mode, so
    // detection is a sync item, not a spin chunk.
    const double sync_hi = cpu.serviceHiMs(cpu.sync_ms);
    const double base =
        2.0 * (sync_hi + sync_hi) + cpu.serviceHiMs(cpu.prep_hi_ms) +
        static_cast<double>(me.kernels_per_ec) *
            cpu.serviceHiMs(cpu.launch_hi_ms);

    // Whenever this process waits beyond its own chain, every big
    // core is busy with another process's (cache-inflated) CPU work
    // or a context switch — and a closed workload only has so much
    // of it: per EC one prep, K launches and at most three sync
    // items, for max_ecs plus the in-flight tail.
    const double ts = cpu.timeslice_ms;
    double theft = 0.0;
    for (std::size_t q = 0; q < b.procs.size(); ++q) {
        if (static_cast<int>(q) == proc)
            continue;
        const double kq =
            static_cast<double>(b.procs[q].kernels_per_ec);
        const double ecs = static_cast<double>(max_ecs) + 1.0 +
                           static_cast<double>(b.pre_enqueue);
        const double items = ecs * (kq + 4.0);
        const double work =
            ecs *
            ((4.0 * (cpu.prep_hi_ms + kq * cpu.launch_hi_ms +
                     3.0 * cpu.sync_ms) +
              (kq + 4.0) * ts) /
             3.0);
        theft += work + items * cpu.ctx_switch_ms;
    }
    return base + theft;
}

} // namespace jetsim::absint
