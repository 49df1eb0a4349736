#include "core/profiler.hh"

#include <cstdio>
#include <memory>

#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/jstats.hh"
#include "prof/nsight.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "soc/board.hh"
#include "workload/inference_process.hh"

namespace jetsim::core {

const char *
name(Phase p)
{
    return p == Phase::Deep ? "deep" : "light";
}

std::string
ExperimentSpec::label() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s/%s/%s b%d p%d %s",
                  device.c_str(), model.c_str(), soc::name(precision),
                  batch, processes, name(phase));
    return buf;
}

MixedExperimentSpec
toMixed(const ExperimentSpec &spec)
{
    MixedExperimentSpec mixed;
    sim::zipFields(spec, mixed, [](const auto &a, auto &b) { b = a; });
    mixed.workloads = {WorkloadSpec{spec.model, spec.precision,
                                    spec.batch, spec.processes}};
    return mixed;
}

int
MixedExperimentSpec::totalProcesses() const
{
    int n = 0;
    for (const auto &w : workloads)
        n += w.processes;
    return n;
}

std::string
MixedExperimentSpec::label() const
{
    std::string s = device + "/mix[";
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const auto &w = workloads[i];
        if (i)
            s += " + ";
        s += std::to_string(w.processes) + "x" + w.model + "/" +
             soc::name(w.precision) + " b" +
             std::to_string(w.batch);
    }
    s += std::string("] ") + name(phase);
    return s;
}

namespace {

double
msOrZero(const sim::Accumulator &a)
{
    return a.count() ? sim::toMsec(static_cast<sim::Tick>(a.mean()))
                     : 0.0;
}

ProcessMetrics
collectProcess(const workload::InferenceProcess &p)
{
    ProcessMetrics m;
    m.name = p.config().name;
    m.deployed = p.deployed();
    if (!p.deployed())
        return m;

    m.throughput = p.throughput();
    m.ec_ms = msOrZero(p.ecPeriod());
    m.pipeline_ms = msOrZero(p.ecSpan());
    m.enqueue_ms = msOrZero(p.enqueueSpan());
    m.launch_ms_per_ec = msOrZero(p.launchApiPerEc());
    m.sync_ms = msOrZero(p.syncSpan());
    m.ecs = p.ecsCompleted();

    // B_l: measured directly as GPU-completion-to-detection latency
    // (covers both spin-wait and blocking-sync modes).
    m.blocking_ms_per_ec = msOrZero(p.blockedTime());

    const auto &t = p.thread();
    const double ecs = m.ecs ? static_cast<double>(m.ecs) : 1.0;
    m.resched_ms_per_ec = sim::toMsec(t.preemptWait()) / ecs;
    m.cpu_ms_per_ec = sim::toMsec(t.cpuTime()) / ecs;
    m.cache_ms_per_ec = sim::toMsec(t.cachePenalty()) / ecs;
    m.migrations = t.migrations();
    m.preemptions = t.preemptions();
    return m;
}

/** Everything the generic runner needs for one process. */
struct ProcessPlan
{
    int workload = 0; ///< index into the mixed spec's workloads
    workload::ProcessConfig cfg;
};

} // namespace

MixedExperimentResult
runMixedExperiment(const MixedExperimentSpec &spec)
{
    JETSIM_ASSERT(!spec.workloads.empty());

    MixedExperimentResult res;
    res.spec = spec;
    res.throughput_by_workload.assign(spec.workloads.size(), 0.0);

    sim::EventQueue eq;
    soc::Board board(soc::deviceByName(spec.device), eq, spec.seed);
    board.governor().setEnabled(spec.dvfs);
    board.start();

    cpu::OsScheduler sched(board);
    sched.setPartitioned(spec.biglittle);

    gpu::GpuEngine gpu(board);
    gpu.setSpatialSharing(spec.spatial_sharing);

    std::vector<ProcessPlan> plans;
    int idx = 0;
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        const auto &wl = spec.workloads[w];
        JETSIM_ASSERT(wl.processes >= 1 && wl.batch >= 1);
        for (int i = 0; i < wl.processes; ++i) {
            ProcessPlan plan;
            plan.workload = static_cast<int>(w);
            plan.cfg.name = wl.model + "/" +
                            soc::name(wl.precision) + "." +
                            std::to_string(i);
            plan.cfg.build.precision = wl.precision;
            plan.cfg.build.batch = wl.batch;
            plan.cfg.pre_enqueue = spec.pre_enqueue;
            plan.cfg.start_offset = sim::msec(7) * idx++;
            plans.push_back(std::move(plan));
        }
    }

    std::vector<std::unique_ptr<workload::InferenceProcess>> procs;
    std::vector<int> proc_workload;
    for (auto &plan : plans) {
        const auto &model =
            spec.workloads[static_cast<std::size_t>(plan.workload)].model;
        procs.push_back(std::make_unique<workload::InferenceProcess>(
            board, sched, gpu, models::modelByName(model),
            std::move(plan.cfg)));
        proc_workload.push_back(plan.workload);
        if (procs.back()->deploy())
            ++res.deployed_count;
    }
    res.all_deployed = res.deployed_count == spec.totalProcesses();
    res.mem_pct = board.memory().usagePercent();
    res.workload_mem_mb = sim::toMiB(board.memory().used());

    if (!res.all_deployed) {
        // The paper's boards reboot / fail deployment here; we report
        // the failed cell without running the loop.
        for (auto &p : procs)
            res.procs.push_back(collectProcess(*p));
        return res;
    }

    prof::JStatsSampler jstats(board, sim::msec(100));
    jstats.start();

    std::unique_ptr<prof::NsightTracer> tracer;
    if (spec.phase == Phase::Deep) {
        tracer = std::make_unique<prof::NsightTracer>(board, gpu,
                                                      sim::msec(1));
        tracer->attach();
    }

    for (auto &p : procs)
        p->start();

    // Warm-up, then reset every collector at the measurement start.
    eq.runUntil(eq.now() + spec.warmup);
    for (auto &p : procs)
        p->beginMeasurement();
    jstats.reset();
    if (tracer)
        tracer->reset();

    eq.runUntil(eq.now() + spec.duration);

    // Slow cells (e.g. FCN_ResNet50 at large batch on the Nano) may
    // not complete a single EC inside the nominal window; extend it
    // until every process has a statistically usable sample, the way
    // trtexec keeps iterating until it has enough runs.
    constexpr std::uint64_t kMinEcs = 3;
    constexpr int kMaxExtensions = 12;
    for (int ext = 0; ext < kMaxExtensions; ++ext) {
        bool enough = true;
        for (auto &p : procs)
            enough &= p->ecsCompleted() >= kMinEcs;
        if (enough)
            break;
        eq.runUntil(eq.now() + spec.duration);
    }

    for (auto &p : procs) {
        p->endMeasurement();
        p->stopEnqueue();
    }

    res.avg_power_w = jstats.avgPowerW();
    res.max_power_w = jstats.maxPowerW();
    res.gpu_util_pct = jstats.avgGpuUtilPct();
    res.mem_pct = jstats.peakMemPct();

    res.dvfs_throttle_events =
        static_cast<int>(board.governor().throttleEvents());
    res.final_freq_frac = board.governor().freqFrac();

    if (tracer) {
        res.sm_active = tracer->smActiveCdf();
        res.issue_slot = tracer->issueSlotCdf();
        res.tc_util = tracer->tcUtilCdf();
        res.kernels = tracer->kernelCount();
        res.kernel_us_mean =
            tracer->kernelDuration().count()
                ? sim::toUsec(static_cast<sim::Tick>(
                      tracer->kernelDuration().mean()))
                : 0.0;
    }

    for (std::size_t i = 0; i < procs.size(); ++i) {
        res.procs.push_back(collectProcess(*procs[i]));
        const auto &m = res.procs.back();
        if (m.deployed) {
            res.total_throughput += m.throughput;
            res.throughput_by_workload[static_cast<std::size_t>(
                proc_workload[i])] += m.throughput;
        }
    }

    jstats.stop();
    if (tracer)
        tracer->detach();
    return res;
}

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    JETSIM_ASSERT(spec.processes >= 1 && spec.batch >= 1);

    MixedExperimentResult m = runMixedExperiment(toMixed(spec));

    ExperimentResult res;
    res.spec = spec;
    sim::zipFields(m, res, [](auto &a, auto &b) { b = std::move(a); });

    // Over the deployed processes: each double is summed in process
    // order and then divided, each counter is summed.
    int live = 0;
    for (const auto &p : res.procs) {
        if (!p.deployed)
            continue;
        ++live;
        sim::zipFields(p, res.mean, [](const auto &a, auto &b) {
            using F = std::remove_reference_t<decltype(b)>;
            if constexpr (std::is_same_v<F, double> ||
                          std::is_same_v<F, std::uint64_t>)
                b += a;
        });
    }
    if (live > 0) {
        const double n = live;
        res.throughput_per_process = res.total_throughput / n;
        auto divide = [n](const char *, auto &f) {
            if constexpr (std::is_same_v<decltype(f), double &>)
                f /= n;
        };
        visitFields(divide, res.mean);
        res.mean.deployed = true;
        res.mean.name = "mean";
    }
    return res;
}

std::pair<ExperimentResult, ExperimentResult>
runTwoPhase(ExperimentSpec spec)
{
    spec.phase = Phase::Light;
    ExperimentResult light = runExperiment(spec);
    spec.phase = Phase::Deep;
    ExperimentResult deep = runExperiment(spec);
    return {std::move(light), std::move(deep)};
}

} // namespace jetsim::core
