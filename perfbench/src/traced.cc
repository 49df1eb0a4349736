#include "traced.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/digest.hh"
#include "core/profiler.hh"
#include "cpu/scheduler.hh"
#include "gpu/cost_model.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/jstats.hh"
#include "prof/nsight.hh"
#include "sim/event_queue.hh"
#include "sim/inline_fn.hh"
#include "soc/board.hh"
#include "trt/builder.hh"
#include "workload/inference_process.hh"
#include "workload/serving_process.hh"

namespace jetbench {

namespace {

namespace core = jetsim::core;
namespace sim = jetsim::sim;
namespace soc = jetsim::soc;
using Scope = SpanLog::Scope;
using Metrics = std::map<std::string, double>;

/** core::runMixedExperiment's window extension: keep running until
 * every process has this many ECs, at most this many more windows. */
constexpr std::uint64_t kMinEcs = 3;
constexpr int kMaxExtensions = 12;

/** KernelCostModel::timing calls timed per engine. */
constexpr int kCostModelCalls = 20000;

/** The engine-cache key a build is distinct under. */
std::string
buildKey(const std::string &device, const std::string &model,
         soc::Precision precision, int batch)
{
    return device + "|" + model + "|" + soc::name(precision) + "|" +
           std::to_string(batch);
}

/** What one process of a rebuilt cell measured. */
struct ProcOutcome
{
    bool deployed = false;
    std::uint64_t ecs = 0;
    double throughput = 0;
};

/** Layer counters of one rebuilt cell (summed over a grid). */
struct CellCounts
{
    double graph_builds = 0;
    double trt_builds = 0;
    double deploy_failed = 0;
    double ecs = 0;
    double events = 0;
    double peak_pending = 0; ///< max, not sum
    double sbo_misses = 0;
    double kernels = 0;
    double channel_switches = 0;
    double context_switches = 0;
    double preemptions = 0;
    double migrations = 0;
    double throttle = 0;
    double jstats_samples = 0;
    double nsight_kernels = 0;
    double alloc_setup = 0;
    double alloc_run = 0;
    double setup_ms = 0;
    double cost_model_ns = 0;
    double cost_model_calls = 0;

    void
    add(const CellCounts &o)
    {
        graph_builds += o.graph_builds;
        trt_builds += o.trt_builds;
        deploy_failed += o.deploy_failed;
        ecs += o.ecs;
        events += o.events;
        peak_pending = std::max(peak_pending, o.peak_pending);
        sbo_misses += o.sbo_misses;
        kernels += o.kernels;
        channel_switches += o.channel_switches;
        context_switches += o.context_switches;
        preemptions += o.preemptions;
        migrations += o.migrations;
        throttle += o.throttle;
        jstats_samples += o.jstats_samples;
        nsight_kernels += o.nsight_kernels;
        alloc_setup += o.alloc_setup;
        alloc_run += o.alloc_run;
        setup_ms += o.setup_ms;
        cost_model_ns += o.cost_model_ns;
        cost_model_calls += o.cost_model_calls;
    }
};

struct CellRebuild
{
    CellCounts counts;
    bool all_deployed = false;
    std::vector<ProcOutcome> procs;
};

/** Keeps a computed value observable, so the reads and calls that
 * produce it are not optimised away. */
std::atomic<double> g_sink{0};

void
keep(double v)
{
    g_sink.store(v, std::memory_order_relaxed);
}

/**
 * Rebuild one cell from the public classes in the order
 * core::runMixedExperiment uses, with a span around each layer.
 */
CellRebuild
rebuildCell(const core::ExperimentSpec &spec, SpanLog &log)
{
    namespace wl = jetsim::workload;
    CellRebuild out;
    CellCounts &c = out.counts;
    Scope cell(log, "cell");
    const std::uint64_t allocs0 = threadAllocs();
    const double t0 = nowUs();

    sim::EventQueue eq;
    soc::Board board(soc::deviceByName(spec.device), eq, spec.seed);
    board.governor().setEnabled(spec.dvfs);
    board.start();
    jetsim::cpu::OsScheduler sched(board);
    sched.setPartitioned(spec.biglittle);
    jetsim::gpu::GpuEngine gpu(board);
    gpu.setSpatialSharing(spec.spatial_sharing);

    std::optional<jetsim::graph::Network> net;
    {
        Scope s(log, "graph.build");
        net.emplace(jetsim::models::modelByName(spec.model));
    }
    c.graph_builds = 1;

    std::vector<std::unique_ptr<wl::InferenceProcess>> procs;
    int deployed = 0;
    for (int i = 0; i < spec.processes; ++i) {
        wl::ProcessConfig cfg;
        cfg.name = spec.model + "/" + soc::name(spec.precision) + "." +
                   std::to_string(i);
        cfg.build.precision = spec.precision;
        cfg.build.batch = spec.batch;
        cfg.pre_enqueue = spec.pre_enqueue;
        cfg.start_offset = sim::msec(7) * i;
        Scope s(log, "workload.deploy");
        procs.push_back(std::make_unique<wl::InferenceProcess>(
            board, sched, gpu, *net, std::move(cfg)));
        if (procs.back()->deploy())
            ++deployed;
    }
    c.trt_builds = spec.processes; // deploy() builds one engine each
    c.deploy_failed = spec.processes - deployed;
    out.all_deployed = deployed == spec.processes;
    c.alloc_setup = static_cast<double>(threadAllocs() - allocs0);
    c.setup_ms = (nowUs() - t0) / 1000.0;

    std::optional<jetsim::prof::JStatsSampler> jstats;
    std::unique_ptr<jetsim::prof::NsightTracer> tracer;
    if (out.all_deployed) {
        jstats.emplace(board, sim::msec(100));
        jstats->start();
        if (spec.phase == core::Phase::Deep) {
            tracer = std::make_unique<jetsim::prof::NsightTracer>(
                board, gpu, sim::msec(1));
            tracer->attach();
        }
        const std::uint64_t allocs_run0 = threadAllocs();
        {
            Scope s(log, "sim.warmup");
            for (auto &p : procs)
                p->start();
            eq.runUntil(eq.now() + spec.warmup);
            for (auto &p : procs)
                p->beginMeasurement();
            jstats->reset();
            if (tracer)
                tracer->reset();
        }
        {
            Scope s(log, "sim.run");
            eq.runUntil(eq.now() + spec.duration);
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
        }
        c.alloc_run = static_cast<double>(threadAllocs() - allocs_run0);
    }
    {
        // The reads core::runMixedExperiment's reduction makes.
        Scope s(log, "core.reduce");
        double acc = 0;
        if (jstats)
            acc += jstats->avgPowerW() + jstats->maxPowerW() +
                   jstats->avgGpuUtilPct() + jstats->peakMemPct();
        if (tracer) {
            const auto sm = tracer->smActiveCdf();
            const auto issue = tracer->issueSlotCdf();
            const auto tc = tracer->tcUtilCdf();
            acc += static_cast<double>(sm.count() + issue.count() + tc.count());
        }
        for (const auto &p : procs) {
            ProcOutcome po;
            po.deployed = p->deployed();
            if (po.deployed) {
                po.ecs = p->ecsCompleted();
                po.throughput = p->throughput();
                acc += p->ecPeriod().mean() + p->ecSpan().mean() +
                       p->enqueueSpan().mean() +
                       p->launchApiPerEc().mean() +
                       p->syncSpan().mean() + p->blockedTime().mean();
            }
            out.procs.push_back(po);
        }
        keep(acc);
    }

    c.events = static_cast<double>(eq.executed());
    const auto st = eq.stats();
    c.peak_pending = static_cast<double>(st.peak_pending);
    c.sbo_misses = static_cast<double>(st.sbo_misses);
    c.kernels = static_cast<double>(gpu.kernelsExecuted());
    c.channel_switches = static_cast<double>(gpu.channelSwitches());
    c.context_switches = static_cast<double>(sched.contextSwitches());
    c.preemptions = static_cast<double>(sched.preemptions());
    for (const auto &p : procs) {
        c.migrations += static_cast<double>(p->thread().migrations());
        if (p->deployed())
            c.ecs += static_cast<double>(p->ecsCompleted());
    }
    c.throttle = static_cast<double>(board.governor().throttleEvents());
    if (jstats) {
        c.jstats_samples = static_cast<double>(jstats->samples().size());
        jstats->stop();
    }
    if (tracer) {
        c.nsight_kernels = static_cast<double>(tracer->kernelCount());
        tracer->detach();
    }
    return out;
}

/** Add the host ns spent in KernelCostModel::timing over @p kernels
 * (kCostModelCalls calls) to @p c. */
void
timeCostModel(const soc::DeviceSpec &device,
              const std::vector<jetsim::gpu::KernelDesc> &kernels,
              std::uint64_t seed, CellCounts &c)
{
    if (kernels.empty())
        return;
    const jetsim::gpu::KernelCostModel model(device);
    sim::Rng rng(seed);
    sim::Tick sum = 0;
    int calls = 0;
    const double t0 = nowUs();
    while (calls < kCostModelCalls) {
        for (const auto &k : kernels)
            sum += model.timing(k, 1.0, &rng).duration;
        calls += static_cast<int>(kernels.size());
    }
    c.cost_model_ns += (nowUs() - t0) * 1000.0;
    c.cost_model_calls += calls;
    keep(static_cast<double>(sum));
}

/**
 * The layers a cell's deploy() hides: one standalone trt.build per
 * process for the same net and config, and the host cost of
 * KernelCostModel::timing over the built engine's kernels.
 */
void
standaloneLayers(const core::ExperimentSpec &spec, SpanLog &log,
                 CellCounts &c)
{
    const soc::DeviceSpec device = soc::deviceByName(spec.device);
    const jetsim::graph::Network net =
        jetsim::models::modelByName(spec.model);
    jetsim::trt::BuilderConfig bc;
    bc.precision = spec.precision;
    bc.batch = spec.batch;
    std::optional<jetsim::trt::Engine> engine;
    for (int i = 0; i < spec.processes; ++i) {
        Scope s(log, "trt.build");
        const jetsim::trt::Builder builder(device);
        engine.emplace(builder.build(net, bc));
    }

    timeCostModel(device, engine->kernels(), spec.seed, c);
}

/** Compare a rebuilt cell with the library's result for it. */
void
checkCell(const CellRebuild &rb, const core::ExperimentResult &lib,
          TraceReport &rep)
{
    ++rep.checks;
    bool same = rb.all_deployed == lib.all_deployed &&
                rb.procs.size() == lib.procs.size();
    for (std::size_t i = 0; same && i < rb.procs.size(); ++i) {
        const auto &a = rb.procs[i];
        const auto &b = lib.procs[i];
        same = a.deployed == b.deployed && a.ecs == b.ecs &&
               a.throughput == b.throughput;
    }
    if (!same) {
        ++rep.mismatches;
        rep.notes.push_back("rebuilt cell differs from runExperiment: " +
                            lib.spec.label());
    }
}

void
putCostModel(const CellCounts &c, Metrics &m)
{
    m["gpu.cost_model_ns"] =
        c.cost_model_calls > 0 ? c.cost_model_ns / c.cost_model_calls : 0;
}

void
putCounts(const CellCounts &c, const SpanLog &log, Metrics &m)
{
    m["graph.build_ms"] = log.totalMs("graph.build");
    m["graph.builds"] = c.graph_builds;
    m["trt.build_ms"] = log.totalMs("trt.build");
    m["trt.builds"] = c.trt_builds;
    m["workload.deploy_ms"] = log.totalMs("workload.deploy");
    m["workload.deploy_failed"] = c.deploy_failed;
    m["workload.ecs"] = c.ecs;
    m["sim.setup_ms"] = c.setup_ms;
    m["sim.warmup_ms"] = log.totalMs("sim.warmup");
    m["sim.run_ms"] = log.totalMs("sim.run");
    m["sim.events"] = c.events;
    const double sim_ms = m["sim.warmup_ms"] + m["sim.run_ms"];
    m["sim.ns_per_event"] = c.events > 0 ? sim_ms * 1e6 / c.events : 0;
    m["sim.peak_pending"] = c.peak_pending;
    m["sim.sbo_misses"] = c.sbo_misses;
    m["gpu.kernels"] = c.kernels;
    m["gpu.channel_switches"] = c.channel_switches;
    putCostModel(c, m);
    m["cpu.context_switches"] = c.context_switches;
    m["cpu.preemptions"] = c.preemptions;
    m["cpu.migrations"] = c.migrations;
    m["soc.dvfs_throttle_events"] = c.throttle;
    m["prof.jstats_samples"] = c.jstats_samples;
    m["prof.nsight_kernels"] = c.nsight_kernels;
    m["core.reduce_ms"] = log.totalMs("core.reduce");
    m["alloc.setup"] = c.alloc_setup;
    m["alloc.run"] = c.alloc_run;
    m["alloc.run_per_event"] = c.events > 0 ? c.alloc_run / c.events : 0;
}

void
putBuildRedundancy(const std::set<std::string> &distinct, Metrics &m)
{
    m["trt.distinct_builds"] = static_cast<double>(distinct.size());
    const double builds = m["trt.builds"];
    m["trt.redundant_build_frac"] =
        builds > 0 ? 1.0 - static_cast<double>(distinct.size()) / builds
                   : 0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

void
traceCells(const Inputs &in, const Outcome &untraced,
           const std::vector<std::uint64_t> &digests, double base_ms,
           TraceReport &rep, Metrics &m)
{
    const auto &cells = in.cells;
    const bool grid = in.workload == Workload::PaperGrid;
    // The grid is rebuilt on as many workers as its Runner uses, so
    // traced and untraced wall times compare.
    const int workers = grid ? benchThreads() : 1;
    std::vector<CellRebuild> rebuilt(cells.size());
    std::vector<SpanLog> logs;
    for (int w = 0; w < workers; ++w)
        logs.emplace_back(w + 1, static_cast<std::uint32_t>(w + 1) << 24);

    setAllocCounting(true);
    const double t0 = nowUs();
    if (workers == 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            rebuilt[i] = rebuildCell(cells[i], logs[0]);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&, w] {
                for (std::size_t i; (i = next.fetch_add(1)) < cells.size();)
                    rebuilt[i] = rebuildCell(cells[i], logs[w]);
            });
        for (auto &t : pool)
            t.join();
    }
    const double traced_ms = (nowUs() - t0) / 1000.0;
    setAllocCounting(false);
    {
        Scope root(rep.spans, grid ? "paper_grid.traced" : "cell_deep.traced");
        for (const auto &log : logs)
            rep.spans.adopt(log, rep.spans.current());
    }

    CellCounts total;
    std::set<std::string> distinct;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        standaloneLayers(cells[i], rep.spans, rebuilt[i].counts);
        total.add(rebuilt[i].counts);
        checkCell(rebuilt[i], untraced.cells[i], rep);
        distinct.insert(buildKey(cells[i].device, cells[i].model,
                                 cells[i].precision, cells[i].batch));
    }
    putCounts(total, rep.spans, m);
    putBuildRedundancy(distinct, m);
    m["trace.overhead"] = traced_ms / base_ms - 1.0;

    // Each cell serially through runExperiment: per-cell cost and
    // the Runner's parallel efficiency (1 worker for cell_deep).
    std::vector<double> cell_ms;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double c0 = nowUs();
        core::ExperimentResult r;
        {
            Scope s(rep.spans, "runner.cell");
            r = core::runExperiment(cells[i]);
        }
        cell_ms.push_back((nowUs() - c0) / 1000.0);
        ++rep.checks;
        if (core::resultDigest(r) != digests[i]) {
            ++rep.mismatches;
            rep.notes.push_back("serial runExperiment differs from the "
                                "timed call: " + cells[i].label());
        }
    }
    double sum = 0;
    for (const double x : cell_ms)
        sum += x;
    m["runner.cell_ms_p50"] = quantile(cell_ms, 0.5);
    m["runner.cell_ms_p90"] = quantile(cell_ms, 0.9);
    m["runner.cell_ms_max"] = quantile(cell_ms, 1.0);
    m["runner.efficiency"] = sum / (workers * base_ms);
}

/** One fleet board's stack outside the fleet, as core::runFleet
 * builds it for each device. */
struct StandaloneBoard
{
    explicit StandaloneBoard(const std::string &device)
        : board(soc::deviceByName(device), eq, 1), sched(board),
          gpu(board)
    {
    }

    sim::EventQueue eq;
    soc::Board board;
    jetsim::cpu::OsScheduler sched;
    jetsim::gpu::GpuEngine gpu;
    std::optional<jetsim::workload::ServingProcess> srv;
};

void
traceFleet(const Inputs &in, const Outcome &untraced,
           const std::vector<std::uint64_t> &digests, double base_ms,
           TraceReport &rep, Metrics &m)
{
    namespace wl = jetsim::workload;
    const core::FleetSpec &spec = in.fleet;
    const std::uint64_t want = digests.front();

    // The workload's timed call (or its serial reference) on @p what,
    // in a span of its own.
    const auto timedFleet = [&](const Inputs &what, bool serial,
                                const char *span, double &ms) {
        Scope s(rep.spans, span);
        const double t0 = nowUs();
        core::FleetResult r = runWorkload(what, serial).fleet;
        ms = (nowUs() - t0) / 1000.0;
        return r;
    };
    const auto check = [&](const core::FleetResult &r, const char *what) {
        ++rep.checks;
        if (core::resultDigest(r) != want) {
            ++rep.mismatches;
            rep.notes.push_back(std::string(what) +
                                " digest differs from the timed run");
        }
    };

    // Traced timed call: same topology, allocation counting on.
    const std::uint64_t sbo0 = sim::InlineFn::heapFallbackCount();
    setAllocCounting(true);
    const std::uint64_t a0 = totalAllocs();
    double traced_ms = 0;
    check(timedFleet(in, false, "fleet.timed", traced_ms), "traced");
    const std::uint64_t a1 = totalAllocs();
    const std::uint64_t sbo_misses =
        sim::InlineFn::heapFallbackCount() - sbo0;

    // Phases from outside: set-up is the same fleet with a 1-tick
    // window, warm-up the same fleet with only its warm-up window.
    Inputs setup_in = in;
    setup_in.fleet.warmup = 0;
    setup_in.fleet.duration = 1;
    double setup_ms = 0;
    timedFleet(setup_in, false, "fleet.setup", setup_ms);
    const std::uint64_t a2 = totalAllocs();
    setAllocCounting(false);
    Inputs warmup_in = in;
    warmup_in.fleet.duration = 1;
    double to_warm_ms = 0;
    timedFleet(warmup_in, false, "fleet.warmup", to_warm_ms);

    double serial_ms = 0;
    check(timedFleet(in, true, "fleet.serial", serial_ms), "serial");

    // Per-board set-up layers on standalone boards, and the cost model
    // over each distinct engine.
    std::set<std::string> distinct;
    CellCounts cost;
    double deploy_failed = 0;
    {
        Scope boards(rep.spans, "fleet.boards");
        for (const auto &d : spec.devices) {
            std::optional<jetsim::graph::Network> net;
            {
                Scope s(rep.spans, "graph.build");
                net.emplace(jetsim::models::modelByName(d.model));
            }
            jetsim::trt::BuilderConfig bc;
            bc.precision = d.precision;
            bc.batch = d.batch;
            std::optional<jetsim::trt::Engine> engine;
            {
                Scope s(rep.spans, "trt.build");
                const jetsim::trt::Builder builder(
                    soc::deviceByName(d.device));
                engine.emplace(builder.build(*net, bc));
            }
            if (distinct.insert(buildKey(d.device, d.model, d.precision,
                                         d.batch))
                    .second)
                timeCostModel(soc::deviceByName(d.device),
                              engine->kernels(), spec.seed, cost);
            wl::ServingConfig sc;
            sc.build = bc;
            sc.arrival_rate = d.local_rate;
            std::unique_ptr<StandaloneBoard> node;
            {
                Scope s(rep.spans, "workload.deploy");
                node = std::make_unique<StandaloneBoard>(d.device);
                node->srv.emplace(node->board, node->sched, node->gpu,
                                  *net, sc);
                if (!node->srv->deploy())
                    deploy_failed += 1;
            }
        }
    }

    const auto &f = untraced.fleet;
    const double boards = static_cast<double>(spec.devices.size());
    const double loop_ms = base_ms - setup_ms; // warm-up + window
    double served = 0;
    for (const auto &d : f.devices)
        served += static_cast<double>(d.served);
    const double events = static_cast<double>(f.events);
    const double alloc_setup = static_cast<double>(a2 - a1);
    const double alloc_run = static_cast<double>(a1 - a0) - alloc_setup;

    m["graph.build_ms"] = rep.spans.totalMs("graph.build");
    m["graph.builds"] = boards;
    m["trt.build_ms"] = rep.spans.totalMs("trt.build");
    m["trt.builds"] = boards;
    putBuildRedundancy(distinct, m);
    m["workload.deploy_ms"] = rep.spans.totalMs("workload.deploy");
    m["workload.deploy_failed"] = deploy_failed;
    m["workload.ecs"] = served; // batch 1: one request per EC
    m["sim.setup_ms"] = setup_ms;
    m["sim.warmup_ms"] = to_warm_ms - setup_ms;
    m["sim.run_ms"] = base_ms - to_warm_ms;
    m["sim.events"] = events;
    m["sim.ns_per_event"] = events > 0 ? loop_ms * 1e6 / events : 0;
    m["sim.sbo_misses"] = static_cast<double>(sbo_misses);
    m["sim.epochs"] = static_cast<double>(f.epochs);
    m["sim.barriers"] = static_cast<double>(f.barriers);
    m["sim.messages"] = static_cast<double>(f.messages);
    m["sim.merge_steps"] = static_cast<double>(f.merge_steps);
    m["sim.events_per_epoch"] =
        f.epochs > 0 ? events / static_cast<double>(f.epochs) : 0;
    m["sim.parallel_speedup"] =
        loop_ms > 0 ? (serial_ms - setup_ms) / loop_ms : 0;
    putCostModel(cost, m);
    // runFleet's reduction (per-board results, latency-sample merge)
    // has no public entry point, so core.reduce_ms does not apply and
    // reads 0; the reduction is inside the fleet's sim.run_ms.
    m["core.reduce_ms"] = 0;
    // The fleet is one operation; its serial run is its per-op cost.
    m["runner.cell_ms_p50"] = serial_ms;
    m["runner.cell_ms_p90"] = serial_ms;
    m["runner.cell_ms_max"] = serial_ms;
    m["runner.efficiency"] = serial_ms / (benchThreads() * base_ms);
    m["alloc.setup"] = alloc_setup;
    m["alloc.run"] = alloc_run;
    m["alloc.run_per_event"] = events > 0 ? alloc_run / events : 0;
    m["trace.overhead"] = traced_ms / base_ms - 1.0;
}

} // namespace

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"graph.build_ms", "ms"},
        {"graph.builds", "count"},
        {"trt.build_ms", "ms"},
        {"trt.builds", "count"},
        {"trt.distinct_builds", "count"},
        {"trt.redundant_build_frac", "fraction"},
        {"workload.deploy_ms", "ms"},
        {"workload.deploy_failed", "count"},
        {"workload.ecs", "count"},
        {"sim.setup_ms", "ms"},
        {"sim.warmup_ms", "ms"},
        {"sim.run_ms", "ms"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.peak_pending", "count"},
        {"sim.sbo_misses", "count"},
        {"sim.epochs", "count"},
        {"sim.barriers", "count"},
        {"sim.messages", "count"},
        {"sim.merge_steps", "count"},
        {"sim.events_per_epoch", "count"},
        {"sim.parallel_speedup", "ratio"},
        {"gpu.kernels", "count"},
        {"gpu.channel_switches", "count"},
        {"gpu.cost_model_ns", "ns"},
        {"cpu.context_switches", "count"},
        {"cpu.preemptions", "count"},
        {"cpu.migrations", "count"},
        {"soc.dvfs_throttle_events", "count"},
        {"prof.jstats_samples", "count"},
        {"prof.nsight_kernels", "count"},
        {"core.reduce_ms", "ms"},
        {"runner.cell_ms_p50", "ms"},
        {"runner.cell_ms_p90", "ms"},
        {"runner.cell_ms_max", "ms"},
        {"runner.efficiency", "ratio"},
        {"alloc.setup", "count"},
        {"alloc.run", "count"},
        {"alloc.run_per_event", "count"},
        {"trace.overhead", "ratio"},
    };
    return defs;
}

TraceReport
traceWorkload(const Inputs &in, const Outcome &untraced,
              const std::vector<std::uint64_t> &digests)
{
    TraceReport rep;
    Metrics m;
    // The untraced call once more: the timed call ran in a cold
    // process, so this warm run is what the traced calls compare with.
    double base_ms = 0;
    {
        Scope s(rep.spans, "untraced");
        const double t0 = nowUs();
        runWorkload(in, false);
        base_ms = (nowUs() - t0) / 1000.0;
    }
    if (in.workload == Workload::Fleet1000)
        traceFleet(in, untraced, digests, base_ms, rep, m);
    else
        traceCells(in, untraced, digests, base_ms, rep, m);
    for (const auto &def : perLayerMetrics()) {
        const auto it = m.find(def.name);
        rep.metrics.push_back(it == m.end() ? 0.0 : it->second);
    }
    return rep;
}

} // namespace jetbench
