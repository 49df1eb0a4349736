/**
 * @file
 * Ablation A6: google-benchmark microbenchmarks of the simulator
 * itself - event-queue throughput, scheduler dispatch, kernel cost
 * evaluation, engine building, and a full experiment cell. These
 * guard the framework's own performance (a profiling tool must be
 * cheap enough to sweep grids).
 *
 * Invoked with `--json[=path]` the binary instead runs the simcore
 * measurements with plain chrono timing (min over repetitions) and
 * writes BENCH_simcore.json — the committed before/after record for
 * the pooled event core (see EXPERIMENTS.md).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "core/digest.hh"
#include "core/fleet.hh"
#include "core/profiler.hh"
#include "cpu/scheduler.hh"
#include "gpu/cost_model.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "sim/sharded_engine.hh"
#include "soc/board.hh"
#include "trt/builder.hh"

using namespace jetsim;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i, [] {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_SchedulerContention(benchmark::State &state)
{
    const int threads = static_cast<int>(state.range(0));
    // Intern the thread names once: the measured loop should time
    // scheduling, not std::string temporaries.
    std::vector<sim::NameId> ids;
    ids.reserve(threads);
    for (int i = 0; i < threads; ++i)
        ids.push_back(sim::internName("t" + std::to_string(i)));
    for (auto _ : state) {
        sim::EventQueue eq;
        soc::Board board(soc::orinNano(), eq);
        cpu::OsScheduler sched(board);
        for (int i = 0; i < threads; ++i)
            sched.createThread(ids[i])->exec(sim::msec(5), nullptr);
        eq.runAll();
        benchmark::DoNotOptimize(eq.executed());
    }
}
BENCHMARK(BM_SchedulerContention)->Arg(2)->Arg(8)->Arg(16);

/** The fleet spec both the BM_ShardedEngine series and the --json
 * shard block run: 8 devices over both boards with balancer plus
 * local traffic, sized so every shard owns real work. */
static core::FleetSpec
shardBenchSpec()
{
    core::FleetSpec spec;
    for (int d = 0; d < 8; ++d)
        spec.devices.push_back({d % 2 ? "nano" : "orin-nano",
                                d % 4 < 2 ? "resnet18" : "mobilenet_v2",
                                soc::Precision::Int8, 1, 60.0});
    spec.balancer_rate = 500.0;
    spec.warmup = sim::msec(20);
    spec.duration = sim::msec(250);
    spec.seed = 29;
    return spec;
}

static void
BM_ShardedEngine(benchmark::State &state)
{
    // Throughput of the epoch path at shards == threads == range(0);
    // shards=1 is the serial EventQueue baseline through the same
    // fleet. Items processed == simulated events, so the reported
    // items/s is directly the events/s scaling curve.
    const int shards = static_cast<int>(state.range(0));
    const core::FleetSpec spec = shardBenchSpec();
    std::uint64_t events = 0;
    for (auto _ : state) {
        core::FleetOptions o;
        o.shards = shards;
        o.threads = shards;
        const auto r = core::runFleet(spec, o);
        events = r.events;
        benchmark::DoNotOptimize(r.dispatched);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ShardedEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

static void
BM_KernelCostModel(benchmark::State &state)
{
    gpu::KernelCostModel model(soc::orinNano());
    gpu::KernelDesc k;
    k.flops = 1e9;
    k.bytes = 5e6;
    k.prec = soc::Precision::Fp16;
    k.tc = true;
    k.blocks = 512;
    sim::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.timing(k, 0.9, &rng));
}
BENCHMARK(BM_KernelCostModel);

static void
BM_BuildResnet50Engine(benchmark::State &state)
{
    const auto net = models::resnet50();
    trt::Builder builder(soc::orinNano());
    trt::BuilderConfig cfg;
    cfg.precision = soc::Precision::Int8;
    for (auto _ : state)
        benchmark::DoNotOptimize(builder.build(net, cfg));
}
BENCHMARK(BM_BuildResnet50Engine);

static void
BM_BuildYolov8nGraph(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(models::yolov8n());
}
BENCHMARK(BM_BuildYolov8nGraph);

static void
BM_FullExperimentCell(benchmark::State &state)
{
    core::ExperimentSpec s;
    s.model = "resnet50";
    s.precision = soc::Precision::Int8;
    s.processes = static_cast<int>(state.range(0));
    s.warmup = sim::msec(100);
    s.duration = sim::msec(400);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::runExperiment(s));
}
BENCHMARK(BM_FullExperimentCell)->Arg(1)->Arg(4)->Unit(
    benchmark::kMillisecond);

// --------------------------------------------------- --json emitter

namespace {

/** Wall time of one @p fn call, minimised over @p reps runs. The
 * minimum is the standard noise-robust estimator on a shared host. */
template <typename Fn>
double
minSeconds(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

double
scheduleRunEventsPerSec(int reps)
{
    const double s = minSeconds(reps, [] {
        sim::EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i, [] {});
        benchmark::DoNotOptimize(eq.runAll());
    });
    return 1000.0 / s;
}

double
fullCellMs(int processes, int reps)
{
    core::ExperimentSpec spec;
    spec.model = "resnet50";
    spec.precision = soc::Precision::Int8;
    spec.processes = processes;
    spec.warmup = sim::msec(100);
    spec.duration = sim::msec(400);
    return 1e3 * minSeconds(reps, [&spec] {
               benchmark::DoNotOptimize(core::runExperiment(spec));
           });
}

struct ShardPoint
{
    int shards;
    double events_per_sec;
    double speedup;
    bool digest_match;
};

/**
 * The sharded scaling series for the JSON record: the shard-bench
 * fleet at shards == threads in {1, 2, 4, 8}, each point's digest
 * compared against the serial run. events_per_sec counts simulated
 * events (FleetResult::events, shard-count-invariant), so speedup is
 * a pure wall-clock ratio.
 */
std::vector<ShardPoint>
shardSeries(int reps, std::uint64_t &events_out)
{
    const core::FleetSpec spec = shardBenchSpec();
    const auto serial = core::runFleet(spec, {});
    const auto want = core::resultDigest(serial);
    events_out = serial.events;

    std::vector<ShardPoint> out;
    double serial_evps = 0.0;
    for (const int shards : {1, 2, 4, 8}) {
        core::FleetOptions o;
        o.shards = shards;
        o.threads = shards;
        bool match = true;
        const double s = minSeconds(reps, [&spec, &o, &want, &match] {
            const auto r = core::runFleet(spec, o);
            match = match && core::resultDigest(r) == want;
        });
        const double evps = static_cast<double>(serial.events) / s;
        if (shards == 1)
            serial_evps = evps;
        out.push_back({shards, evps,
                       serial_evps > 0.0 ? evps / serial_evps : 0.0,
                       match});
    }
    return out;
}

/** The 1000-board hierarchical fleet (two-hop root -> sub-balancer
 * dispatch): the ISSUE 9 headline configuration, matching the
 * simcheck --fleet-overhead spec and the Fleet.ThousandBoard test. */
core::FleetSpec
fleet1000Spec()
{
    core::FleetSpec spec;
    for (int d = 0; d < 1000; ++d)
        spec.devices.push_back({"orin-nano", "mobilenet_v2",
                                soc::Precision::Int8, 1, 0.0});
    spec.balancer_rate = 25.0 * 1000;
    spec.hierarchical = true;
    spec.warmup = sim::msec(4);
    spec.duration = sim::msec(30);
    spec.seed = 23;
    return spec;
}

struct Fleet1000Point
{
    int shards;
    int threads;
    double events_per_sec;
    double ratio_vs_serial;
    bool digest_match;
    std::uint64_t epochs;
    std::uint64_t barriers;
};

/**
 * The thousand-board series: serial baseline, then the epoch path
 * with parallelism removed (shards=8/threads=1 and shards=16/
 * threads=1 — pure protocol overhead, the CI pass-1c gate shape)
 * and one genuinely threaded point. epochs/barriers record how hard
 * adaptive batching fused lookahead windows (epochs << messages).
 */
std::vector<Fleet1000Point>
fleet1000Series(int reps, std::uint64_t &events_out)
{
    const core::FleetSpec spec = fleet1000Spec();
    const auto serial = core::runFleet(spec, {});
    const auto want = core::resultDigest(serial);
    events_out = serial.events;

    std::vector<Fleet1000Point> out;
    double serial_evps = 0.0;
    for (const auto &[shards, threads] :
         {std::pair{1, 1}, std::pair{8, 1}, std::pair{16, 1},
          std::pair{16, 2}}) {
        core::FleetOptions o;
        o.shards = shards;
        o.threads = threads;
        bool match = true;
        core::FleetResult last;
        const double s =
            minSeconds(reps, [&spec, &o, &want, &match, &last] {
                last = core::runFleet(spec, o);
                match = match && core::resultDigest(last) == want;
            });
        const double evps = static_cast<double>(serial.events) / s;
        if (shards == 1)
            serial_evps = evps;
        out.push_back({shards, threads, evps,
                       serial_evps > 0.0 ? evps / serial_evps : 0.0,
                       match, last.epochs, last.barriers});
    }
    return out;
}

/** Peak resident set (MB) of this process so far — after the 1000-
 * board series it bounds the fleet's memory footprint. */
double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Seed-commit baselines, measured with this same emitter method
 * (min over repetitions) on the shared reference host below before
 * the pooled event core landed. Committed so the "speedup" fields
 * stay meaningful without rebuilding the seed.
 */
constexpr double kSeedScheduleRunEvPerSec = 7.97e6;
constexpr double kSeedFullCell1Ms = 9.00;
constexpr double kSeedFullCell4Ms = 10.6;
/** bench::kHostNote plus the cross-reference to the seed numbers. */
const std::string kHostNote = std::string(bench::kHostNote) +
    "; same flags and host class as the seed baselines and "
    "BENCH_runner.json; shared-host absolute numbers drift between "
    "records (all sections are re-measured together, so compare "
    "within one record); the sharded_fleet series on a 1-core host "
    "records scheduling overhead, not scaling - see the cores field";

int
emitJson(const std::string &path)
{
    std::fprintf(stderr, "measuring simcore benchmarks...\n");
    const double sched = scheduleRunEventsPerSec(400);
    const double cell1 = fullCellMs(1, 6);
    const double cell4 = fullCellMs(4, 6);
    std::uint64_t fleet_events = 0;
    const auto shard_pts = shardSeries(4, fleet_events);
    std::uint64_t fleet1000_events = 0;
    const auto fleet1000_pts = fleet1000Series(3, fleet1000_events);
    const double peak_rss_mb = peakRssMb();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"host\": \"%s\",\n", kHostNote.c_str());
    std::fprintf(f, "  \"event_queue_schedule_run\": {\n");
    std::fprintf(f, "    \"events_per_sec\": %.3e,\n", sched);
    std::fprintf(f, "    \"seed_events_per_sec\": %.3e,\n",
                 kSeedScheduleRunEvPerSec);
    std::fprintf(f, "    \"speedup\": %.2f\n", sched / kSeedScheduleRunEvPerSec);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"full_cell_resnet50_int8\": {\n");
    std::fprintf(f, "    \"procs1_ms\": %.2f,\n", cell1);
    std::fprintf(f, "    \"seed_procs1_ms\": %.2f,\n", kSeedFullCell1Ms);
    std::fprintf(f, "    \"procs1_speedup\": %.2f,\n",
                 kSeedFullCell1Ms / cell1);
    std::fprintf(f, "    \"procs4_ms\": %.2f,\n", cell4);
    std::fprintf(f, "    \"seed_procs4_ms\": %.2f,\n", kSeedFullCell4Ms);
    std::fprintf(f, "    \"procs4_speedup\": %.2f\n",
                 kSeedFullCell4Ms / cell4);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sharded_fleet\": {\n");
    std::fprintf(f, "    \"events\": %llu,\n",
                 static_cast<unsigned long long>(fleet_events));
    std::fprintf(f, "    \"cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "    \"series\": [\n");
    for (std::size_t i = 0; i < shard_pts.size(); ++i) {
        const auto &p = shard_pts[i];
        std::fprintf(f,
                     "      {\"shards\": %d, \"threads\": %d, "
                     "\"events_per_sec\": %.3e, "
                     "\"speedup_vs_serial\": %.2f, "
                     "\"digest_match\": %s}%s\n",
                     p.shards, p.shards, p.events_per_sec, p.speedup,
                     p.digest_match ? "true" : "false",
                     i + 1 < shard_pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sharded_fleet_1000\": {\n");
    std::fprintf(f, "    \"boards\": 1000,\n");
    std::fprintf(f, "    \"hierarchical\": true,\n");
    std::fprintf(f, "    \"events\": %llu,\n",
                 static_cast<unsigned long long>(fleet1000_events));
    std::fprintf(f, "    \"peak_rss_mb\": %.1f,\n", peak_rss_mb);
    std::fprintf(f, "    \"series\": [\n");
    for (std::size_t i = 0; i < fleet1000_pts.size(); ++i) {
        const auto &p = fleet1000_pts[i];
        std::fprintf(f,
                     "      {\"shards\": %d, \"threads\": %d, "
                     "\"events_per_sec\": %.3e, "
                     "\"ratio_vs_serial\": %.2f, "
                     "\"digest_match\": %s, "
                     "\"epochs\": %llu, \"barriers\": %llu}%s\n",
                     p.shards, p.threads, p.events_per_sec,
                     p.ratio_vs_serial,
                     p.digest_match ? "true" : "false",
                     static_cast<unsigned long long>(p.epochs),
                     static_cast<unsigned long long>(p.barriers),
                     i + 1 < fleet1000_pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
            std::string path = "BENCH_simcore.json";
            if (const auto eq = arg.find('=');
                eq != std::string_view::npos)
                path = std::string(arg.substr(eq + 1));
            return emitJson(path);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
