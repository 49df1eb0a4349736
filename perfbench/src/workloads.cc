#include "workloads.hh"

#include <algorithm>
#include <thread>

#include "core/digest.hh"
#include "core/profiler.hh"
#include "core/runner.hh"

namespace jetbench {

namespace {

using jetsim::soc::Precision;
namespace sim = jetsim::sim;

/** cell_deep's simulated window: long enough that the run phase is
 * seconds of host time against 8 engine builds. */
constexpr sim::Tick kCellWarmup = sim::msec(400);
constexpr sim::Tick kCellWindow = sim::sec(120);

/** paper_grid's per-cell window: short, so the per-cell graph and
 * engine builds are a large share of the time. */
constexpr sim::Tick kGridWarmup = sim::msec(100);
constexpr sim::Tick kGridWindow = sim::msec(300);

/** fleet_1000: 1 s simulated. The run phase is a few times the 1000
 * graph + engine builds of setup, so a timed call lasts long enough
 * that thread start-up and host jitter are a small share of it. The
 * warm-up is long enough for the traced run to time it apart. */
constexpr int kFleetBoards = 1000;
constexpr sim::Tick kFleetWarmup = sim::msec(200);
constexpr sim::Tick kFleetWindow = sim::msec(800);
constexpr double kFleetRatePerBoard = 25.0; // img/s
constexpr int kFleetShards = 16;

/** The fleet's (board, model) pairs; each serves a quarter of it. */
const core::FleetDevice kFleetPairs[] = {
    {"orin-nano", "mobilenet_v2", Precision::Int8, 1, 0.0},
    {"orin-nano", "resnet18", Precision::Int8, 1, 0.0},
    {"orin-nano", "resnet50", Precision::Int8, 1, 0.0},
    {"nano", "mobilenet_v2", Precision::Fp16, 1, 0.0},
};

/** SplitMix64 finaliser: independent sub-seeds from one seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

core::ExperimentSpec
cellDeepSpec(std::uint64_t seed)
{
    core::ExperimentSpec s;
    s.device = "orin-nano";
    s.model = "resnet50";
    s.precision = Precision::Int8;
    s.batch = 1;
    s.processes = 8;
    s.phase = core::Phase::Deep;
    s.warmup = kCellWarmup;
    s.duration = kCellWindow;
    s.seed = mixSeed(seed, 0);
    return s;
}

core::ExperimentSpec
gridCell(const char *device, const std::string &model, Precision prec,
         int batch, int procs, std::uint64_t seed)
{
    core::ExperimentSpec s;
    s.device = device;
    s.model = model;
    s.precision = prec;
    s.batch = batch;
    s.processes = procs;
    s.phase = core::Phase::Light;
    s.warmup = kGridWarmup;
    s.duration = kGridWindow;
    s.seed = seed;
    return s;
}

std::vector<core::ExperimentSpec>
paperGridSpecs(std::uint64_t seed)
{
    std::vector<core::ExperimentSpec> cells;
    std::uint64_t stream = 1;
    // Fig 6: orin-nano int8, batch {1..16} x procs {1,2,4,8}, plus
    // yolov8n at 16 processes.
    for (const std::string model : {"resnet50", "fcn_resnet50", "yolov8n"}) {
        std::vector<int> procs = {1, 2, 4, 8};
        if (model == "yolov8n")
            procs.push_back(16);
        for (const int p : procs)
            for (const int b : {1, 2, 4, 8, 16})
                cells.push_back(gridCell("orin-nano", model,
                                         Precision::Int8, b, p,
                                         mixSeed(seed, stream++)));
    }
    // Fig 7: nano fp16, batch {1..8} x procs {1,2,4}; includes the
    // precision fallback and the paper's OOM deployments.
    for (const std::string model : {"resnet50", "fcn_resnet50", "yolov8n"})
        for (const int p : {1, 2, 4})
            for (const int b : {1, 2, 4, 8})
                cells.push_back(gridCell("nano", model, Precision::Fp16, b,
                                         p, mixSeed(seed, stream++)));
    return cells;
}

core::FleetSpec
fleetSpec(std::uint64_t seed)
{
    core::FleetSpec spec;
    spec.devices.reserve(kFleetBoards);
    for (int d = 0; d < kFleetBoards; ++d)
        spec.devices.push_back(kFleetPairs[d % std::size(kFleetPairs)]);
    // Seeded Fisher-Yates: the seed draws the board order, while every
    // pair keeps exactly a quarter of the fleet.
    std::uint64_t state = mixSeed(seed, 2);
    for (std::size_t i = spec.devices.size() - 1; i > 0; --i) {
        state = mixSeed(state, 3);
        std::swap(spec.devices[i], spec.devices[state % (i + 1)]);
    }
    spec.balancer_rate = kFleetRatePerBoard * kFleetBoards;
    spec.hierarchical = true;
    spec.warmup = kFleetWarmup;
    spec.duration = kFleetWindow;
    spec.seed = mixSeed(seed, 1);
    return spec;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (const Workload w :
         {Workload::CellDeep, Workload::PaperGrid, Workload::Fleet1000}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::CellDeep:
        return "cell_deep";
    case Workload::PaperGrid:
        return "paper_grid";
    case Workload::Fleet1000:
        return "fleet_1000";
    }
    return "?";
}

int
benchThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

Inputs
makeInputs(Workload w, std::uint64_t seed)
{
    Inputs in;
    in.workload = w;
    switch (w) {
    case Workload::CellDeep:
        in.cells.push_back(cellDeepSpec(seed));
        break;
    case Workload::PaperGrid:
        in.cells = paperGridSpecs(seed);
        break;
    case Workload::Fleet1000:
        in.fleet = fleetSpec(seed);
        break;
    }
    return in;
}

double
nominalBoardSeconds(const Inputs &in)
{
    if (in.workload == Workload::Fleet1000)
        return static_cast<double>(in.fleet.devices.size()) *
               sim::toSec(in.fleet.warmup + in.fleet.duration);
    double s = 0.0;
    for (const auto &c : in.cells)
        s += sim::toSec(c.warmup + c.duration);
    return s;
}

Outcome
runWorkload(const Inputs &in, bool serial)
{
    Outcome out;
    switch (in.workload) {
    case Workload::CellDeep:
        out.cells.push_back(core::runExperiment(in.cells.front()));
        break;
    case Workload::PaperGrid: {
        // The result cache is off explicitly, so neither
        // JETSIM_CACHE_DIR nor JETSIM_THREADS changes the run.
        core::Runner runner(core::Runner::Options{
            serial ? 1 : benchThreads(), "", false});
        out.cells = runner.run(in.cells);
        break;
    }
    case Workload::Fleet1000: {
        core::FleetOptions opts;
        opts.shards = serial ? 1 : kFleetShards;
        opts.threads = serial ? 1 : benchThreads();
        out.fleet = core::runFleet(in.fleet, opts);
        break;
    }
    }
    return out;
}

std::vector<std::uint64_t>
opDigests(const Inputs &in, const Outcome &out)
{
    std::vector<std::uint64_t> ops;
    if (in.workload == Workload::Fleet1000) {
        ops.push_back(core::resultDigest(out.fleet));
        return ops;
    }
    for (const auto &r : out.cells)
        ops.push_back(core::resultDigest(r));
    return ops;
}

} // namespace jetbench
