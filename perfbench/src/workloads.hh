/**
 * @file
 * The benchmark's three workloads: spec generation from a seed, the
 * timed (untraced) call each one makes into the library, and the
 * result digests that check its output.
 *
 *  - cell_deep:  one phase-2 orin-nano resnet50/int8 b1 cell with 8
 *                spin-waiting processes, run by core::runExperiment;
 *  - paper_grid: the Fig 6 + Fig 7 concurrency grid in phase 1,
 *                run by one core::Runner;
 *  - fleet_1000: a 1000-board hierarchical core::runFleet.
 *
 * The seed changes every random stream and the fleet's board order,
 * never the amount of work, so host timings compare across seeds.
 */

#ifndef JETBENCH_WORKLOADS_HH
#define JETBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/fleet.hh"

namespace jetbench {

namespace core = jetsim::core;

enum class Workload { CellDeep, PaperGrid, Fleet1000 };

/** Map a workload name to its enum; false on an unknown name. */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** Worker threads of the Runner and the sharded engine:
 * min(hardware concurrency, 4). */
int benchThreads();

/** Every spec one workload needs, generated before the timed call. */
struct Inputs
{
    Workload workload = Workload::CellDeep;
    std::vector<core::ExperimentSpec> cells; ///< cell_deep, paper_grid
    core::FleetSpec fleet;                   ///< fleet_1000
};

Inputs makeInputs(Workload w, std::uint64_t seed);

/** Simulated board-seconds the inputs nominally cover (warm-up plus
 * window, summed over boards and cells). */
double nominalBoardSeconds(const Inputs &in);

/** What one call into the library produced. */
struct Outcome
{
    std::vector<core::ExperimentResult> cells;
    core::FleetResult fleet;
};

/**
 * The workload's timed call: runExperiment for cell_deep, one
 * Runner::run over the grid, runFleet at 16 shards. With
 * @p serial the same inputs run on the library's serial path instead
 * (Runner threads=1, fleet shards=1 threads=1); the library promises
 * bit-identical results, so this is the reference topology.
 */
Outcome runWorkload(const Inputs &in, bool serial);

/** One result digest per operation: a grid cell, the cell, or the
 * fleet run. */
std::vector<std::uint64_t> opDigests(const Inputs &in,
                                     const Outcome &out);

} // namespace jetbench

#endif // JETBENCH_WORKLOADS_HH
