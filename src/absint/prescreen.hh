/**
 * @file
 * SLO pre-screening of sweep cells from static bounds alone.
 *
 * A capacity-planning sweep simulates every cell of a grid to label
 * it feasible/infeasible against an SLO. Many cells are decidable
 * without simulation: if the *lower* latency bound already violates
 * the SLO (or the memory high-water exceeds the budget, or the
 * throughput *upper* bound misses the floor), no simulated run can
 * be feasible — the cell is provably infeasible and the simulation
 * is wasted work. Symmetrically, a cell whose upper bounds all meet
 * the SLO is provably feasible. Everything else stays Unknown and
 * must be simulated.
 *
 * Pruning is sound by construction: a pruned cell's verdict is a
 * theorem about every schedule, not a heuristic — the soundness
 * harness in tests/absint backs the underlying intervals, and
 * tests/absint/prescreen_test.cc checks that unpruned cells simulate
 * bit-identically to an unscreened sweep.
 */

#ifndef JETSIM_ABSINT_PRESCREEN_HH
#define JETSIM_ABSINT_PRESCREEN_HH

#include <string>

#include "absint/bounds.hh"

namespace jetsim::absint {

/** The planner's service-level objective (0 = unconstrained). */
struct Slo
{
    double max_latency_ms = 0; ///< mean pipeline latency ceiling
    double min_fps = 0;        ///< per-process throughput floor
};

enum class Verdict {
    Unknown,          ///< bounds do not decide the cell: simulate it
    ProvedInfeasible, ///< no schedule can meet the SLO
    ProvedFeasible,   ///< every schedule meets the SLO
};

/** One screened cell. */
struct ScreenResult
{
    Verdict verdict = Verdict::Unknown;
    std::string reason;      ///< which bound decided it, with numbers
    DeploymentBounds bounds; ///< the intervals behind the verdict
};

/** Screen one grid cell against @p slo without simulating. */
ScreenResult screen(const core::ExperimentSpec &spec, const Slo &slo);

} // namespace jetsim::absint

#endif // JETSIM_ABSINT_PRESCREEN_HH
