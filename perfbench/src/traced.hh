/**
 * @file
 * The traced run: a per-layer split of each workload, timed from
 * outside the library around calls to its public classes.
 *
 *  - cell_deep and every paper_grid cell are rebuilt from the public
 *    classes in the order core::runMixedExperiment uses, with spans
 *    graph.build, workload.deploy, sim.warmup, sim.run, core.reduce,
 *    plus a standalone trt.build per process for the same net and
 *    config. The rebuilt per-process ECs and throughput must equal
 *    the untraced result bit for bit.
 *  - Both also time every cell serially through core::runExperiment,
 *    whose digest must equal the timed call's.
 *  - fleet_1000 is split from outside: set-up is runFleet with a
 *    1-tick window and warm-up runFleet with only the warm-up window,
 *    a serial run gives the parallel speedup and must reproduce the
 *    timed digest, and per-board model, engine and deploy calls run on
 *    standalone boards.
 */

#ifndef JETBENCH_TRACED_HH
#define JETBENCH_TRACED_HH

#include <string>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace jetbench {

/** One per-layer metric's name and unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in report order. A traced run reports
 * each of them; metrics that do not apply to a workload read 0. */
const std::vector<MetricDef> &perLayerMetrics();

/** Per-layer metrics, spans and fidelity verdicts of one traced
 * repetition. */
struct TraceReport
{
    /** Values in perLayerMetrics() order. */
    std::vector<double> metrics;
    SpanLog spans;
    int checks = 0;     ///< fidelity comparisons made
    int mismatches = 0; ///< comparisons that differed
    std::vector<std::string> notes; ///< one line per mismatch
};

/**
 * Trace @p in. @p untraced is the timed call's outcome for the same
 * inputs, which the traced calls must reproduce, and @p digests its
 * opDigests(). They are passed in rather than recomputed because
 * core::resultDigest of a phase-2 result is not repeatable: it folds
 * a CDF's mean before its quantiles sort the samples, so a second
 * digest of the same result sums them in another order. Host times
 * compare with one more untraced call made first, so that every call
 * they compare runs in a warm process.
 */
TraceReport traceWorkload(const Inputs &in, const Outcome &untraced,
                          const std::vector<std::uint64_t> &digests);

} // namespace jetbench

#endif // JETBENCH_TRACED_HH
