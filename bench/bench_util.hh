/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every bench prints the rows/series of one paper artefact on
 * stdout, with a progress line per grid cell on stderr.
 */

#ifndef JETSIM_BENCH_BENCH_UTIL_HH
#define JETSIM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/bottleneck.hh"
#include "core/profiler.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "prof/report.hh"
#include "soc/device_spec.hh"

namespace jetsim::bench {

/**
 * Hardware baseline shared by every committed BENCH_*.json: numbers
 * recorded on different host classes are not comparable, so each
 * emitter stamps this note into its output.
 */
inline constexpr const char *kHostNote =
    "1-core Intel Xeon @ 2.10GHz container; shared host, min over "
    "repetitions; RelWithDebInfo (-O2)";

/** Progress callback for sweeps: one stderr line per cell. */
inline core::ProgressFn
progress()
{
    return [](const std::string &label) {
        std::fprintf(stderr, "  running %s\n", label.c_str());
    };
}

/**
 * Run an explicit cell list through the parallel runner (auto thread
 * count via JETSIM_THREADS, result cache via JETSIM_CACHE_DIR), with
 * the standard per-cell progress line. Results come back in
 * submission order and bit-identical to a serial loop, so callers
 * index them exactly as they built the spec list.
 */
inline std::vector<core::ExperimentResult>
runParallel(const std::vector<core::ExperimentSpec> &specs)
{
    core::Runner runner;
    auto results = runner.run(specs, progress());
    const auto stats = runner.cacheStats();
    if (stats.hits > 0)
        std::fprintf(stderr, "  (%llu of %zu cells from cache)\n",
                     static_cast<unsigned long long>(stats.hits),
                     specs.size());
    return results;
}

/**
 * Common sweep timing: benches favour wall-clock over variance, so
 * they run shorter windows than the library defaults. JETSIM_QUICK=1
 * shrinks them further for smoke runs.
 */
inline void
applyBenchTiming(core::ExperimentSpec &spec)
{
    const bool quick = std::getenv("JETSIM_QUICK") != nullptr;
    spec.warmup = sim::msec(quick ? 150 : 300);
    spec.duration = quick ? sim::msec(500) : sim::sec(2);
}

/** Render a throughput-per-process cell, or "OOM" for failures. */
inline std::string
tpCell(const core::ExperimentResult &r)
{
    if (!r.all_deployed)
        return "OOM(" + std::to_string(r.deployed_count) + "/" +
               std::to_string(r.spec.processes) + ")";
    return prof::fmt(r.throughput_per_process, 1);
}

/** Print the observation list a sweep generated. */
inline void
printObservations(const std::vector<core::ExperimentResult> &results)
{
    const auto obs = core::makeObservations(results);
    if (obs.empty())
        return;
    prof::printHeading(std::cout, "Observations");
    for (const auto &o : obs)
        std::printf("  [%s] %s\n", o.id.c_str(), o.text.c_str());
}

} // namespace jetsim::bench

#endif // JETSIM_BENCH_BENCH_UTIL_HH
