/**
 * @file
 * Capacity planner: the paper's motivating use case.
 *
 * "Instead of manual trial and error with QoS requirements (optimal
 * number of concurrent processes, optimal batch sizes, ...) we can
 * make decisions based on this type of analysis." (paper S8)
 *
 * Given a device, a model, a per-stream latency bound and a
 * per-stream throughput floor, the planner sweeps (precision, batch,
 * processes) offline and reports every feasible deployment plus the
 * one serving the most concurrent streams.
 *
 * With --prescreen the jetbound abstract interpreter (src/absint)
 * runs first on every cell: cells it PROVES infeasible (guaranteed
 * OOM, latency lower bound above the SLO, or throughput upper bound
 * below the floor) are pruned without simulating them. Pruning is
 * sound — a pruned cell can never be feasible — so the recommended
 * deployment is identical with and without it, and the surviving
 * cells' results are bit-identical (checked via the golden digest
 * printed at the end, and by tests/absint/prescreen_test.cc).
 *
 * Usage: capacity_planner [--prescreen] [--min-pruned=N]
 *                         [device] [model] [max_latency_ms]
 *                         [min_stream_fps]
 *   e.g. capacity_planner --prescreen nano fcn_resnet50 100 15
 *
 * Exit: 0 ok; 1 when --min-pruned=N was given and fewer than N
 * cells were provably prunable (CI uses this as the effectiveness
 * gate), or on an unknown flag or a malformed argument.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "absint/prescreen.hh"
#include "core/digest.hh"
#include "core/profiler.hh"
#include "core/sweep.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

using namespace jetsim;

namespace {

struct Plan
{
    core::ExperimentResult result;
    double stream_fps;  ///< frames/s each process sustains
    double latency_ms;  ///< per-batch completion time
};

/** Argument @p arg's value @p v as a T >= 0, or fatal(). */
template <class T>
T
nonNegative(const char *arg, const std::string &v)
{
    const auto x = sim::parseNumber<T>(v);
    if (!x || *x < 0)
        sim::fatal("capacity_planner: %s: '%s' is not a number >= 0",
                   arg, v.c_str());
    return *x;
}

/** FNV-1a fold of the unpruned cells' result digests, grid order. */
std::uint64_t
foldDigest(std::uint64_t acc, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        acc ^= (v >> (8 * i)) & 0xff;
        acc *= 0x100000001b3ull;
    }
    return acc;
}

} // namespace

int
main(int argc, char **argv)
{
    bool prescreen = false;
    int min_pruned = -1;
    std::vector<std::string> pos;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--prescreen") {
            prescreen = true;
        } else if (a.rfind("--min-pruned=", 0) == 0) {
            min_pruned = nonNegative<int>("--min-pruned", a.substr(13));
            prescreen = true; // the gate implies the screen
        } else if (a.rfind("--", 0) == 0) {
            sim::fatal("capacity_planner: unknown flag %s\n"
                       "usage: capacity_planner [--prescreen] "
                       "[--min-pruned=N] [device] [model] "
                       "[max_latency_ms] [min_stream_fps]",
                       a.c_str());
        } else {
            pos.push_back(a);
        }
    }
    const std::string device = pos.size() > 0 ? pos[0] : "orin-nano";
    const std::string model = pos.size() > 1 ? pos[1] : "yolov8n";
    const double max_latency_ms = nonNegative<double>(
        "max_latency_ms", pos.size() > 2 ? pos[2] : "100");
    const double min_fps = nonNegative<double>(
        "min_stream_fps", pos.size() > 3 ? pos[3] : "15");

    std::printf("capacity planning: %s on %s, latency <= %.0f ms, "
                ">= %.0f fps per stream%s\n",
                model.c_str(), device.c_str(), max_latency_ms, min_fps,
                prescreen ? " [static prescreen on]" : "");

    const std::vector<int> batches = {1, 2, 4, 8};
    const std::vector<int> procs_axis = {1, 2, 4, 8};
    const absint::Slo slo{max_latency_ms, min_fps};

    prof::Table t({"precision", "batch", "procs", "fps/stream",
                   "latency (ms)", "power (W)", "mem (MiB)",
                   "feasible"});
    std::optional<Plan> best;
    int pruned_total = 0, simulated_total = 0;
    std::uint64_t golden = 0xcbf29ce484222325ull;
    const auto t0 = std::chrono::steady_clock::now();

    // The grid stays embarrassingly parallel: per precision, the
    // batch x processes plane goes through sweepGridScreened, which
    // feeds surviving cells to the same Runner sweepGrid uses
    // (JETSIM_THREADS / JETSIM_CACHE_DIR aware), so unpruned results
    // are bit-identical to the unscreened sweep.
    for (auto prec : soc::kAllPrecisions) {
        core::ExperimentSpec base;
        base.device = device;
        base.model = model;
        base.precision = prec;
        base.warmup = sim::msec(250);
        base.duration = sim::msec(1500);

        // Screen verdicts in grid order (keep() is called on the
        // submitting thread, cell by cell, before any simulation).
        std::vector<absint::ScreenResult> screens;
        core::CellScreenFn keep;
        if (prescreen)
            keep = [&](const core::ExperimentSpec &s) {
                screens.push_back(absint::screen(s, slo));
                return screens.back().verdict !=
                       absint::Verdict::ProvedInfeasible;
            };
        auto sweep = core::sweepGridScreened(
            base, batches, procs_axis, keep,
            [](const std::string &label) {
                std::fprintf(stderr, "  evaluating %s\n",
                             label.c_str());
            });
        pruned_total += sweep.pruned;
        simulated_total += sweep.simulated;

        std::size_t cell = 0;
        for (int procs : procs_axis) {
            for (int batch : batches) {
                auto &slot = sweep.cells[cell];
                const auto *sc =
                    prescreen ? &screens[cell] : nullptr;
                ++cell;
                if (!slot.has_value()) { // statically pruned
                    t.addRow({soc::name(prec), std::to_string(batch),
                              std::to_string(procs), "-", "-", "-",
                              "-", "pruned: " + sc->reason});
                    continue;
                }
                auto &r = *slot;
                golden = foldDigest(golden, core::resultDigest(r));
                if (!r.all_deployed) {
                    t.addRow({soc::name(prec), std::to_string(batch),
                              std::to_string(procs), "-", "-", "-",
                              "-", "OOM"});
                    continue;
                }
                Plan p{std::move(r), 0, 0};
                p.stream_fps = p.result.throughput_per_process;
                p.latency_ms = p.result.mean.pipeline_ms;
                const bool ok = p.latency_ms <= max_latency_ms &&
                                p.stream_fps >= min_fps;
                std::string verdict = ok ? "yes" : "no";
                // Bound-vs-measured tightness: where the measured
                // latency sits inside the static interval (0 % = at
                // the lower bound, 100 % = at the upper bound).
                if (sc && sc->bounds.ok &&
                    !sc->bounds.procs.empty()) {
                    const auto &iv =
                        sc->bounds.procs.front().latency_ms;
                    if (iv.width() > 0)
                        verdict += " (lat " +
                                   prof::fmt(100.0 *
                                                 (p.latency_ms -
                                                  iv.lo) /
                                                 iv.width(),
                                             0) +
                                   "% of bound)";
                }
                t.addRow({soc::name(prec), std::to_string(batch),
                          std::to_string(procs),
                          prof::fmt(p.stream_fps, 1),
                          prof::fmt(p.latency_ms, 1),
                          prof::fmt(p.result.avg_power_w),
                          prof::fmt(p.result.workload_mem_mb, 0),
                          verdict});
                if (ok &&
                    (!best ||
                     p.result.spec.processes >
                         best->result.spec.processes ||
                     (p.result.spec.processes ==
                          best->result.spec.processes &&
                      p.stream_fps > best->stream_fps)))
                    best = std::move(p);
            }
        }
    }

    prof::printHeading(std::cout, "Sweep");
    t.print(std::cout);

    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (prescreen) {
        const double per_cell =
            simulated_total ? wall_s / simulated_total : 0;
        std::printf("\nprescreen: pruned %d of %d cells statically; "
                    "simulated %d in %.1f s (~%.1f s of simulation "
                    "avoided)\n",
                    pruned_total, pruned_total + simulated_total,
                    simulated_total, wall_s,
                    per_cell * pruned_total);
    }
    std::printf("unpruned golden digest: %016llx\n",
                static_cast<unsigned long long>(golden));

    if (best) {
        const auto &s = best->result.spec;
        std::printf("\nrecommended deployment: %d x %s/%s batch %d "
                    "-> %d streams at %.1f fps each, %.1f ms latency, "
                    "%.2f W\n",
                    s.processes, model.c_str(), soc::name(s.precision),
                    s.batch, s.processes, best->stream_fps,
                    best->latency_ms, best->result.avg_power_w);
    } else {
        std::printf("\nno deployment on %s meets the QoS; offload to "
                    "the cloud or add accelerators (see "
                    "edge_cloud_offload).\n",
                    device.c_str());
    }
    if (min_pruned >= 0 && pruned_total < min_pruned) {
        std::fprintf(stderr,
                     "capacity_planner: only %d cell(s) pruned, "
                     "expected >= %d\n",
                     pruned_total, min_pruned);
        return 1;
    }
    return 0;
}
