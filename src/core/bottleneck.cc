#include "core/bottleneck.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "sim/logging.hh"
#include "soc/device_spec.hh"

namespace jetsim::core {

using sim::format;

const char *
bottleneckName(Bottleneck b)
{
    switch (b) {
      case Bottleneck::GpuCompute: return "gpu-compute";
      case Bottleneck::CpuBlocking: return "cpu-blocking";
      case Bottleneck::KernelLaunch: return "kernel-launch";
      case Bottleneck::MemoryCapacity: return "memory-capacity";
      case Bottleneck::PowerThrottle: return "power-throttle";
    }
    return "?";
}

EcBreakdown
analyzeBottleneck(const ExperimentResult &res)
{
    EcBreakdown b;
    const auto &m = res.mean;
    b.ec_ms = m.ec_ms;
    b.launch_ms = m.launch_ms_per_ec;
    b.resched_ms = m.resched_ms_per_ec;
    b.cpu_ms = m.cpu_ms_per_ec;
    b.cache_ms = m.cache_ms_per_ec;
    b.blocking_ms = m.blocking_ms_per_ec;
    b.sync_ms = m.sync_ms;

    char buf[256];
    if (!res.all_deployed) {
        b.primary = Bottleneck::MemoryCapacity;
        std::snprintf(buf, sizeof(buf),
                      "only %d/%d processes fit in unified memory",
                      res.deployed_count, res.spec.processes);
        b.explanation = buf;
        return b;
    }

    const double wait = b.blocking_ms + b.resched_ms;
    if (b.ec_ms > 0 && wait > 0.20 * b.ec_ms) {
        b.primary = Bottleneck::CpuBlocking;
        std::snprintf(buf, sizeof(buf),
                      "scheduler wait %.2f ms is %.0f%% of the %.2f ms "
                      "EC (processes exceed the heavy-load cores)",
                      wait, 100.0 * wait / b.ec_ms, b.ec_ms);
        b.explanation = buf;
        return b;
    }

    if (res.dvfs_throttle_events > 3 && res.final_freq_frac < 0.9) {
        b.primary = Bottleneck::PowerThrottle;
        std::snprintf(buf, sizeof(buf),
                      "DVFS throttled %d times; GPU settled at %.0f%% "
                      "of max frequency to hold the power cap",
                      res.dvfs_throttle_events,
                      100.0 * res.final_freq_frac);
        b.explanation = buf;
        return b;
    }

    if (b.ec_ms > 0 && b.launch_ms > 0.30 * b.ec_ms) {
        b.primary = Bottleneck::KernelLaunch;
        std::snprintf(buf, sizeof(buf),
                      "launch-API time %.2f ms is %.0f%% of the EC",
                      b.launch_ms, 100.0 * b.launch_ms / b.ec_ms);
        b.explanation = buf;
        return b;
    }

    b.primary = Bottleneck::GpuCompute;
    b.explanation = "GPU execution dominates the EC timeline";
    return b;
}

std::vector<Observation>
makeObservations(const std::vector<ExperimentResult> &results)
{
    std::vector<Observation> out;
    if (results.empty())
        return out;

    // --- best precision per (device, model): single-process cells.
    std::map<std::pair<std::string, std::string>,
             std::map<soc::Precision, double>>
        tput;
    for (const auto &r : results)
        if (r.all_deployed && r.spec.processes == 1)
            tput[{r.spec.device, r.spec.model}][r.spec.precision] =
                r.total_throughput;
    for (const auto &[key, by_prec] : tput) {
        if (by_prec.size() < 2)
            continue;
        auto best = by_prec.begin();
        for (auto it = by_prec.begin(); it != by_prec.end(); ++it)
            if (it->second > best->second)
                best = it;
        out.push_back(
            {"best-precision",
             format("%s: %s precision is optimal for %s "
                    "(%.0f img/s)",
                    key.first.c_str(), soc::name(best->first),
                    key.second.c_str(), best->second)});
    }

    // --- concurrency threshold: blocking appears past the big cores.
    for (const auto &r : results) {
        if (!r.all_deployed)
            continue;
        const auto spec = soc::deviceByName(r.spec.device);
        if (r.spec.processes > spec.bigCores() &&
            r.mean.blocking_ms_per_ec > 0.5) {
            out.push_back(
                {"blocking-threshold",
                 format("%s: with %d processes (> %d heavy-load "
                        "cores) per-EC blocking reaches %.2f ms",
                        r.spec.label().c_str(), r.spec.processes,
                        spec.bigCores(), r.mean.blocking_ms_per_ec)});
            break; // one witness suffices
        }
    }

    // --- power envelope compliance.
    double max_power = 0;
    std::string max_label;
    for (const auto &r : results)
        if (r.max_power_w > max_power) {
            max_power = r.max_power_w;
            max_label = r.spec.device;
        }
    if (max_power > 0)
        out.push_back(
            {"power-envelope",
             format("peak power %.2f W (%s) stayed within the board "
                    "power-mode budget",
                    max_power, max_label.c_str())});

    // --- SM active vs issue-slot gap (phase-2 runs only).
    for (const auto &r : results) {
        if (r.sm_active.empty() || r.issue_slot.empty())
            continue;
        const double sm = r.sm_active.median();
        const double is = r.issue_slot.median();
        if (sm > 70.0 && is < 45.0) {
            out.push_back(
                {"issue-stall",
                 format("%s: SM active %.0f%% but issue-slot only "
                        "%.0f%% - instruction stalls cap throughput",
                        r.spec.label().c_str(), sm, is)});
            break;
        }
    }

    // --- memory-capacity failures.
    for (const auto &r : results)
        if (!r.all_deployed) {
            out.push_back(
                {"oom",
                 format("%s: deployment failed (%d/%d processes fit) "
                        "- unified memory is the scaling wall",
                        r.spec.label().c_str(), r.deployed_count,
                        r.spec.processes)});
            break;
        }

    return out;
}

} // namespace jetsim::core
