#include "core/report.hh"

#include <sstream>

#include "core/bottleneck.hh"
#include "core/profiler.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace jetsim::core {

namespace {

void
metricRow(std::ostringstream &os, const char *name,
          const std::string &value, const char *unit)
{
    os << "| " << name << " | " << value << " | " << unit << " |\n";
}

void
cdfRow(std::ostringstream &os, const char *name, const prof::Cdf &c)
{
    if (c.empty())
        return;
    os << "| " << name << " | " << prof::fmt(c.quantile(0.10), 1)
       << " | " << prof::fmt(c.median(), 1) << " | "
       << prof::fmt(c.quantile(0.90), 1) << " | "
       << prof::fmt(c.max(), 1) << " |\n";
}

} // namespace

std::string
renderReport(const ExperimentResult &light,
             const ExperimentResult &deep)
{
    std::ostringstream os;
    const auto &spec = light.spec;

    os << "# Profiling report: " << spec.label() << "\n\n";
    os << "- device: `" << spec.device << "`\n";
    os << "- model: `" << spec.model << "` at `"
       << soc::name(spec.precision) << "`, batch " << spec.batch
       << ", " << spec.processes << " process(es)\n";
    os << "- deployment: "
       << (light.all_deployed ? "ok" : "FAILED (out of memory)")
       << ", " << prof::fmt(light.workload_mem_mb, 0)
       << " MiB pinned\n\n";

    if (!light.all_deployed) {
        os << "Only " << light.deployed_count << "/"
           << spec.processes
           << " processes fit in unified memory; no measurements "
              "were taken (the paper's boards reboot here).\n";
        return os.str();
    }

    os << "## Phase 1 — trtexec + jetson-stats (non-intrusive)\n\n";
    os << "| metric | value | unit |\n|---|---|---|\n";
    metricRow(os, "throughput (total)",
              prof::fmt(light.total_throughput, 1), "img/s");
    metricRow(os, "throughput per process",
              prof::fmt(light.throughput_per_process, 1), "img/s");
    metricRow(os, "power (avg / max)",
              prof::fmt(light.avg_power_w) + " / " +
                  prof::fmt(light.max_power_w),
              "W");
    metricRow(os, "energy per image",
              prof::fmt(light.avg_power_w / light.total_throughput,
                        3),
              "W/img");
    metricRow(os, "GPU utilisation",
              prof::fmt(light.gpu_util_pct, 1), "%");
    metricRow(os, "memory (incl. OS)", prof::fmt(light.mem_pct, 1),
              "%");
    metricRow(os, "DVFS throttle events",
              std::to_string(light.dvfs_throttle_events), "");
    os << "\n";

    os << "## Phase 2 — Nsight tracing (intrusive)\n\n";
    os << "| metric | value | unit |\n|---|---|---|\n";
    metricRow(os, "throughput under profiler",
              prof::fmt(deep.total_throughput, 1), "img/s");
    metricRow(
        os, "profiler intrusion",
        prof::fmt(100.0 * (1.0 - deep.total_throughput /
                                     light.total_throughput),
                  0),
        "% slower");
    metricRow(os, "kernels traced", std::to_string(deep.kernels), "");
    metricRow(os, "kernel duration (mean)",
              prof::fmt(deep.kernel_us_mean, 1), "us");
    os << "\n### Utilisation counters (percent)\n\n";
    os << "| counter | p10 | p50 | p90 | max |\n|---|---|---|---|---|\n";
    cdfRow(os, "SM active", deep.sm_active);
    cdfRow(os, "issue slot", deep.issue_slot);
    cdfRow(os, "TC utilisation", deep.tc_util);
    os << "\n";

    os << "## Kernel-level decomposition (EC_i = K + T + C + B)\n\n";
    const auto b = analyzeBottleneck(deep);
    os << "| term | ms per EC |\n|---|---|\n";
    os << "| EC duration | " << prof::fmt(b.ec_ms) << " |\n";
    os << "| K (launch API) | " << prof::fmt(b.launch_ms) << " |\n";
    os << "| T (re-dispatch wait) | " << prof::fmt(b.resched_ms)
       << " |\n";
    os << "| C (CPU work) | " << prof::fmt(b.cpu_ms) << " |\n";
    os << "| — cache penalty share | " << prof::fmt(b.cache_ms)
       << " |\n";
    os << "| B (blocking) | " << prof::fmt(b.blocking_ms) << " |\n";
    os << "| sync span | " << prof::fmt(b.sync_ms) << " |\n\n";
    os << "**Bottleneck:** `" << bottleneckName(b.primary) << "` — "
       << b.explanation << "\n\n";

    const auto obs = makeObservations({light, deep});
    if (!obs.empty()) {
        os << "## Observations\n\n";
        for (const auto &o : obs)
            os << "- **" << o.id << "**: " << o.text << "\n";
    }
    return os.str();
}

bool
writeReport(const ExperimentSpec &spec, const std::string &path)
{
    auto [light, deep] = runTwoPhase(spec);
    return sim::writeFileAtomic(path, renderReport(light, deep));
}

} // namespace jetsim::core
