/**
 * @file
 * jetbound: sound static bound analyzer for deployment specs.
 *
 * Derives per-process latency / period / throughput / blocking /
 * queue-depth intervals and the exact memory high-water for a grid
 * cell by abstract interpretation of the simulator's cost models
 * (src/absint) — without running a single simulated tick. The same
 * intervals drive the capacity planner's sweep pruning.
 *
 *   jetbound --model=resnet50 --device=orin-nano --procs=2
 *   jetbound --zoo --device=all                # every zoo model
 *   jetbound --compare-sim                     # soundness gate
 *   jetbound --json
 *
 * --compare-sim runs the simulator on the same spec and asserts
 * every measured value lands inside its static interval (the
 * soundness property, also enforced per-commit by tests/absint and
 * CI pass 1e). Exit status: 0 ok, 1 soundness violation, 2 usage.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "absint/bounds.hh"
#include "argparse.hh"
#include "core/profiler.hh"
#include "models/zoo.hh"
#include "soc/device_spec.hh"
#include "soc/precision.hh"

using namespace jetsim;

namespace {

/** Version of the --json document; bumped when a key is removed or
 * changes meaning. */
constexpr int kJsonSchemaVersion = 3;

/** Containment with a relative slack for float accumulation. */
bool
inside(double v, const absint::Interval &iv)
{
    const double eps = 1e-6 * std::max(1.0, iv.hi) + 1e-9;
    return iv.contains(v, eps);
}

void
printBounds(const absint::DeploymentBounds &b)
{
    std::printf("jetbound: %s x%d procs, window %.0f ms\n",
                b.device.c_str(), b.processes, b.window_ms);
    std::printf("  memory     %.3f MiB of %.1f budget%s\n", b.mem_mib,
                b.available_mib, b.oom ? "  OOM" : "");
    std::printf("  aggregate  <= %.1f fps total, <= %.1f fps/process "
                "mean\n", b.total_throughput_hi_fps,
                b.mean_throughput_hi_fps);
    for (const auto &p : b.procs) {
        std::printf("  %s: K=%d queue<=%d\n", p.name.c_str(),
                    p.kernels_per_ec, p.queue_depth_hi);
        std::printf("    gpu/EC ms   %s\n", p.gpu_ec_ms.str().c_str());
        std::printf("    latency ms  %s\n", p.latency_ms.str().c_str());
        std::printf("    period ms   %s\n", p.period_ms.str().c_str());
        std::printf("    tput fps    %s\n",
                    p.throughput_fps.str().c_str());
        std::printf("    blocking ms <= %.3f\n", p.blocking_ms_hi);
    }
}

void
jsonInterval(std::string &out, const char *key,
             const absint::Interval &iv)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":{\"lo\":%.6f,\"hi\":%.6f}",
                  key, iv.lo, iv.hi);
    out += buf;
}

std::string
toJson(const absint::DeploymentBounds &b)
{
    char buf[256];
    std::string out = "{\"schema_version\":";
    out += std::to_string(kJsonSchemaVersion);
    out += ",\"tool\":\"jetbound\",\"device\":\"" + b.device + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ok\":%s,\"processes\":%d,\"available_mib\":%.1f,"
                  "\"mem_mib\":%.6f,\"oom\":%s,"
                  "\"total_throughput_hi_fps\":%.3f,",
                  b.ok ? "true" : "false", b.processes,
                  b.available_mib, b.mem_mib, b.oom ? "true" : "false",
                  b.total_throughput_hi_fps);
    out += buf;
    out += "\"procs\":[";
    bool first = true;
    for (const auto &p : b.procs) {
        if (!first)
            out += ",";
        first = false;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"kernels\":%d,"
                      "\"queue_depth_hi\":%d,\"blocking_ms_hi\":%.4f,",
                      p.name.c_str(), p.kernels_per_ec,
                      p.queue_depth_hi, p.blocking_ms_hi);
        out += buf;
        jsonInterval(out, "gpu_ec_ms", p.gpu_ec_ms);
        out += ",";
        jsonInterval(out, "latency_ms", p.latency_ms);
        out += ",";
        jsonInterval(out, "period_ms", p.period_ms);
        out += ",";
        jsonInterval(out, "throughput_fps", p.throughput_fps);
        out += "}";
    }
    out += "]}";
    return out;
}

/** Check one measured value; prints the comparison, returns ok. */
bool
gate(const char *what, const std::string &who, double v,
     const absint::Interval &iv)
{
    const bool ok = inside(v, iv);
    std::printf("    %-12s %10.3f in %-22s %s\n", what, v,
                iv.str().c_str(), ok ? "ok" : "VIOLATION");
    if (!ok)
        std::fprintf(stderr,
                     "jetbound: SOUNDNESS VIOLATION %s %s: measured "
                     "%.6f outside %s\n",
                     who.c_str(), what, v, iv.str().c_str());
    return ok;
}

/** Run the simulator on @p spec and gate every measurement against
 * the static bounds. */
bool
compareSim(const core::ExperimentSpec &spec,
           const absint::DeploymentBounds &b)
{
    const core::ExperimentResult res = core::runExperiment(spec);
    bool ok = true;
    std::printf("  compare-sim %s\n", spec.label().c_str());

    // Deployment outcome: the memory bound is the exact resident
    // sum, so the verdict must agree with the simulator.
    if (res.all_deployed == b.oom) {
        std::fprintf(stderr,
                     "jetbound: SOUNDNESS VIOLATION deploy: sim "
                     "all_deployed=%d vs oom=%d\n",
                     res.all_deployed, b.oom);
        ok = false;
    }
    if (!res.all_deployed) {
        std::printf("    deployment fails (memory), as proven\n");
        return ok;
    }
    ok &= gate("mem MiB", "deployment", res.workload_mem_mb,
               {b.mem_mib, b.mem_mib});

    const double eps =
        1e-6 * std::max(1.0, b.mean_throughput_hi_fps);
    if (res.throughput_per_process >
        b.mean_throughput_hi_fps + eps) {
        std::fprintf(stderr,
                     "jetbound: SOUNDNESS VIOLATION mean fps %.3f > "
                     "%.3f\n",
                     res.throughput_per_process,
                     b.mean_throughput_hi_fps);
        ok = false;
    }

    for (const auto &m : res.procs) {
        const absint::ProcBounds *pb = nullptr;
        for (const auto &p : b.procs)
            if (p.name == m.name)
                pb = &p;
        if (!pb || !m.deployed)
            continue;
        std::printf("  %s (%llu ECs)\n", m.name.c_str(),
                    static_cast<unsigned long long>(m.ecs));
        if (m.ecs >= 1)
            ok &= gate("latency ms", m.name, m.pipeline_ms,
                       pb->latency_ms);
        if (m.ecs >= 2) // period needs two completions for a sample
            ok &= gate("period ms", m.name, m.ec_ms, pb->period_ms);
        if (m.ecs >= 1)
            ok &= gate("blocking ms", m.name, m.blocking_ms_per_ec,
                       {0.0, pb->blocking_ms_hi});
        ok &= gate("tput fps", m.name, m.throughput,
                   pb->throughput_fps);
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ArgParser args("jetbound",
                          "static latency/memory/queue bound analyzer");
    args.add("model", "resnet50", "zoo model name");
    args.add("device", "orin-nano", "target device, or 'all'");
    args.add("precision", "fp16", "engine precision");
    args.add("batch", "1", "engine batch size");
    args.add("procs", "1", "concurrent process count");
    args.add("pre-enqueue", "1", "trtexec pre-enqueue depth");
    args.add("deep", "false", "phase-2 (Nsight intrusion) bounds");
    args.add("no-dvfs", "false", "pin the GPU clock (ablation A2)");
    args.add("warmup-ms", "250", "sim warm-up for --compare-sim");
    args.add("duration-ms", "1500", "measurement window");
    args.add("zoo", "false", "analyze every zoo model");
    args.add("json", "false", "emit bounds as JSON");
    args.add("compare-sim", "false",
             "run the simulator and gate soundness");
    if (!args.parse(argc, argv))
        return 2;

    std::vector<std::string> device_choices = soc::deviceNames();
    device_choices.emplace_back("all");
    const std::string device = args.choice("device", device_choices);
    const std::vector<std::string> devices =
        device == "all" ? soc::deviceNames()
                        : std::vector<std::string>{device};
    const std::string model =
        args.choice("model", models::allModelNames());
    const std::vector<std::string> model_list =
        args.boolean("zoo") ? models::allModelNames()
                            : std::vector<std::string>{model};

    bool sound = true;
    bool analyzable = true;
    for (const auto &device : devices) {
        for (const auto &model : model_list) {
            core::ExperimentSpec spec;
            spec.device = device;
            spec.model = model;
            spec.precision = args.enumval<soc::Precision>("precision");
            spec.batch = args.intval("batch", 1);
            spec.processes = args.intval("procs", 1);
            spec.pre_enqueue = args.intval("pre-enqueue", 0);
            spec.phase = args.boolean("deep") ? core::Phase::Deep
                                              : core::Phase::Light;
            spec.dvfs = !args.boolean("no-dvfs");
            spec.warmup = sim::msec(args.intval("warmup-ms", 0));
            spec.duration = sim::msec(args.intval("duration-ms", 1));

            const auto b = absint::analyze(spec);
            if (!b.ok) {
                std::fprintf(stderr, "jetbound: %s: %s\n",
                             spec.label().c_str(), b.error.c_str());
                analyzable = false;
                continue;
            }
            if (args.boolean("json"))
                std::printf("%s\n", toJson(b).c_str());
            else
                printBounds(b);
            if (args.boolean("compare-sim"))
                sound &= compareSim(spec, b);
        }
    }
    if (!analyzable)
        return 2;
    if (!sound)
        return 1;
    if (args.boolean("compare-sim"))
        std::printf("jetbound: all measurements inside their static "
                    "bounds\n");
    return 0;
}
