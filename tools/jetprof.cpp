/**
 * @file
 * jetprof: the two-phase profiling methodology as a command-line
 * tool. Wraps the core library so a deployment engineer can answer
 * the paper's questions without writing C++:
 *
 *   jetprof --mode=run   --model=yolov8n --precision=int8 --procs=4
 *   jetprof --mode=sweep --batches=1,2,4,8 --procs=1,2,4 --csv
 *   jetprof --mode=catalog
 */

#include <cstdio>
#include <iostream>

#include "argparse.hh"
#include "core/bottleneck.hh"
#include "core/profiler.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "core/sweep.hh"
#include "models/zoo.hh"
#include "prof/metrics.hh"
#include "prof/report.hh"
#include "soc/device_spec.hh"

using namespace jetsim;

namespace {

core::ExperimentSpec
specFromArgs(const tools::ArgParser &args)
{
    core::ExperimentSpec s;
    s.device = args.choice("device", soc::deviceNames());
    s.model = args.choice("model", models::allModelNames());
    s.precision = args.enumval<soc::Precision>("precision");
    s.batch = args.intval("batch", 1);
    s.processes = args.intval("procs", 1);
    s.phase = args.enumval<core::Phase>("phase");
    s.warmup = sim::msec(args.intval("warmup", 0));
    // 1e9 s keeps every tick count far from int64 overflow.
    s.duration = sim::sec(args.dbl("duration", 0, 1e9));
    s.dvfs = args.boolean("dvfs");
    s.seed = static_cast<std::uint64_t>(args.intval("seed"));
    return s;
}

int
runOne(const tools::ArgParser &args)
{
    const auto spec = specFromArgs(args);
    std::fprintf(stderr, "running %s\n", spec.label().c_str());
    const auto r = core::runExperiment(spec);

    if (!r.all_deployed) {
        std::printf("deployment failed: %d/%d processes fit\n",
                    r.deployed_count, spec.processes);
        return 1;
    }

    prof::Table t({"metric", "value", "unit"});
    t.addRow({"throughput", prof::fmt(r.total_throughput, 1),
              "img/s"});
    t.addRow({"throughput/process",
              prof::fmt(r.throughput_per_process, 1), "img/s"});
    t.addRow({"power avg", prof::fmt(r.avg_power_w), "W"});
    t.addRow({"power max", prof::fmt(r.max_power_w), "W"});
    t.addRow({"gpu util", prof::fmt(r.gpu_util_pct, 1), "%"});
    t.addRow({"memory", prof::fmt(r.mem_pct, 1), "% of RAM"});
    t.addRow({"workload memory", prof::fmt(r.workload_mem_mb, 0),
              "MiB"});
    t.addRow({"EC duration", prof::fmt(r.mean.ec_ms), "ms"});
    t.addRow({"launch API / EC", prof::fmt(r.mean.launch_ms_per_ec),
              "ms"});
    t.addRow({"blocking / EC", prof::fmt(r.mean.blocking_ms_per_ec),
              "ms"});
    if (!r.sm_active.empty()) {
        t.addRow({"SM active p50", prof::fmt(r.sm_active.median(), 1),
                  "%"});
        t.addRow({"issue slot p50",
                  prof::fmt(r.issue_slot.median(), 1), "%"});
        t.addRow({"TC util p50", prof::fmt(r.tc_util.median(), 1),
                  "%"});
    }
    t.print(std::cout);

    const auto b = core::analyzeBottleneck(r);
    std::printf("\nbottleneck: %s - %s\n",
                core::bottleneckName(b.primary),
                b.explanation.c_str());
    return 0;
}

int
runSweep(const tools::ArgParser &args)
{
    auto base = specFromArgs(args);
    const auto batches = args.intlist("batches", 1);
    const auto procs = args.intlist("procs-list", 1);
    const bool csv = args.boolean("csv");

    // Same grid order as core::sweepGrid (row-major over processes),
    // but through an explicitly configured Runner so --threads and
    // --cache override the JETSIM_THREADS / JETSIM_CACHE_DIR env.
    std::vector<core::ExperimentSpec> specs;
    specs.reserve(batches.size() * procs.size());
    for (const int p : procs) {
        base.processes = p;
        for (const int b : batches) {
            base.batch = b;
            specs.push_back(base);
        }
    }
    core::Runner runner(args.intval("threads", 0), args.str("cache"));
    const auto results =
        runner.run(specs, [](const std::string &label) {
            std::fprintf(stderr, "  running %s\n", label.c_str());
        });
    const auto cs = runner.cacheStats();
    if (cs.hits + cs.misses > 0)
        std::fprintf(stderr,
                     "cache: %llu hits, %llu misses (%d threads)\n",
                     static_cast<unsigned long long>(cs.hits),
                     static_cast<unsigned long long>(cs.misses),
                     runner.threads());

    prof::Table t({"batch", "procs", "tput", "t/p", "power_w",
                   "mem_mib", "ec_ms", "block_ms", "status"});
    for (const auto &r : results)
        t.addRow({std::to_string(r.spec.batch),
                  std::to_string(r.spec.processes),
                  prof::fmt(r.total_throughput, 1),
                  prof::fmt(r.throughput_per_process, 1),
                  prof::fmt(r.avg_power_w),
                  prof::fmt(r.workload_mem_mb, 0),
                  prof::fmt(r.mean.ec_ms),
                  prof::fmt(r.mean.blocking_ms_per_ec),
                  r.all_deployed ? "ok" : "OOM"});
    if (csv)
        std::fputs(t.csv().c_str(), stdout);
    else
        t.print(std::cout);

    for (const auto &o : core::makeObservations(results))
        std::fprintf(stderr, "[%s] %s\n", o.id.c_str(),
                     o.text.c_str());
    return 0;
}

int
printCatalog()
{
    prof::Table t({"id", "name", "level", "tool", "unit",
                   "description"});
    for (const auto &m : prof::metricCatalog())
        t.addRow({m.id, m.name, prof::levelName(m.level),
                  prof::sourceName(m.source), m.unit, m.description});
    t.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ArgParser args("jetprof",
                          "two-phase edge inference profiler "
                          "(simulated Jetson stack)");
    args.add("mode", "run", "run | sweep | catalog | report");
    args.add("out", "jetprof_report.md",
             "output path (report mode)");
    args.add("device", "orin-nano", "orin-nano | nano | a40");
    args.add("model", "resnet50", "workload model");
    args.add("precision", "fp16", "int8 | fp16 | tf32 | fp32");
    args.add("batch", "1", "batch size (run mode)");
    args.add("procs", "1", "concurrent processes (run mode)");
    args.add("batches", "1,2,4,8", "batch list (sweep mode)");
    args.add("procs-list", "1,2,4", "process list (sweep mode)");
    args.add("phase", "light", "light | deep");
    args.add("warmup", "400", "warm-up milliseconds");
    args.add("duration", "3", "measured seconds");
    args.add("dvfs", "true", "enable the DVFS governor");
    args.add("seed", "1", "simulation seed");
    args.add("csv", "false", "CSV output (sweep mode)");
    args.add("threads", "0",
             "sweep worker threads (0 = auto / JETSIM_THREADS)");
    args.add("cache", "",
             "result-cache directory (default JETSIM_CACHE_DIR)");
    if (!args.parse(argc, argv))
        return 1;

    const auto mode = args.str("mode");
    if (mode == "run")
        return runOne(args);
    if (mode == "sweep")
        return runSweep(args);
    if (mode == "catalog")
        return printCatalog();
    if (mode == "report") {
        const auto spec = specFromArgs(args);
        const auto path = args.str("out");
        std::fprintf(stderr, "profiling %s (both phases)\n",
                     spec.label().c_str());
        if (!core::writeReport(spec, path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", path.c_str());
        return 0;
    }
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    args.usage();
    return 1;
}
