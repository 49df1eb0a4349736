/**
 * @file
 * Quickstart: profile one workload with the two-phase methodology.
 *
 * Builds a ResNet50 int8 engine for the Jetson Orin Nano, runs a
 * single inference process, and prints the SoC-, GPU- and kernel-
 * level metrics the paper's Table 2 defines, followed by the
 * bottleneck analysis.
 *
 * Usage: quickstart [device] [model] [precision] [batch] [processes]
 *   e.g. quickstart orin-nano yolov8n int8 4 2
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "core/bottleneck.hh"
#include "core/profiler.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

using namespace jetsim;

namespace {

/** Argument @p arg's value @p v as an integer >= 1, or fatal(). */
int
positiveInt(const char *arg, const char *v)
{
    const auto n = sim::parseNumber<int>(v);
    if (!n || *n < 1)
        sim::fatal("quickstart: %s: '%s' is not an integer >= 1", arg, v);
    return *n;
}

/** The phase-1 and phase-2 metric tables of a deployed run. */
void
printPhases(const core::ExperimentResult &light,
            const core::ExperimentResult &deep)
{
    // Phase 1: lightweight metrics with no profiler intrusion.
    prof::printHeading(std::cout, "Phase 1 (trtexec + jetson-stats)");
    prof::Table t1({"metric", "value", "unit"});
    t1.addRow({"throughput (total)", prof::fmt(light.total_throughput, 1),
               "img/s"});
    t1.addRow({"throughput / process",
               prof::fmt(light.throughput_per_process, 1), "img/s"});
    t1.addRow({"power (avg)", prof::fmt(light.avg_power_w), "W"});
    t1.addRow({"power (max)", prof::fmt(light.max_power_w), "W"});
    t1.addRow({"GPU utilisation", prof::fmt(light.gpu_util_pct, 1), "%"});
    t1.addRow({"GPU memory", prof::fmt(light.mem_pct, 1), "%"});
    t1.addRow({"workload memory", prof::fmt(light.workload_mem_mb, 0),
               "MiB"});
    t1.print(std::cout);

    // Phase 2: deep tracing (note the intrusion on throughput).
    prof::printHeading(std::cout, "Phase 2 (Nsight Systems attached)");
    prof::Table t2({"metric", "value", "unit"});
    t2.addRow({"throughput under profiler",
               prof::fmt(deep.total_throughput, 1), "img/s"});
    t2.addRow({"profiler intrusion",
               prof::fmt(100.0 * (1.0 - deep.total_throughput /
                                            light.total_throughput),
                         0),
               "% slower"});
    t2.addRow({"kernels traced", prof::fmt(double(deep.kernels), 0),
               ""});
    t2.addRow({"kernel duration (mean)", prof::fmt(deep.kernel_us_mean, 1),
               "us"});
    // A counter with no traced kernels has no median.
    const auto median = [](const prof::Cdf &c) {
        return c.empty() ? std::string("-") : prof::fmt(c.median(), 1);
    };
    t2.addRow({"SM active (median)", median(deep.sm_active), "%"});
    t2.addRow({"issue slot (median)", median(deep.issue_slot), "%"});
    t2.addRow({"TC util (median)", median(deep.tc_util), "%"});
    t2.print(std::cout);
}

/** The kernel-level decomposition table of a deployed run. */
void
printDecomposition(const core::EcBreakdown &b)
{
    prof::printHeading(std::cout, "Kernel-level decomposition (deep)");
    prof::Table t3({"term", "ms/EC"});
    t3.addRow({"EC span", prof::fmt(b.ec_ms)});
    t3.addRow({"K (launch API)", prof::fmt(b.launch_ms)});
    t3.addRow({"B (blocking)", prof::fmt(b.blocking_ms)});
    t3.addRow({"T (resched)", prof::fmt(b.resched_ms)});
    t3.addRow({"C (cpu work)", prof::fmt(b.cpu_ms)});
    t3.addRow({"  cache penalty", prof::fmt(b.cache_ms)});
    t3.addRow({"sync span", prof::fmt(b.sync_ms)});
    t3.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *precision = argc > 3 ? argv[3] : "int8";
    core::ExperimentSpec spec;
    spec.device = argc > 1 ? argv[1] : "orin-nano";
    spec.model = argc > 2 ? argv[2] : "resnet50";
    const auto prec = sim::enumFromName<soc::Precision>(precision);
    if (!prec)
        sim::fatal("quickstart: precision: '%s' is not one of int8, "
                   "fp16, tf32, fp32",
                   precision);
    spec.precision = *prec;
    spec.batch = positiveInt("batch", argc > 4 ? argv[4] : "1");
    spec.processes = positiveInt("processes", argc > 5 ? argv[5] : "1");

    std::printf("jetsim quickstart: %s\n", spec.label().c_str());

    // Both phases: light (trtexec + jetson-stats), then deep (Nsight).
    auto [light, deep] = core::runTwoPhase(spec);

    // The run starts only if every process deploys; the bottleneck
    // analysis says why one did not.
    std::printf("deployed: %d of %d processes\n", light.deployed_count,
                spec.processes);
    const auto b = core::analyzeBottleneck(deep);
    if (light.all_deployed) {
        printPhases(light, deep);
        printDecomposition(b);
    }
    std::printf("\nbottleneck: %s - %s\n", core::bottleneckName(b.primary),
                b.explanation.c_str());

    const auto obs = core::makeObservations({light, deep});
    if (!obs.empty()) {
        prof::printHeading(std::cout, "Observations");
        for (const auto &o : obs)
            std::printf("  [%s] %s\n", o.id.c_str(), o.text.c_str());
    }
    return 0;
}
