/**
 * @file
 * Precision explorer: how a model behaves across the four formats on
 * a device - throughput, memory, power, per-image energy, builder
 * fallbacks, and the resulting recommendation (the paper's S6.1
 * boxed takeaways, generated from data).
 *
 * Usage: precision_explorer [device] [model] [batch]
 */

#include <cstdio>
#include <iostream>

#include "core/bottleneck.hh"
#include "core/profiler.hh"
#include "core/sweep.hh"
#include "models/zoo.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "trt/builder.hh"

using namespace jetsim;

int
main(int argc, char **argv)
{
    const char *batch = argc > 3 ? argv[3] : "1";
    core::ExperimentSpec base;
    base.device = argc > 1 ? argv[1] : "orin-nano";
    base.model = argc > 2 ? argv[2] : "resnet50";
    const auto b = sim::parseNumber<int>(batch);
    if (!b || *b < 1)
        sim::fatal("precision_explorer: batch: '%s' is not an integer "
                   ">= 1",
                   batch);
    base.batch = *b;
    base.warmup = sim::msec(250);
    base.duration = sim::sec(2);

    std::printf("precision exploration: %s on %s, batch %d\n",
                base.model.c_str(), base.device.c_str(), base.batch);

    const auto results = core::sweepPrecision(
        base,
        {soc::Precision::Int8, soc::Precision::Fp16,
         soc::Precision::Tf32, soc::Precision::Fp32},
        [](const std::string &l) {
            std::fprintf(stderr, "  running %s\n", l.c_str());
        });

    const auto &net = models::modelByName(base.model);
    trt::Builder builder(soc::deviceByName(base.device));

    prof::Table t({"precision", "img/s", "ms/img", "W", "W/img",
                   "mem (MiB)", "fallback ops", "bottleneck"});
    for (const auto &r : results) {
        trt::BuilderConfig cfg;
        cfg.precision = r.spec.precision;
        cfg.batch = base.batch;
        const auto engine = builder.build(net, cfg);
        const auto b = core::analyzeBottleneck(r);
        t.addRow({soc::name(r.spec.precision),
                  prof::fmt(r.total_throughput, 1),
                  prof::fmt(1e3 / r.total_throughput, 2),
                  prof::fmt(r.avg_power_w),
                  prof::fmt(r.avg_power_w / r.total_throughput, 3),
                  prof::fmt(r.workload_mem_mb, 0),
                  std::to_string(engine.fallbackOps()),
                  core::bottleneckName(b.primary)});
    }
    prof::printHeading(std::cout, "Precision sweep");
    t.print(std::cout);

    const auto obs = core::makeObservations(results);
    prof::printHeading(std::cout, "Recommendation");
    for (const auto &o : obs)
        std::printf("  [%s] %s\n", o.id.c_str(), o.text.c_str());
    return 0;
}
