/**
 * @file
 * netinfo: model-zoo inspector.
 *
 * Prints the layer/parameter/compute summary of a zoo model, the
 * engine the builder would produce for a device/precision/batch
 * (kernel count, per-kernel precision mix, memory footprint), and —
 * with `--dot` — a Graphviz rendering of the graph.
 *
 *   netinfo --model=yolov8n
 *   netinfo --model=resnet50 --device=nano --precision=int8
 *   netinfo --model=fcn_resnet50 --dot > fcn.dot
 */

#include <cstdio>
#include <iostream>
#include <map>

#include "argparse.hh"
#include "models/zoo.hh"
#include "prof/report.hh"
#include "soc/device_spec.hh"
#include "trt/builder.hh"

using namespace jetsim;

int
main(int argc, char **argv)
{
    tools::ArgParser args("netinfo", "model and engine inspector");
    args.add("model", "resnet50", "zoo model name, or 'all'");
    args.add("device", "orin-nano", "target device for the engine");
    args.add("precision", "fp16", "engine precision");
    args.add("batch", "1", "engine batch size");
    args.add("dot", "false", "emit Graphviz dot instead of tables");
    if (!args.parse(argc, argv))
        return 1;

    auto model_choices = models::allModelNames();
    model_choices.push_back("all");
    const auto model = args.choice("model", model_choices);
    if (args.boolean("dot")) {
        const auto &net = models::modelByName(model);
        std::fputs(net.toDot().c_str(), stdout);
        return 0;
    }

    std::vector<std::string> names;
    if (model == "all")
        names = models::allModelNames();
    else
        names = {model};

    const auto dev =
        soc::deviceByName(args.choice("device", soc::deviceNames()));
    trt::Builder builder(dev);
    trt::BuilderConfig cfg;
    cfg.precision = args.enumval<soc::Precision>("precision");
    cfg.batch = args.intval("batch", 1);

    prof::Table t({"model", "layers", "params (M)", "MACs (G)",
                   "kernels", "precision mix", "weights (MiB)",
                   "total (MiB)", "fallbacks"});
    for (const auto &name : names) {
        const auto &net = models::modelByName(name);
        const auto engine = builder.build(net, cfg);

        std::map<soc::Precision, int> mix;
        for (const auto &k : engine.kernels())
            ++mix[k.prec];
        std::string mix_str;
        for (const auto &[p, n] : mix) {
            if (!mix_str.empty())
                mix_str += " ";
            mix_str += std::string(soc::name(p)) + ":" +
                       std::to_string(n);
        }

        t.addRow({name, std::to_string(net.size()),
                  prof::fmt(net.totalParams() / 1e6),
                  prof::fmt(net.totalMacs() / 1e9),
                  std::to_string(engine.kernels().size()), mix_str,
                  prof::fmt(sim::toMiB(engine.weightBytes()), 1),
                  prof::fmt(sim::toMiB(engine.deviceBytes()), 1),
                  std::to_string(engine.fallbackOps())});
    }
    std::printf("engines for %s at %s, batch %d\n\n",
                dev.name.c_str(), args.str("precision").c_str(),
                cfg.batch);
    t.print(std::cout);
    return 0;
}
