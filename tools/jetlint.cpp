/**
 * @file
 * jetlint: ahead-of-time linter for jetsim models, plans and
 * experiment configs.
 *
 * The paper's costliest mistakes happen before the first inference:
 * deploying more FCN_ResNet50 processes than the Nano's memory holds,
 * requesting int8 on a board without int8 kernels, or sweeping a grid
 * the hardware cannot run. jetlint catches those at config time, in
 * milliseconds, without simulating a single tick.
 *
 *   jetlint                                   # lint one cell (flags)
 *   jetlint --model=fcn_resnet50 --device=nano --procs=4
 *   jetlint --zoo --device=all                # every model x precision
 *   jetlint --examples                        # shipped example configs
 *   jetlint --plan=tests/data/plan_good.json  # Engine::serialize() file
 *   jetlint --list-rules
 *
 * Exit status: 0 clean; 1 error findings (or warnings under
 * --werror), a bad flag value, or an unreadable or malformed plan
 * ("<path>: <field>: <reason>"); 2 an unknown flag. CI runs the --zoo
 * and --examples modes and gates on the exit status.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "argparse.hh"
#include "lint/lint.hh"
#include "models/zoo.hh"
#include "sim/json.hh"
#include "soc/device_spec.hh"
#include "trt/builder.hh"

using namespace jetsim;

namespace {

/**
 * Print the rule catalogue. The markdown form is the single source
 * of truth for README.md's rule table — regenerate with
 * `jetlint --list-rules --markdown` instead of editing the table by
 * hand; tools/ci.sh checks the README mentions every live rule ID.
 */
void
listRules(bool markdown)
{
    if (markdown) {
        std::printf("| Rule | Severity | Title | Description |\n");
        std::printf("|---|---|---|---|\n");
        for (const auto rule : lint::allRules()) {
            const auto &info = lint::ruleInfo(rule);
            std::printf("| %s | %s | %s | %s |\n", info.id,
                        check::severityName(info.severity),
                        info.title, info.description);
        }
        return;
    }
    std::printf("%-6s %-8s %-34s %s\n", "rule", "severity", "title",
                "description");
    for (const auto rule : lint::allRules()) {
        const auto &info = lint::ruleInfo(rule);
        std::printf("%-6s %-8s %-34s %s\n", info.id,
                    check::severityName(info.severity), info.title,
                    info.description);
    }
}

std::vector<std::string>
deviceList(const std::string &flag)
{
    if (flag == "all")
        return soc::deviceNames();
    return {flag};
}

/** --precision as a list: one precision, or every one for 'all'. */
std::vector<soc::Precision>
precisionList(const tools::ArgParser &args)
{
    std::vector<std::string> names = {"all"};
    for (const auto p : soc::kAllPrecisions)
        names.emplace_back(soc::name(p));
    const auto flag = args.choice("precision", names);
    if (flag == "all")
        return {soc::kAllPrecisions.begin(), soc::kAllPrecisions.end()};
    return {*sim::enumFromName<soc::Precision>(flag)};
}

/** Lint every zoo model at every requested precision on every
 * requested board: the CI sweep. */
void
lintZoo(const std::vector<std::string> &devices,
        const std::vector<soc::Precision> &precisions, int batch,
        int procs, lint::Report &rep)
{
    for (const auto &model : models::allModelNames()) {
        const auto &net = models::modelByName(model);
        lint::lintNetwork(net, rep);
        for (const auto &dev_name : devices) {
            const auto dev = soc::findDevice(dev_name);
            if (!dev) {
                rep.add(lint::Rule::ConfigUnknownDevice, "config", "",
                        "unknown device '" + dev_name + "'");
                continue;
            }
            trt::Builder builder(*dev);
            for (const auto prec : precisions) {
                trt::BuilderConfig cfg;
                cfg.precision = prec;
                cfg.batch = batch;
                const auto engine = builder.build(net, cfg);
                lint::lintEngine(engine, *dev, rep);
                lint::lintDeployment(engine, procs, *dev, rep);
            }
        }
    }
}

/** The shipped examples' specs, kept in lockstep with examples/ so
 * CI proves the documented entry points lint clean. */
void
lintExamples(lint::Report &rep)
{
    // examples/quickstart.cpp defaults.
    core::ExperimentSpec quickstart;
    quickstart.device = "orin-nano";
    quickstart.model = "resnet50";
    quickstart.precision = soc::Precision::Int8;
    lint::lintExperiment(quickstart, rep);

    // examples/edge_cloud_offload.cpp per-placement cell.
    for (const auto &dev_name : soc::deviceNames()) {
        core::ExperimentSpec s;
        s.device = dev_name;
        s.model = "yolov8n";
        s.precision = soc::Precision::Fp16;
        s.batch = 4;
        s.warmup = sim::msec(250);
        s.duration = sim::sec(2);
        lint::lintExperiment(s, rep);
    }

    // examples/precision_explorer.cpp sweep.
    for (const auto prec : soc::kAllPrecisions) {
        core::ExperimentSpec s;
        s.model = "resnet50";
        s.precision = prec;
        s.warmup = sim::msec(250);
        s.duration = sim::sec(2);
        lint::lintExperiment(s, rep);
    }

    // examples/mixed_tenancy.cpp multi-tenant mix.
    core::MixedExperimentSpec mix;
    mix.device = "orin-nano";
    mix.workloads = {
        core::WorkloadSpec{"resnet50", soc::Precision::Int8, 1, 2},
        core::WorkloadSpec{"yolov8n", soc::Precision::Fp16, 2, 1},
        core::WorkloadSpec{"mobilenet_v2", soc::Precision::Int8, 1, 1},
    };
    mix.warmup = sim::msec(300);
    mix.duration = sim::sec(2);
    lint::lintExperiment(mix, rep);
}

/** Lint a plan file written from trt::Engine::serialize() (e.g.
 * tests/data/plan_good.json); an unreadable or malformed file is a
 * user error. */
void
lintPlanFile(const std::string &path, const std::string &device,
             lint::Report &rep)
{
    const auto text = sim::readFile(path);
    if (!text)
        sim::fatal("jetlint: --plan: cannot read '%s'", path.c_str());
    std::string err;
    const auto engine = trt::Engine::deserialize(*text, err);
    if (!engine)
        sim::fatal("%s: %s", path.c_str(), err.c_str());
    if (const auto dev = soc::findDevice(device))
        lint::lintEngine(*engine, *dev, rep);
    else
        lint::lintEngine(*engine, rep);
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ArgParser args("jetlint",
                          "static model/plan/config linter");
    args.add("model", "resnet50", "zoo model name");
    args.add("device", "orin-nano", "target device, or 'all'");
    args.add("precision", "fp16", "engine precision, or 'all'");
    args.add("batch", "1", "engine batch size");
    args.add("procs", "1", "concurrent process count");
    args.add("zoo", "false", "lint every zoo model");
    args.add("examples", "false", "lint the shipped example configs");
    args.add("plan", "",
             "lint a plan file (trt::Engine::serialize() output, "
             "e.g. tests/data/plan_good.json)");
    args.add("json", "false", "emit findings as JSON");
    args.add("werror", "false", "treat warnings as errors");
    args.add("list-rules", "false", "print the rule catalogue");
    args.add("markdown", "false",
             "render --list-rules as the README markdown table");
    if (!args.parse(argc, argv))
        return 2;

    if (args.boolean("list-rules")) {
        listRules(args.boolean("markdown"));
        return 0;
    }

    lint::Report rep;
    if (args.boolean("zoo")) {
        lintZoo(deviceList(args.str("device")), precisionList(args),
                args.intval("batch", 1), args.intval("procs", 1), rep);
    } else if (args.boolean("examples")) {
        lintExamples(rep);
    } else if (args.given("plan")) {
        lintPlanFile(args.str("plan"), args.str("device"), rep);
    } else {
        core::ExperimentSpec spec;
        spec.device = args.str("device");
        spec.model = args.str("model");
        spec.precision = args.enumval<soc::Precision>("precision");
        spec.batch = args.intval("batch", 1);
        spec.processes = args.intval("procs", 1);
        lint::lintExperiment(spec, rep);
    }

    if (args.boolean("json"))
        std::fputs(rep.json().c_str(), stdout);
    else
        std::fputs(rep.text().c_str(), stdout);

    if (rep.errors() > 0)
        return 1;
    if (args.boolean("werror") && rep.warnings() > 0)
        return 1;
    return 0;
}
