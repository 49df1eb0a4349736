#include "lint/config_lint.hh"

#include <algorithm>
#include <cstdio>

#include "lint/graph_lint.hh"
#include "lint/plan_lint.hh"
#include "models/zoo.hh"
#include "trt/builder.hh"

namespace jetsim::lint {

namespace {

constexpr const char *kComp = "config";

/** The paper's swept batch sizes (Table 1 methodology grid). */
constexpr int kPaperMaxBatch = 32;

/** trtexec keeps one batch pre-enqueued; a handful is defensible. */
constexpr int kMaxSanePreEnqueue = 8;

bool
knownModel(const std::string &name)
{
    const auto &all = models::allModelNames();
    return std::find(all.begin(), all.end(), name) != all.end();
}

std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

/** Names/numbers every spec flavour shares. Returns false when the
 * spec is too broken to build engines for. */
bool
lintCommon(const std::string &device, int pre_enqueue,
           bool spatial_sharing, sim::Tick warmup, sim::Tick duration,
           Report &rep)
{
    bool buildable = true;

    const auto dev = soc::findDevice(device);
    if (!dev) {
        rep.add(Rule::ConfigUnknownDevice, kComp, "",
                "unknown device '" + device + "'",
                "expected one of: " + joined(soc::deviceNames()));
        buildable = false;
    }

    if (duration <= 0)
        rep.add(Rule::ConfigBadWindow, kComp, "",
                "measurement duration " +
                    std::to_string(sim::toSec(duration)) + " s",
                "the window must be positive");
    if (warmup < 0)
        rep.add(Rule::ConfigBadWindow, kComp, "",
                "negative warm-up " +
                    std::to_string(sim::toSec(warmup)) + " s");

    if (pre_enqueue < 0)
        rep.add(Rule::ConfigBadPreEnqueue, kComp, "",
                "pre-enqueue depth " + std::to_string(pre_enqueue));
    else if (pre_enqueue > kMaxSanePreEnqueue)
        rep.add(Rule::ConfigBadPreEnqueue, check::Severity::Warning,
                kComp, "",
                "pre-enqueue depth " + std::to_string(pre_enqueue) +
                    " far beyond trtexec practice (1)",
                "each queued batch pins another I/O buffer set");

    // Only the server-class A40 has MPS; every Jetson board
    // time-multiplexes channels.
    if (spatial_sharing && dev && dev->name != "a40")
        rep.add(Rule::ConfigSpatialSharing, kComp, "",
                dev->name + " time-multiplexes GPU channels; MPS-"
                            "style spatial sharing is hypothetical "
                            "(ablation A5 only)",
                "disable spatial_sharing for paper-faithful runs");

    return buildable;
}

/** One workload group's model/precision/batch/processes. Returns
 * false when engines cannot be built from it. */
bool
lintWorkload(const std::string &model, soc::Precision precision,
             int batch, int processes, const soc::DeviceSpec *dev,
             Report &rep)
{
    bool buildable = true;

    if (!knownModel(model)) {
        rep.add(Rule::ConfigUnknownModel, kComp, "",
                "unknown model '" + model + "'",
                "expected one of: " + joined(models::allModelNames()));
        buildable = false;
    }

    if (batch <= 0) {
        rep.add(Rule::ConfigBadBatch, kComp, "",
                "batch " + std::to_string(batch),
                "engines are compiled for a fixed batch >= 1");
        buildable = false;
    } else if (batch > kPaperMaxBatch) {
        rep.add(Rule::ConfigBadBatch, check::Severity::Warning, kComp,
                "",
                "batch " + std::to_string(batch) +
                    " beyond the paper's swept grid (max " +
                    std::to_string(kPaperMaxBatch) + ")",
                "results will extrapolate outside calibrated "
                "territory");
    }

    if (processes <= 0) {
        rep.add(Rule::ConfigBadProcesses, kComp, "",
                "process count " + std::to_string(processes),
                "a cell needs at least one process");
        buildable = false;
    } else if (dev && processes > dev->totalCores()) {
        rep.add(Rule::ConfigBadProcesses, check::Severity::Warning,
                kComp, "",
                std::to_string(processes) +
                    " spin-wait processes oversubscribe " + dev->name +
                    "'s " + std::to_string(dev->totalCores()) +
                    " CPU cores",
                "expect heavy blocking-time inflation (paper S7)");
    }

    if (dev && dev->precisionCoverage(precision) < 1.0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s covers only %.0f %% of layer types at %s; "
                      "the rest falls back to fp32 (paper S6.1.1)",
                      dev->name.c_str(),
                      100.0 * dev->precisionCoverage(precision),
                      soc::name(precision));
        rep.add(Rule::ConfigPrecisionCoverage, kComp, "", buf);
    }

    return buildable;
}

} // namespace

void
lintExperiment(const core::ExperimentSpec &spec, Report &rep)
{
    const auto dev = soc::findDevice(spec.device);
    bool buildable =
        lintCommon(spec.device, spec.pre_enqueue, spec.spatial_sharing,
                   spec.warmup, spec.duration, rep);
    buildable &= lintWorkload(spec.model, spec.precision, spec.batch,
                              spec.processes, dev ? &*dev : nullptr,
                              rep);
    if (!buildable || !dev)
        return;

    const auto &net = models::modelByName(spec.model);
    lintNetwork(net, rep);

    trt::BuilderConfig cfg;
    cfg.precision = spec.precision;
    cfg.batch = spec.batch;
    const auto engine = trt::sharedEngine(*dev, net, cfg);
    lintEngine(*engine, *dev, rep);
    lintDeployment(*engine, spec.processes, *dev, rep);
}

void
lintExperiment(const core::MixedExperimentSpec &spec, Report &rep)
{
    const auto dev = soc::findDevice(spec.device);
    bool buildable =
        lintCommon(spec.device, spec.pre_enqueue, spec.spatial_sharing,
                   spec.warmup, spec.duration, rep);

    if (spec.workloads.empty())
        rep.add(Rule::ConfigBadProcesses, kComp, "",
                "mixed experiment with no workload groups");

    for (const auto &w : spec.workloads)
        buildable &=
            lintWorkload(w.model, w.precision, w.batch, w.processes,
                         dev ? &*dev : nullptr, rep);
    if (!buildable || !dev || spec.workloads.empty())
        return;

    std::vector<std::shared_ptr<const trt::Engine>> engines;
    engines.reserve(spec.workloads.size());
    for (const auto &w : spec.workloads) {
        const auto &net = models::modelByName(w.model);
        lintNetwork(net, rep);
        trt::BuilderConfig cfg;
        cfg.precision = w.precision;
        cfg.batch = w.batch;
        engines.push_back(trt::sharedEngine(*dev, net, cfg));
        lintEngine(*engines.back(), *dev, rep);
    }

    std::vector<DeploymentGroup> groups;
    groups.reserve(engines.size());
    for (std::size_t i = 0; i < engines.size(); ++i)
        groups.emplace_back(engines[i].get(),
                            spec.workloads[i].processes);
    lintDeployment(groups, *dev, rep);
}

} // namespace jetsim::lint
