/**
 * @file
 * Edge-vs-cloud offloading analysis (the paper's introduction).
 *
 * "In cloud environments equipped with NVIDIA A40 GPUs, a single
 * YoloV8n model is capable of processing over 1000 images per second
 * using fp16 precision. However, network-related delays ... diminish
 * the effective throughput." (paper S1)
 *
 * This example profiles the same workload on the edge boards and on
 * the A40-class cloud device, then folds in a network model
 * (bandwidth + RTT) to compute the *effective* throughput and
 * end-to-end latency a client sees for each placement.
 *
 * Usage: edge_cloud_offload [uplink_mbps] [rtt_ms]
 */

#include <cstdio>
#include <iostream>

#include "core/profiler.hh"
#include "models/zoo.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "soc/network_link.hh"

using namespace jetsim;

namespace {

struct Placement
{
    std::string name;
    double device_fps;   ///< what the accelerator sustains
    double effective_fps;///< after the network bottleneck
    double latency_ms;   ///< per-image end-to-end
    double power_w;
};

Placement
evaluate(const std::string &device, const soc::NetworkLink &link)
{
    core::ExperimentSpec s;
    s.device = device;
    s.model = "yolov8n";
    s.precision = soc::Precision::Fp16;
    s.batch = 4;
    s.warmup = sim::msec(250);
    s.duration = sim::sec(2);
    std::fprintf(stderr, "  profiling %s\n", s.label().c_str());
    const auto r = core::runExperiment(s);

    Placement p;
    p.name = device;
    p.device_fps = r.total_throughput;
    p.power_w = r.avg_power_w;

    if (device == "a40") {
        // Remote accelerator: the wire caps the stream.
        p.effective_fps = link.effectiveThroughput(p.device_fps);
        p.latency_ms =
            link.endToEndLatencyMs(p.device_fps, s.batch);
    } else {
        p.effective_fps = p.device_fps;
        p.latency_ms = r.mean.pipeline_ms;
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *uplink = argc > 1 ? argv[1] : "50";
    const char *rtt = argc > 2 ? argv[2] : "40";
    const auto uplink_mbps = sim::parseNumber<double>(uplink);
    if (!uplink_mbps || *uplink_mbps <= 0)
        sim::fatal("edge_cloud_offload: uplink_mbps: '%s' is not a "
                   "number > 0",
                   uplink);
    const auto rtt_ms = sim::parseNumber<double>(rtt);
    if (!rtt_ms || *rtt_ms < 0)
        sim::fatal("edge_cloud_offload: rtt_ms: '%s' is not a number "
                   ">= 0",
                   rtt);
    soc::NetworkLink link;
    link.uplink_mbps = *uplink_mbps;
    link.rtt_ms = *rtt_ms;

    std::printf("edge vs cloud for YoloV8n fp16 (uplink %.0f Mbps, "
                "RTT %.0f ms; wire admits %.0f img/s)\n",
                link.uplink_mbps, link.rtt_ms,
                link.wireThroughput());

    prof::Table t({"placement", "device fps", "effective fps",
                   "latency (ms)", "board power (W)"});
    Placement best{};
    for (const char *device : {"orin-nano", "nano", "a40"}) {
        const auto p = evaluate(device, link);
        t.addRow({p.name, prof::fmt(p.device_fps, 0),
                  prof::fmt(p.effective_fps, 0),
                  prof::fmt(p.latency_ms, 1), prof::fmt(p.power_w)});
        if (p.effective_fps > best.effective_fps)
            best = p;
    }
    prof::printHeading(std::cout, "Placement comparison");
    t.print(std::cout);

    std::printf("\nhighest effective throughput: %s (%.0f img/s)\n",
                best.name.c_str(), best.effective_fps);
    std::printf("note how the cloud's 1000+ img/s collapses to the "
                "uplink budget - the paper's core offloading "
                "trade-off.\n");
    return 0;
}
