/**
 * @file
 * Extension bench: open-loop latency-throughput curve.
 *
 * The paper's trtexec methodology measures the capacity bound; a
 * deployment decision also needs the latency curve under offered
 * load (where is the knee, what does p99 look like near saturation).
 * This bench sweeps Poisson arrival rates against a YoloV8n int8
 * server on the Orin Nano and prints the curve, plus the effect of
 * the 15 W power mode.
 */

#include "bench_util.hh"

#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/logging.hh"
#include "workload/inference_process.hh"

using namespace jetsim;

namespace {

struct Point
{
    double offered;
    double achieved;
    double p50_ms;
    double p99_ms;
    std::size_t max_queue;
};

Point
run(const std::string &device, double rate)
{
    sim::EventQueue eq;
    soc::Board board(soc::deviceByName(device), eq);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);
    const auto net = models::yolov8n();

    workload::ProcessConfig cfg;
    cfg.name = "srv";
    cfg.build.precision = soc::Precision::Int8;
    cfg.arrival_rate = rate;
    cfg.spin_wait = false;
    workload::InferenceProcess p(board, sched, gpu, net, cfg);
    if (!p.deploy())
        sim::fatal("deploy failed");
    p.start();
    eq.runUntil(sim::msec(500));
    p.beginMeasurement();
    const sim::Tick dur = std::getenv("JETSIM_QUICK")
                              ? sim::sec(1)
                              : sim::sec(4);
    eq.runUntil(eq.now() + dur);
    p.endMeasurement();
    p.stopEnqueue();

    Point pt;
    pt.offered = rate;
    pt.achieved = p.throughput();
    pt.p50_ms = p.latencyCdf().empty()
                    ? 0.0
                    : p.latencyCdf().median() / 1e6;
    pt.p99_ms = p.latencyCdf().empty()
                    ? 0.0
                    : p.latencyCdf().quantile(0.99) / 1e6;
    pt.max_queue = p.maxQueueDepth();
    return pt;
}

} // namespace

int
main()
{
    for (const char *device : {"orin-nano", "orin-nano-15w"}) {
        prof::printHeading(std::cout,
                           std::string("Extension: open-loop serving "
                                       "curve, yolov8n int8 b1 on ") +
                               device);
        prof::Table t({"offered (img/s)", "achieved (img/s)",
                       "p50 (ms)", "p99 (ms)", "max queue"});
        for (double rate : {25.0, 50.0, 100.0, 150.0, 200.0, 250.0,
                            300.0, 400.0}) {
            std::fprintf(stderr, "  running %s @ %.0f img/s\n", device,
                         rate);
            const auto pt = run(device, rate);
            t.addRow({prof::fmt(pt.offered, 0),
                      prof::fmt(pt.achieved, 1),
                      prof::fmt(pt.p50_ms), prof::fmt(pt.p99_ms),
                      std::to_string(pt.max_queue)});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    std::printf("the knee of the curve - not the trtexec capacity "
                "bound - is the deployable operating point; the 15 W "
                "mode moves it right.\n");
    return 0;
}
