/**
 * @file
 * Extension bench: per-kernel time breakdown (the Nsight "CUDA GPU
 * kernel summary" view), showing *where* each model's time goes and
 * which kernels are compute-, memory- or latency-bound — the
 * hardware-aware optimisation guidance the paper's abstract calls
 * for.
 */

#include "bench_util.hh"

#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/kernel_summary.hh"
#include "sim/logging.hh"
#include "workload/inference_process.hh"

using namespace jetsim;

namespace {

void
breakdown(const std::string &model, soc::Precision prec)
{
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);
    const auto &net = models::modelByName(model);

    workload::ProcessConfig cfg;
    cfg.name = "p0";
    cfg.build.precision = prec;
    workload::InferenceProcess p(board, sched, gpu, net, cfg);
    if (!p.deploy())
        sim::fatal("deploy failed");

    prof::KernelSummary summary(gpu);
    summary.attach();

    p.start();
    eq.runUntil(sim::msec(300));
    summary.clear();
    p.beginMeasurement();
    eq.runUntil(eq.now() + sim::sec(1));
    p.endMeasurement();
    p.stopEnqueue();

    prof::printHeading(std::cout,
                       model + " / " + soc::name(prec) +
                           " on orin-nano: top kernels by GPU time");
    prof::Table t({"kernel", "calls", "total (us)", "avg (us)",
                   "share (%)", "tc util", "bound"});
    for (const auto &k : summary.table(12))
        t.addRow({k.name, std::to_string(k.calls),
                  prof::fmt(k.total_us, 0), prof::fmt(k.avg_us(), 1),
                  prof::fmt(k.share_pct, 1),
                  prof::fmt(k.avg_tc_util, 2),
                  prof::boundName(k.bound)});
    t.print(std::cout);

    // Bound-ness mix over the whole engine.
    double comp = 0, mem = 0, lat = 0;
    for (const auto &k : summary.table()) {
        switch (k.bound) {
          case prof::KernelBound::Compute: comp += k.share_pct; break;
          case prof::KernelBound::Memory: mem += k.share_pct; break;
          case prof::KernelBound::Latency: lat += k.share_pct; break;
        }
    }
    std::printf("\nGPU time split: %.0f%% compute-bound, %.0f%% "
                "memory-bound, %.0f%% latency-bound\n",
                comp, mem, lat);
}

} // namespace

int
main()
{
    breakdown("resnet50", soc::Precision::Int8);
    breakdown("fcn_resnet50", soc::Precision::Fp16);
    breakdown("yolov8n", soc::Precision::Int8);
    return 0;
}
