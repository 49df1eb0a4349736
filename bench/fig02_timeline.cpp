/**
 * @file
 * Fig 2: the inference timeline and profiling scope.
 *
 * The paper's Fig 2 is a schematic (warm-up, then EC_i executions
 * separated by CudaSynchronization events, with the two profiling
 * phases drawn around it). This bench renders the *actual* measured
 * timeline from the simulated run: an ASCII Gantt of kernels grouped
 * into ECs for two concurrent processes, plus the per-EC / CS event
 * sequence. It writes no trace file; a prof::ChromeTraceExporter
 * attached beside the Gantt's own subscriber would export the same
 * kernel timeline for Perfetto.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/report.hh"
#include "sim/event_queue.hh"
#include "soc/board.hh"
#include "workload/inference_process.hh"

using namespace jetsim;

int
main()
{
    sim::EventQueue eq;
    soc::Board board(soc::orinNano(), eq);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);
    const auto net = models::resnet50();

    std::vector<std::unique_ptr<workload::InferenceProcess>> procs;
    for (int i = 0; i < 2; ++i) {
        workload::ProcessConfig cfg;
        cfg.name = "proc" + std::to_string(i);
        cfg.build.precision = soc::Precision::Int8;
        cfg.start_offset = sim::msec(2) * i;
        procs.push_back(std::make_unique<workload::InferenceProcess>(
            board, sched, gpu, net, cfg));
        if (!procs.back()->deploy())
            return 1;
    }

    std::vector<std::pair<int, std::pair<sim::Tick, sim::Tick>>> spans;
    const auto sub = gpu.subscribe([&](const gpu::KernelRecord &rec) {
        spans.emplace_back(rec.channel,
                           std::make_pair(rec.start, rec.end));
    });

    for (auto &p : procs)
        p->start();
    eq.runUntil(sim::msec(10)); // past the warm-up ramp
    for (auto &p : procs)
        p->beginMeasurement();
    const sim::Tick t0 = eq.now();
    eq.runUntil(t0 + sim::msec(10));
    for (auto &p : procs) {
        p->endMeasurement();
        p->stopEnqueue();
    }

    prof::printHeading(std::cout,
                       "Fig 2: measured inference timeline (ResNet50 "
                       "int8 x2, Orin Nano; 10 ms window)");

    // ASCII Gantt: one row per process channel, 100 columns over the
    // window; '#' = this channel's kernels executing.
    constexpr int kCols = 100;
    const sim::Tick span = sim::msec(10);
    for (int ch = 0; ch < 2; ++ch) {
        std::string row(kCols, '.');
        for (const auto &[c, se] : spans) {
            if (c != ch)
                continue;
            const auto [s, e] = se;
            if (e < t0 || s > t0 + span)
                continue;
            const int a = static_cast<int>(
                std::max<sim::Tick>(0, s - t0) * kCols / span);
            const int b = static_cast<int>(
                std::min<sim::Tick>(span, e - t0) * kCols / span);
            for (int i = a; i <= std::min(b, kCols - 1); ++i)
                row[static_cast<std::size_t>(i)] = '#';
        }
        std::printf("proc%d |%s|\n", ch, row.c_str());
    }
    std::printf("       0 ms %*s 10 ms\n", kCols - 8, "");
    std::printf("\n'#' = kernels of that process resident on the "
                "GPU; gaps on one lane while the other runs are the "
                "time-multiplexed sharing of Fig 2's EC timeline.\n");

    // EC / CS event sequence for one process.
    prof::printHeading(std::cout, "EC / CS event sequence (proc0)");
    const auto &p0 = *procs[0];
    std::printf("ECs completed: %llu, EC period %.2f ms, sync span "
                "%.2f ms, enqueue %.2f ms\n",
                static_cast<unsigned long long>(p0.ecsCompleted()),
                p0.ecPeriod().count() ? p0.ecPeriod().mean() / 1e6
                                      : 0.0,
                p0.syncSpan().count() ? p0.syncSpan().mean() / 1e6
                                      : 0.0,
                p0.enqueueSpan().count()
                    ? p0.enqueueSpan().mean() / 1e6
                    : 0.0);

    std::printf("\n(The Gantt above is one subscriber to the GPU "
                "engine's kernel records; prof::ChromeTraceExporter, "
                "prof::KernelSummary and prof::NsightTracer subscribe "
                "the same way and can all watch one run.)\n");
    return 0;
}
