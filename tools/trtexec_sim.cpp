/**
 * @file
 * trtexec_sim: the command-line tool the paper drives its phase-1
 * measurements with, over the simulated stack.
 *
 * Mirrors the real trtexec's workflow: build an engine for the
 * requested model/precision/batch, warm up, run a timed loop with a
 * pre-enqueued batch, and report throughput plus latency percentiles.
 * `--dumpProfile` additionally attaches the tracer and prints the
 * per-kernel profile (at the documented intrusion cost).
 *
 *   trtexec_sim --model=yolov8n --int8 --batch=4 --device=orin-nano
 *   trtexec_sim --model=resnet50 --precision=fp16 --dumpProfile
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "argparse.hh"
#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "prof/jstats.hh"
#include "prof/nsight.hh"
#include "prof/report.hh"
#include "sim/event_queue.hh"
#include "soc/board.hh"
#include "workload/inference_process.hh"

using namespace jetsim;

int
main(int argc, char **argv)
{
    tools::ArgParser args("trtexec_sim",
                          "TensorRT-style inference benchmark over "
                          "the simulated Jetson stack");
    args.add("model", "resnet50",
             "resnet50 | fcn_resnet50 | yolov8n | resnet18 | "
             "mobilenet_v2");
    args.add("device", "orin-nano", "orin-nano | nano | a40");
    args.add("precision", "fp16", "int8 | fp16 | tf32 | fp32");
    args.add("int8", "false", "shorthand for --precision=int8");
    args.add("fp16", "false", "shorthand for --precision=fp16");
    args.add("batch", "1", "compiled batch size");
    args.add("duration", "3", "measured seconds");
    args.add("warmUp", "400", "warm-up milliseconds");
    args.add("useSpinWait", "true",
             "busy-spin in stream synchronisation");
    args.add("preEnqueue", "1", "extra batches kept in flight");
    args.add("dumpProfile", "false",
             "attach the tracer and print per-kernel timings");
    if (!args.parse(argc, argv))
        return 1;

    soc::Precision prec = args.precision("precision");
    if (args.boolean("int8"))
        prec = soc::Precision::Int8;
    else if (args.given("fp16") && args.boolean("fp16"))
        prec = soc::Precision::Fp16;

    sim::EventQueue eq;
    soc::Board board(
        soc::deviceByName(args.choice("device", soc::deviceNames())), eq);
    board.start();
    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);

    const auto net =
        models::modelByName(args.choice("model", models::allModelNames()));

    workload::ProcessConfig cfg;
    cfg.name = "trtexec";
    cfg.build.precision = prec;
    cfg.build.batch = args.intval("batch", 1);
    cfg.pre_enqueue = args.intval("preEnqueue", 0);
    cfg.spin_wait = args.boolean("useSpinWait");
    const sim::Tick warmup = sim::msec(args.intval("warmUp", 0));
    // 1e9 s keeps every tick count far from int64 overflow.
    const sim::Tick duration = sim::sec(args.dbl("duration", 0, 1e9));

    workload::InferenceProcess proc(board, sched, gpu, net, cfg);
    if (!proc.deploy()) {
        std::fprintf(stderr,
                     "error: engine does not fit in device memory "
                     "(%.0f MiB available)\n",
                     sim::toMiB(board.memory().available()));
        return 1;
    }

    const auto &engine = proc.engine();
    std::printf("=== Model ===\n");
    std::printf("model: %s, precision: %s, batch: %d\n",
                args.str("model").c_str(), soc::name(prec),
                cfg.build.batch);
    std::printf("engine: %zu kernels, weights %.1f MiB, activations "
                "%.1f MiB, workspace %.1f MiB\n",
                engine.kernels().size(),
                sim::toMiB(engine.weightBytes()),
                sim::toMiB(engine.activationBytes()),
                sim::toMiB(engine.workspaceBytes()));

    // Per-kernel aggregation for --dumpProfile.
    struct KStat
    {
        std::uint64_t calls = 0;
        double total_us = 0;
    };
    std::map<const gpu::KernelDesc *, KStat> profile;
    std::unique_ptr<prof::NsightTracer> tracer;
    if (args.boolean("dumpProfile")) {
        tracer = std::make_unique<prof::NsightTracer>(board, gpu);
        tracer->attach();
        gpu.setTraceHook([&](const gpu::KernelRecord &rec) {
            auto &s = profile[rec.desc];
            ++s.calls;
            s.total_us += sim::toUsec(rec.end - rec.start);
        });
    }

    prof::JStatsSampler jstats(board, sim::msec(100));
    jstats.start();

    proc.start();
    eq.runUntil(warmup);
    proc.beginMeasurement();
    jstats.reset();
    profile.clear();
    eq.runUntil(eq.now() + duration);
    proc.endMeasurement();
    proc.stopEnqueue();

    const auto &lat = proc.latencyCdf();
    std::printf("\n=== Performance summary ===\n");
    std::printf("Throughput: %.1f qps (%.1f img/s)\n",
                proc.throughput() / cfg.build.batch,
                proc.throughput());
    if (!lat.empty()) {
        std::printf("Latency: min = %.3f ms, mean = %.3f ms, median "
                    "= %.3f ms, p99 = %.3f ms, max = %.3f ms\n",
                    lat.min() / 1e6, lat.mean() / 1e6,
                    lat.median() / 1e6, lat.quantile(0.99) / 1e6,
                    lat.max() / 1e6);
    }
    std::printf("Enqueue span: %.3f ms, launch API per EC: %.3f ms, "
                "sync span: %.3f ms\n",
                proc.enqueueSpan().mean() / 1e6,
                proc.launchApiPerEc().mean() / 1e6,
                proc.syncSpan().mean() / 1e6);
    std::printf("Board: %.2f W avg / %.2f W max, GPU util %.1f%%, "
                "memory %.1f%%\n",
                jstats.avgPowerW(), jstats.maxPowerW(),
                jstats.avgGpuUtilPct(),
                board.memory().usagePercent());
    if (tracer)
        std::printf("(profiler attached: expect ~50%% lower "
                    "throughput than phase 1)\n");

    if (tracer && !profile.empty()) {
        std::printf("\n=== Profile (%llu kernels) ===\n",
                    static_cast<unsigned long long>(
                        tracer->kernelCount()));
        std::vector<std::pair<const gpu::KernelDesc *, KStat>> rows(
            profile.begin(), profile.end());
        std::sort(rows.begin(), rows.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.total_us > b.second.total_us;
                  });
        prof::Table t({"kernel", "calls", "total (us)", "avg (us)",
                       "prec", "tc"});
        int shown = 0;
        for (const auto &[k, s] : rows) {
            if (++shown > 15)
                break;
            t.addRow({k->name, std::to_string(s.calls),
                      prof::fmt(s.total_us, 0),
                      prof::fmt(s.total_us / s.calls, 1),
                      soc::name(k->prec), k->tc ? "yes" : "no"});
        }
        t.print(std::cout);
    }
    return 0;
}
