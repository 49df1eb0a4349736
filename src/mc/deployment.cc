#include "mc/deployment.hh"

#include <memory>

#include "check/digest.hh"
#include "check/reporter.hh"
#include "cpu/scheduler.hh"
#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "soc/board.hh"
#include "workload/inference_process.hh"

namespace jetsim::mc {

namespace {

std::string
procName(const DeployConfig &cfg, int i)
{
    return cfg.procs[static_cast<std::size_t>(i)].model + "/" +
           soc::name(cfg.procs[static_cast<std::size_t>(i)].precision) +
           "." + std::to_string(i);
}

} // namespace

std::string
DeployConfig::label() const
{
    std::string s = device + "[";
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (i)
            s += " + ";
        s += procs[i].model + "/" + soc::name(procs[i].precision) +
             " b" + std::to_string(procs[i].batch);
    }
    s += "] ecs" + std::to_string(max_ecs);
    if (shared_buffer)
        s += " shared-buffer";
    return s;
}

DeploymentModel::DeploymentModel(DeployConfig cfg)
    : cfg_(std::move(cfg))
{
    JETSIM_ASSERT(!cfg_.procs.empty() && cfg_.max_ecs > 0);
}

int
DeploymentModel::procOf(sim::ChoiceKind kind, std::int64_t actor) const
{
    switch (kind) {
      case sim::ChoiceKind::GpuChannel:
      case sim::ChoiceKind::CpuRunQueue:
        // Each process creates one stream and one thread, in deploy
        // order, so channel id == thread index == process index.
        if (actor >= 0 && actor < procCount())
            return static_cast<int>(actor);
        return kProcUnknown;
      case sim::ChoiceKind::EventTie:
        return kProcUnknown;
      case sim::ChoiceKind::ShardMerge:
        // Deployments run on one queue; merge sites never arise.
        return kProcUnknown;
    }
    return kProcUnknown;
}

bool
DeploymentModel::dependent(int pa, int pb) const
{
    // Each process owns its stream and its device memory (TensorRT
    // processes share none), so distinct processes commute at the
    // logical-digest level unless a shared buffer is seeded.
    return pa == pb || cfg_.shared_buffer;
}

RunOutcome
DeploymentModel::run(const std::vector<int> &script)
{
    // Count mode: a finding must come back as data, not an abort in
    // the middle of the search.
    check::ScopedCapture capture;
    RunOutcome out;

    sim::EventQueue eq;
    soc::Board board(soc::deviceByName(cfg_.device), eq, cfg_.seed);
    // Closed system: the governor's periodic sampling would keep the
    // queue alive forever (and its events are schedule-noise anyway),
    // so it stays off — board.start() is never called.
    board.governor().setEnabled(false);

    cpu::OsScheduler sched(board);
    gpu::GpuEngine gpu(board);

    // Per-channel kernel-name FIFO: channels are FIFOs, so each
    // channel's sequence is schedule-invariant and digest-safe even
    // though the cross-channel interleaving is not.
    std::vector<std::vector<std::string>> chan_seq;
    const auto sub = gpu.subscribe([&chan_seq](const gpu::KernelRecord &r) {
        if (r.channel >= static_cast<int>(chan_seq.size()))
            chan_seq.resize(static_cast<std::size_t>(r.channel) + 1);
        chan_seq[static_cast<std::size_t>(r.channel)].push_back(
            r.desc->name);
    });

    const int n = procCount();
    std::vector<std::unique_ptr<workload::InferenceProcess>> procs;
    procs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const auto &p = cfg_.procs[static_cast<std::size_t>(i)];
        workload::ProcessConfig pc;
        pc.name = procName(cfg_, i);
        pc.build.precision = p.precision;
        pc.build.batch = p.batch;
        pc.pre_enqueue = cfg_.pre_enqueue;
        // All processes start at tick 0: the launch race is the point.
        pc.start_offset = 0;
        // Blocking sync — a spin-wait loop polls forever and the
        // closed system would never quiesce.
        pc.spin_wait = false;
        pc.max_ecs = cfg_.max_ecs;
        procs.push_back(std::make_unique<workload::InferenceProcess>(
            board, sched, gpu, models::modelByName(p.model),
            std::move(pc)));
    }
    for (auto &p : procs) {
        if (!p->deploy()) {
            out.bound_exceeded = true;
            out.detail = "deployment does not fit on " + cfg_.device +
                         " (config error, not a schedule verdict)";
            out.violations = capture.total();
            return out;
        }
    }

    TraceChooser chooser(script);
    eq.setChooser(&chooser);
    for (auto &p : procs) {
        p->beginMeasurement(); // count from the first EC
        p->start();
    }
    out.events = eq.runAll(cfg_.max_events);
    eq.setChooser(nullptr);

    out.trace = chooser.trace();
    out.violations = capture.total();
    out.bound_exceeded = !eq.empty();
    out.max_block_ms.reserve(static_cast<std::size_t>(n));

    check::Digest d;
    for (int i = 0; i < n; ++i) {
        const auto &p = *procs[static_cast<std::size_t>(i)];
        const bool done = p.ecsLaunched() == cfg_.max_ecs &&
                          p.ecsCompleted() == cfg_.max_ecs;
        if (!out.bound_exceeded && !done) {
            out.deadlock = true;
            if (!out.detail.empty())
                out.detail += "; ";
            out.detail += p.config().name + " stalled at " +
                          std::to_string(p.ecsCompleted()) + "/" +
                          std::to_string(cfg_.max_ecs) + " ECs (" +
                          std::to_string(p.ecsLaunched()) +
                          " launched)";
        }
        d.add(p.config().name);
        d.add(p.ecsLaunched());
        d.add(p.ecsCompleted());
        d.add(p.imagesCompleted());
        out.max_block_ms.push_back(p.blockedTime().max() / 1e6);
    }
    for (std::size_t c = 0; c < chan_seq.size(); ++c) {
        d.add(static_cast<std::uint64_t>(c));
        for (const auto &name : chan_seq[c])
            d.add(name);
    }
    d.add(static_cast<std::uint64_t>(board.memory().used()));
    d.add(out.violations);
    out.digest = d.value();
    return out;
}

} // namespace jetsim::mc
