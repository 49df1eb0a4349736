#include "trt/builder.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>

#include "core/mutex.hh"
#include "core/thread_annotations.hh"
#include "gpu/cost_model.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace jetsim::trt {

namespace {

/** Bytes per activation element at the given compute precision. */
unsigned
activationBytes(soc::Precision p)
{
    return soc::storageBytes(p);
}

/** Fixed engine metadata overhead (plan file, bindings, etc). */
constexpr sim::Bytes kEngineOverhead = 2 * sim::kMiB;

/** Builder scratch floor and per-activation scaling. */
constexpr sim::Bytes kWorkspaceFloor = 16 * sim::kMiB;

} // namespace

Builder::Builder(const soc::DeviceSpec &spec) : spec_(spec) {}

bool
Builder::supported(const FusedOp &op, soc::Precision p) const
{
    if (p == soc::Precision::Fp32)
        return true;
    const double coverage = spec_.precisionCoverage(p);
    if (coverage >= 1.0)
        return true;
    if (coverage <= 0.0)
        return false;
    // Deterministic pseudo-selection: the same fraction of layer
    // types has native kernels on every build of the same model.
    const double frac =
        static_cast<double>(sim::hashLabel(op.name) % 10000) / 10000.0;
    return frac < coverage;
}

gpu::KernelDesc
Builder::makeKernel(const FusedOp &op, soc::Precision p,
                    const BuilderConfig &cfg) const
{
    gpu::KernelDesc k;
    k.name = op.name;
    k.name_id = sim::internName(op.name);
    k.prec = p;
    k.flops = 2.0 * op.macs * cfg.batch;

    // First-layer convolutions (3-channel image input) run on tensor
    // cores via channel padding — TensorRT's specialised image-input
    // kernels — at the cost of the padded lanes' wasted math.
    const bool first_layer = op.anchor == graph::OpKind::Conv &&
                             op.in_channels > 0 && op.in_channels < 8;
    double first_layer_pad = 1.0;
    if (first_layer)
        first_layer_pad = 8.0 / op.in_channels;

    k.tc = (op.tc_eligible || first_layer) &&
           spec_.gpu.hasTensorCores() && p != soc::Precision::Fp32;
    if (k.tc)
        k.flops *= first_layer_pad;

    // Dilated convolutions execute with gather/padding overhead: the
    // tensor cores stay busy on amplified work — the FCN_ResNet50
    // signature the paper reports (near-100 % TC utilisation at
    // fp16/tf32 without matching throughput, S6.1.4).
    double bytes_amp = 1.0;
    if (op.dilated) {
        k.flops *= 2.5;
        bytes_amp = 1.3;
    }

    const unsigned abytes = activationBytes(p);
    k.bytes = (static_cast<double>(op.in_elems + op.out_elems) *
                   cfg.batch * abytes +
               static_cast<double>(op.weight_params) *
                   soc::storageBytes(p)) *
              bytes_amp;

    const double out_work =
        static_cast<double>(op.out_elems) * cfg.batch;
    k.blocks = std::max(1, static_cast<int>(out_work / 512.0));

    // Tactic quality: large regular matrix math sustains a higher
    // fraction of peak; batch improves GEMM shape with diminishing
    // returns; elementwise work stays low (it is bandwidth-bound).
    // A SiLU op demoted from an int8 request pays Q/DQ reformats
    // whose cost scales with the data volume: it forfeits the
    // larger-batch GEMM-shape gain (flat at batch 1, increasingly
    // costly at batch 16 — YoloV8n's muted batch scaling, S6.2.1).
    const bool silu_demoted = cfg.precision == soc::Precision::Int8 &&
                              op.has_silu && k.tc;
    const double batch_boost = std::pow(
        std::min(4.0, double(cfg.batch)), silu_demoted ? 0.15 : 0.3);
    const double intensity =
        op.intensityPerElem() * first_layer_pad * batch_boost;
    if (k.tc) {
        k.efficiency_scale =
            std::clamp(0.30 * std::log2(1.0 + intensity / 24.0), 0.45,
                       2.90);
        k.issue_intensity = 0.35;
    } else {
        k.efficiency_scale =
            std::clamp(0.35 * std::log2(1.0 + intensity / 48.0), 0.60,
                       1.30);
        const bool matmul = op.anchor == graph::OpKind::Conv ||
                            op.anchor == graph::OpKind::Linear;
        k.issue_intensity = matmul ? 0.70 : 0.55;
    }

    if (op.dilated) {
        // The amplified gather work sustains a poor fraction of peak
        // but keeps the tensor-core pipelines occupied (stalls count
        // as active cycles in the TC counter). Caps per precision are
        // calibrated against the paper's FCN_ResNet50 anchors
        // (tf32 ~12 img/s, fp32 ~5 img/s, int8 ~12x fp32 on Orin).
        double cap = 1.0;
        switch (p) {
          case soc::Precision::Int8: cap = 0.55; break;
          case soc::Precision::Fp16: cap = 0.85; break;
          case soc::Precision::Tf32: cap = 0.70; break;
          case soc::Precision::Fp32: cap = 1.20; break;
        }
        k.efficiency_scale = std::min(k.efficiency_scale, cap);
        // Occupied-but-stalled TC residency per precision: fp16 and
        // tf32 dilated convolutions sit near 100 % TC-active in the
        // paper's Fig 5 despite their poor throughput.
        switch (p) {
          case soc::Precision::Int8: k.tc_stall_factor = 2.0; break;
          case soc::Precision::Fp16: k.tc_stall_factor = 3.5; break;
          case soc::Precision::Tf32: k.tc_stall_factor = 6.5; break;
          case soc::Precision::Fp32: break; // CUDA path
        }
    }
    return k;
}

Engine
Builder::build(const graph::Network &net,
               const BuilderConfig &cfg) const
{
    JETSIM_ASSERT(cfg.batch >= 1);
    net.validate();

    Engine e;
    e.model_ = net.name();
    e.requested_ = cfg.precision;
    e.batch_ = cfg.batch;

    const auto ops = fuseNetwork(net);
    e.kernels_.reserve(ops.size());

    double weight_bytes = 0;
    for (const auto &op : ops) {
        soc::Precision p = cfg.precision;
        if (p == soc::Precision::Int8 && op.has_silu &&
            spec_.gpu.hasTensorCores()) {
            // TensorRT keeps a Q/DQ boundary around SiLU: the fused
            // op runs in fp16 instead — why YoloV8n's int8 gains are
            // the smallest of the three models (paper S6.1.1).
            p = soc::Precision::Fp16;
            ++e.fallback_ops_;
        } else if (!supported(op, p)) {
            p = soc::Precision::Fp32;
            ++e.fallback_ops_;
        }
        e.kernels_.push_back(makeKernel(op, p, cfg));
        weight_bytes += static_cast<double>(op.weight_params) *
                        soc::storageBytes(p);
    }

    // Settle each kernel's device-static timing terms for this GPU,
    // as TensorRT settles its kernel choices when it builds the plan.
    const gpu::KernelCostModel cost(spec_);
    for (auto &k : e.kernels_) {
        k.statics = cost.statics(k);
        e.total_flops_ += k.flops;
        e.total_bytes_ += k.bytes;
    }

    // --- footprint ---------------------------------------------------
    e.weight_bytes_ =
        static_cast<sim::Bytes>(weight_bytes * 1.05) + kEngineOverhead;

    const unsigned abytes = activationBytes(cfg.precision);
    const auto peak_elems = net.peakActivationElems();
    e.activation_bytes_ = static_cast<sim::Bytes>(
        static_cast<double>(peak_elems) * cfg.batch * abytes * 1.3);

    const auto &in = net.layer(net.inputId()).out;
    const auto &out = net.layer(net.outputId()).out;
    // trtexec keeps one batch in flight and one pre-enqueued.
    e.io_bytes_ = static_cast<sim::Bytes>(
        2.0 * cfg.batch * abytes *
        static_cast<double>(in.elems() + out.elems()));

    e.workspace_bytes_ =
        std::max(kWorkspaceFloor,
                 static_cast<sim::Bytes>(e.activation_bytes_ * 0.6));

    return e;
}

namespace {

/** Everything Builder::build reads from its inputs. */
struct BuildKey
{
    std::uint64_t net = 0;
    soc::Precision precision = soc::Precision::Fp16;
    int batch = 1;
    std::array<double, soc::kAllPrecisions.size()> coverage{};
    bool tensor_cores = false;

    auto operator<=>(const BuildKey &) const = default;
};

BuildKey
buildKey(const soc::DeviceSpec &spec, const graph::Network &net,
         const BuilderConfig &cfg)
{
    BuildKey k;
    k.net = net.digest();
    k.precision = cfg.precision;
    k.batch = cfg.batch;
    for (std::size_t i = 0; i < k.coverage.size(); ++i)
        k.coverage[i] = spec.precisionCoverage(soc::kAllPrecisions[i]);
    k.tensor_cores = spec.gpu.hasTensorCores();
    return k;
}

/** The engines built so far. An engine is a deterministic function of
 * its key, so which thread builds it first cannot change a result.
 * The lock covers the map alone: each key's build runs once under its
 * slot's once_flag, so a build holds up only the callers that need
 * that engine. Slots are never erased, and a std::map never moves
 * them, so a slot's address stays valid once the lock drops. */
struct EngineCache
{
    struct Slot
    {
        std::once_flag built;
        std::shared_ptr<const Engine> engine;
    };

    core::Mutex engine_cache_mu;
    std::map<BuildKey, Slot> engines JETSIM_GUARDED_BY(engine_cache_mu);
};

} // namespace

std::shared_ptr<const Engine>
sharedEngine(const soc::DeviceSpec &spec, const graph::Network &net,
             const BuilderConfig &cfg)
{
    const BuildKey key = buildKey(spec, net, cfg);
    static EngineCache cache; // jetrace: guarded(EngineCache::engine_cache_mu)
    EngineCache::Slot *slot = nullptr;
    {
        core::LockGuard lock(cache.engine_cache_mu);
        slot = &cache.engines[key];
    }
    std::call_once(slot->built, [&] {
        slot->engine =
            std::make_shared<const Engine>(Builder(spec).build(net, cfg));
    });
    return slot->engine;
}

} // namespace jetsim::trt
