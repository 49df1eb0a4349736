#include "gpu/cost_model.hh"

#include <algorithm>
#include <cmath>

#include "check/check.hh"
#include "check/digest.hh"
#include "sim/logging.hh"

namespace jetsim::gpu {

namespace {

constexpr const char *kComponent = "gpu.cost";

/** Per-launch execution-time jitter (see KernelCostModel::kJitterLo). */
const sim::Lognormal kJitter(1.0, KernelCostModel::kJitterCv);

/** timing()'s descriptor check. */
bool
descriptorOk(const KernelDesc &k)
{
    return std::isfinite(k.flops) && k.flops >= 0.0 &&
           std::isfinite(k.bytes) && k.bytes >= 0.0 &&
           std::isfinite(k.efficiency_scale) &&
           k.efficiency_scale > 0.0 && k.blocks >= 1;
}

/** Folds every GpuSpec field into a digest, in list order. */
struct TagFold
{
    check::Digest &d;

    void operator()(const char *, const std::string &x) { d.add(x); }
    void operator()(const char *, double x) { d.add(x); }
    void operator()(const char *, int x) { d.add(std::int64_t{x}); }
    void operator()(const char *, sim::Tick x) { d.add(x); }
};

} // namespace

KernelCostModel::KernelCostModel(const soc::DeviceSpec &spec)
    : gpu_(spec.gpu), device_(spec.name), tag_(gpuTag(spec.gpu))
{
    for (std::size_t i = 0; i < tc_peak_.size(); ++i)
        tc_peak_[i] = gpu_.peakTcGflops(soc::kAllPrecisions[i]);
}

std::uint64_t
KernelCostModel::gpuTag(const soc::GpuSpec &g)
{
    check::Digest d;
    TagFold fold{d};
    visitFields(fold, g);
    return d.value() == 0 ? 1 : d.value();
}

double
KernelCostModel::baseRate(const KernelDesc &k) const
{
    const auto &g = gpu_;
    if (k.tc && g.hasTensorCores()) {
        switch (k.prec) {
          case soc::Precision::Int8: return g.eff_tc_gflops_int8;
          case soc::Precision::Fp16: return g.eff_tc_gflops_fp16;
          case soc::Precision::Tf32: return g.eff_tc_gflops_tf32;
          case soc::Precision::Fp32: break; // fp32 never on TC
        }
    }
    switch (k.prec) {
      case soc::Precision::Fp16:
      case soc::Precision::Int8:
        // int8 on the CUDA-core path rides the fast-fp16 pipeline
        // (no dedicated int8 units outside tensor cores).
        if (g.eff_cuda_gflops_fp16 > 0)
            return g.eff_cuda_gflops_fp16;
        return g.eff_cuda_gflops_fp32;
      default:
        return g.eff_cuda_gflops_fp32;
    }
}

KernelCostModel::Terms
KernelCostModel::terms(const KernelDesc &k) const
{
    Terms t;
    t.flops = std::isfinite(k.flops) ? std::max(0.0, k.flops) : 0.0;
    t.bytes = std::isfinite(k.bytes) ? std::max(0.0, k.bytes) : 0.0;
    const double eff_scale =
        std::isfinite(k.efficiency_scale) && k.efficiency_scale > 0.0
            ? k.efficiency_scale
            : 1.0;
    const int blocks = std::max(1, k.blocks);

    const auto &g = gpu_;
    const double base = baseRate(k);

    // Shape-dependent sustained rate, never above ~95 % of peak.
    const double peak =
        onTc(k) ? tc_peak_[static_cast<std::size_t>(k.prec)]
                : g.peakCudaGflopsFp32() *
                      (k.prec == soc::Precision::Fp16 &&
                               g.eff_cuda_gflops_fp16 > 0
                           ? 2.0
                           : 1.0);
    t.block.rate = std::min(std::max(base, 1e-9) * eff_scale, 0.95 * peak);

    const double eff_bw =
        std::max(g.mem_bw_gbps * g.mem_efficiency, 1e-9);
    t.block.mem_ns = t.bytes / eff_bw;

    // SM-active: average occupied-SM fraction of the wave schedule.
    const int sms = std::max(1, g.num_sms);
    const int waves = (blocks + sms - 1) / sms;
    t.block.occupancy = static_cast<double>(blocks) /
                        static_cast<double>(waves * sms);

    // The block path reads flops and bytes from the descriptor, so a
    // block also needs them to be their own sanitised values: -0.0
    // passes the check but sanitises to +0.0.
    if (descriptorOk(k) && base > 0.0 && !std::signbit(k.flops) &&
        !std::signbit(k.bytes))
        t.block.gpu = tag_;
    return t;
}

KernelStatics
KernelCostModel::statics(const KernelDesc &k) const
{
    return terms(k).block;
}

void
KernelCostModel::reportInvalid(const KernelDesc &k) const
{
    JETSIM_CHECK(descriptorOk(k), check::Severity::Error,
                 check::Invariant::Plausibility, kComponent,
                 check::kTimeUnknown,
                 "degenerate kernel descriptor '%s' (flops=%g bytes=%g "
                 "eff=%g blocks=%d)",
                 k.name.c_str(), k.flops, k.bytes, k.efficiency_scale,
                 k.blocks);
    JETSIM_CHECK(baseRate(k) > 0.0, check::Severity::Error,
                 check::Invariant::Plausibility, kComponent,
                 check::kTimeUnknown,
                 "device %s has no execution path for kernel '%s' "
                 "(base rate 0)",
                 device_.c_str(), k.name.c_str());
}

JitterStream
KernelCostModel::jitterStream(sim::Rng rng)
{
    return JitterStream(rng, kJitter);
}

KernelTiming
KernelCostModel::timing(const KernelDesc &k, double freq_frac,
                        Draws draws) const
{
    // --- JetSan input validation: a degenerate descriptor or DVFS
    // state must not leak NaN/Inf (or UB) into the timeline.
    JETSIM_CHECK(std::isfinite(freq_frac) && freq_frac > 0.0 &&
                     freq_frac <= 1.0,
                 check::Severity::Error,
                 check::Invariant::Plausibility, kComponent,
                 check::kTimeUnknown,
                 "frequency fraction %g outside (0, 1] for kernel "
                 "'%s'",
                 freq_frac, k.name.c_str());
    if (!std::isfinite(freq_frac) || freq_frac <= 0.0)
        freq_frac = 1e-3;
    freq_frac = std::min(freq_frac, 1.0);

    if (k.statics.gpu == tag_)
        return perCall(k, k.statics, k.flops, k.bytes, freq_frac, draws);
    const Terms t = terms(k);
    if (t.block.gpu == 0)
        reportInvalid(k);
    return perCall(k, t.block, t.flops, t.bytes, freq_frac, draws);
}

double
KernelCostModel::body(const KernelStatics &s, double flops,
                      double freq_frac) const
{
    const double compute_ns = flops / std::max(s.rate * freq_frac, 1e-9);
    // Small kernels hit the device's latency floor (launch tail,
    // DRAM latency, layer dependencies) — the overhead larger batch
    // sizes amortise.
    return std::max(
        std::max(compute_ns, s.mem_ns),
        static_cast<double>(gpu_.min_kernel_latency) / freq_frac);
}

KernelTiming
KernelCostModel::perCall(const KernelDesc &k, const KernelStatics &s,
                         double flops, double bytes, double freq_frac,
                         Draws draws) const
{
    const auto &g = gpu_;
    const double compute_ns = flops / std::max(s.rate * freq_frac, 1e-9);
    const double body_ns = body(s, flops, freq_frac);
    const auto to_tick = [body_ns](double j) {
        return jitteredBody(body_ns, j);
    };

    // The jitter's two uniforms, then the occupancy's third.
    sim::Tick body_tick;
    double occupancy = s.occupancy;
    if (draws.stream_) {
        body_tick = draws.stream_->lognormalTick(kJitter, to_tick);
        occupancy *= sim::Rng::scaled(0.96, 1.0, draws.stream_->third());
    } else if (draws.rng_) {
        body_tick = draws.rng_->lognormalTick(kJitter, to_tick);
        occupancy *= draws.rng_->uniform(0.96, 1.0);
    } else {
        body_tick = jitteredBody(body_ns, 1.0);
    }

    KernelTiming t;
    t.duration = kKernelOverhead + body_tick;

    const double dur_ns = static_cast<double>(t.duration);
    t.compute_frac = std::min(1.0, compute_ns / dur_ns);
    t.bw_util = std::min(1.0, (bytes / dur_ns) / g.mem_bw_gbps);
    t.sm_active = std::clamp(occupancy, 0.05, 1.0);

    // Tensor-core utilisation: TC-busy over elapsed. The efficiency
    // fold means memory-bound kernels show low TC utilisation even at
    // high throughput (the paper's int8 inversion).
    if (onTc(k)) {
        const double tc_busy_ns =
            k.tc_stall_factor * flops /
            std::max(tc_peak_[static_cast<std::size_t>(k.prec)] *
                         freq_frac,
                     1e-9);
        t.tc_util = std::min(0.99, tc_busy_ns / dur_ns);
    }

    // Issue-slot utilisation: dense scalar issue while compute-bound,
    // sparse while waiting on memory.
    t.issue_slot = std::clamp(
        k.issue_intensity * t.compute_frac * t.sm_active +
            0.08 * (1.0 - t.compute_frac),
        0.01, 0.85);

    // --- JetSan output validation: nothing non-finite escapes.
    JETSIM_CHECK(t.duration > 0 && std::isfinite(t.sm_active) &&
                     std::isfinite(t.issue_slot) &&
                     std::isfinite(t.tc_util) &&
                     std::isfinite(t.bw_util) &&
                     std::isfinite(t.compute_frac),
                 check::Severity::Error,
                 check::Invariant::Plausibility, kComponent,
                 check::kTimeUnknown,
                 "non-finite timing escaped the cost model for "
                 "kernel '%s'",
                 k.name.c_str());

    return t;
}

} // namespace jetsim::gpu
