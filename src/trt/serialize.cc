/**
 * @file
 * Engine plan (de)serialisation.
 *
 * A plan is a line-oriented text document: a header of engine-level
 * fields followed by one `k` line per kernel. Kernel names never
 * contain whitespace (layer names use dots and '+'), so fields are
 * whitespace-separated.
 */

#include "trt/engine.hh"

#include <sstream>

#include "sim/logging.hh"

namespace jetsim::trt {

namespace {

constexpr const char *kMagic = "jetsim-engine";
constexpr int kVersion = 1;

} // namespace

std::string
Engine::serialize() const
{
    std::ostringstream os;
    os << kMagic << " v" << kVersion << "\n";
    os << "model " << model_ << "\n";
    os << "precision " << soc::name(requested_) << "\n";
    os << "batch " << batch_ << "\n";
    os << "fallback_ops " << fallback_ops_ << "\n";
    os << "weight_bytes " << weight_bytes_ << "\n";
    os << "activation_bytes " << activation_bytes_ << "\n";
    os << "io_bytes " << io_bytes_ << "\n";
    os << "workspace_bytes " << workspace_bytes_ << "\n";
    os << "kernels " << kernels_.size() << "\n";
    os.precision(17);
    for (const auto &k : kernels_) {
        os << "k " << k.name << ' ' << k.flops << ' ' << k.bytes
           << ' ' << soc::name(k.prec) << ' ' << (k.tc ? 1 : 0) << ' '
           << k.blocks << ' ' << k.efficiency_scale << ' '
           << k.issue_intensity << ' ' << k.tc_stall_factor << "\n";
    }
    os << "end\n";
    return os.str();
}

Engine
Engine::deserialize(const std::string &plan, const std::string &source)
{
    const char *src = source.c_str();
    std::istringstream is(plan);
    std::string magic, version;
    is >> magic >> version;
    if (magic != kMagic || version != "v1")
        sim::fatal("%s: bad header '%s %s'", src, magic.c_str(),
                   version.c_str());

    Engine e;
    std::string key;
    std::size_t kernel_count = 0;
    auto expect = [&](const char *want) {
        if (!(is >> key))
            key = "end of plan";
        if (key != want)
            sim::fatal("%s: expected '%s', got '%s'", src, want,
                       key.c_str());
    };

    std::string prec_name;
    expect("model");
    is >> e.model_;
    expect("precision");
    is >> prec_name;
    e.requested_ = soc::precisionFromName(prec_name);
    expect("batch");
    is >> e.batch_;
    expect("fallback_ops");
    is >> e.fallback_ops_;
    expect("weight_bytes");
    is >> e.weight_bytes_;
    expect("activation_bytes");
    is >> e.activation_bytes_;
    expect("io_bytes");
    is >> e.io_bytes_;
    expect("workspace_bytes");
    is >> e.workspace_bytes_;
    expect("kernels");
    is >> kernel_count;
    if (!is)
        sim::fatal("%s: truncated header", src);

    // The declared count is untrusted: grow the list one kernel at a
    // time, so a forged count fails on the first missing line instead
    // of reserving memory for it.
    for (std::size_t i = 0; i < kernel_count; ++i) {
        if (!(is >> key) || key != "k")
            sim::fatal("%s: kernel %zu of the %zu declared is missing",
                       src, i, kernel_count);
        gpu::KernelDesc k;
        int tc = 0;
        is >> k.name >> k.flops >> k.bytes >> prec_name >> tc >>
            k.blocks >> k.efficiency_scale >> k.issue_intensity >>
            k.tc_stall_factor;
        if (!is)
            sim::fatal("%s: kernel %zu: truncated line", src, i);
        k.prec = soc::precisionFromName(prec_name);
        k.tc = tc != 0;
        // The plan text stores only the display name; intern it so a
        // deserialised engine profiles as cheaply as a built one.
        k.name_id = sim::internName(k.name);
        e.total_flops_ += k.flops;
        e.total_bytes_ += k.bytes;
        e.kernels_.push_back(std::move(k));
    }
    expect("end");
    return e;
}

} // namespace jetsim::trt
