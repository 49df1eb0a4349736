/**
 * @file
 * Engine plan (de)serialisation: the Engine field list through the
 * JSON codec.
 */

#include "trt/engine.hh"

#include <string_view>

#include "sim/json.hh"

namespace jetsim::trt {

namespace {

constexpr std::string_view kTag = "jetsim_plan";
constexpr int kVersion = 2;

} // namespace

std::string
Engine::serialize() const
{
    return sim::toJson(*this, kTag, kVersion);
}

std::optional<Engine>
Engine::deserialize(std::string_view plan, std::string &err)
{
    Engine e;
    if (!sim::fromJson(plan, kTag, kVersion, e, err))
        return std::nullopt;
    for (const auto &k : e.kernels_) {
        e.total_flops_ += k.flops;
        e.total_bytes_ += k.bytes;
    }
    return e;
}

} // namespace jetsim::trt
