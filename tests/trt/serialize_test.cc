/**
 * @file
 * Engine plan serialisation: round trips, and the errors a malformed
 * plan decodes to.
 */

#include "trt/engine.hh"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "models/zoo.hh"
#include "trt/builder.hh"

namespace jetsim::trt {
namespace {

Engine
build(const std::string &model, soc::Precision p, int batch = 1)
{
    Builder b(soc::orinNano());
    BuilderConfig cfg;
    cfg.precision = p;
    cfg.batch = batch;
    return b.build(models::modelByName(model), cfg);
}

/** deserialize() of a plan that must decode. */
std::optional<Engine>
decode(const std::string &plan)
{
    std::string err;
    auto d = Engine::deserialize(plan, err);
    EXPECT_TRUE(d) << err;
    EXPECT_EQ(err, "");
    return d;
}

/** The error deserialize() reports for a plan that must not decode. */
std::string
decodeError(const std::string &plan)
{
    std::string err;
    EXPECT_FALSE(Engine::deserialize(plan, err)) << plan;
    return err;
}

TEST(Serialize, RoundTripPreservesMetadata)
{
    const auto e = build("resnet50", soc::Precision::Int8, 4);
    const auto plan = e.serialize();
    EXPECT_EQ(plan.rfind("{\"jetsim_plan\":2,\"model\":\"resnet50\",", 0),
              0u)
        << plan.substr(0, 80);
    const auto d = decode(plan);
    ASSERT_TRUE(d);

    EXPECT_EQ(d->model(), e.model());
    EXPECT_EQ(d->requestedPrecision(), e.requestedPrecision());
    EXPECT_EQ(d->batch(), e.batch());
    EXPECT_EQ(d->fallbackOps(), e.fallbackOps());
    EXPECT_EQ(d->weightBytes(), e.weightBytes());
    EXPECT_EQ(d->activationBytes(), e.activationBytes());
    EXPECT_EQ(d->ioBytes(), e.ioBytes());
    EXPECT_EQ(d->workspaceBytes(), e.workspaceBytes());
    EXPECT_EQ(d->deviceBytes(), e.deviceBytes());
}

TEST(Serialize, RoundTripPreservesEveryKernel)
{
    for (const auto &model : models::paperModelNames()) {
        const auto e = build(model, soc::Precision::Fp16);
        const auto d = decode(e.serialize());
        ASSERT_TRUE(d) << model;
        ASSERT_EQ(d->kernels().size(), e.kernels().size()) << model;
        for (std::size_t i = 0; i < e.kernels().size(); ++i) {
            const auto &a = e.kernels()[i];
            const auto &b = d->kernels()[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_DOUBLE_EQ(a.flops, b.flops);
            EXPECT_DOUBLE_EQ(a.bytes, b.bytes);
            EXPECT_EQ(a.prec, b.prec);
            EXPECT_EQ(a.tc, b.tc);
            EXPECT_EQ(a.blocks, b.blocks);
            EXPECT_DOUBLE_EQ(a.efficiency_scale, b.efficiency_scale);
            EXPECT_DOUBLE_EQ(a.issue_intensity, b.issue_intensity);
            EXPECT_DOUBLE_EQ(a.tc_stall_factor, b.tc_stall_factor);
        }
    }
}

TEST(Serialize, TotalsRecomputedOnLoad)
{
    const auto e = build("yolov8n", soc::Precision::Int8, 2);
    const auto d = decode(e.serialize());
    ASSERT_TRUE(d);
    EXPECT_DOUBLE_EQ(d->totalFlops(), e.totalFlops());
    EXPECT_DOUBLE_EQ(d->totalBytes(), e.totalBytes());
}

TEST(Serialize, SerializeIsDeterministic)
{
    const auto a = build("resnet50", soc::Precision::Tf32).serialize();
    const auto b = build("resnet50", soc::Precision::Tf32).serialize();
    EXPECT_EQ(a, b);
}

TEST(Serialize, DoubleRoundTripIsStable)
{
    const auto e = build("mobilenet_v2", soc::Precision::Int8);
    const auto once = e.serialize();
    const auto d = decode(once);
    ASSERT_TRUE(d);
    EXPECT_EQ(once, d->serialize());
}

TEST(Serialize, RejectsBadMagic)
{
    const std::string not_v2 = "document: not a \"jetsim_plan\": 2 document";
    EXPECT_EQ(decodeError("not-a-plan v1\n"), not_v2);
    EXPECT_EQ(decodeError(""), not_v2);
    EXPECT_EQ(decodeError("{\"jetsim_plan\":1}"), not_v2);
    // A line-format (v1) plan is rejected, not migrated.
    EXPECT_EQ(decodeError("jetsim-engine v1\nmodel resnet50\n"), not_v2);
}

TEST(Serialize, RejectsTruncatedPlan)
{
    const auto plan = build("resnet50", soc::Precision::Fp16).serialize();
    // Half the plan ends inside the kernel list; the error names the
    // kernel it stopped in.
    EXPECT_EQ(decodeError(plan.substr(0, plan.size() / 2)).rfind(
                  "kernels[", 0),
              0u);
    for (std::size_t n = 0; n + 1 < plan.size(); n += 61)
        EXPECT_NE(decodeError(plan.substr(0, n)), "") << n;
}

TEST(Serialize, RejectsMistypedAndUnknownFields)
{
    const auto plan = build("resnet18", soc::Precision::Fp16).serialize();
    // The error for @p plan with its first @p from replaced by @p to.
    const auto edit = [&](const std::string &from, const std::string &to) {
        auto p = plan;
        const auto at = p.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos
                   ? std::string()
                   : decodeError(p.replace(at, from.size(), to));
    };
    const auto startsWith = [](const std::string &s, const char *prefix) {
        return s.rfind(prefix, 0) == 0;
    };
    EXPECT_EQ(edit("\"batch\":1,", "\"batch\":1.5,"),
              "batch: '1.5' is not an integer in [-2147483648, "
              "2147483647]");
    const auto negative = edit("\"weight_bytes\":", "\"weight_bytes\":-");
    EXPECT_TRUE(startsWith(negative, "weight_bytes: '-")) << negative;
    EXPECT_NE(negative.find("is not an integer in [0, "
                            "18446744073709551615]"),
              std::string::npos)
        << negative;
    EXPECT_EQ(edit("\"precision\":\"fp16\"", "\"precision\":\"fp8\""),
              "precision: 'fp8' is not one of int8 fp16 tf32 fp32");
    EXPECT_EQ(edit("\"tc\":", "\"tensor_cores\":"),
              "kernels[0].tensor_cores: unexpected key");
    const auto blocks = edit("\"blocks\":", "\"blocks\":99999999999999");
    EXPECT_TRUE(startsWith(blocks, "kernels[0].blocks: '99999999999999"))
        << blocks;
    EXPECT_EQ(edit("\"kernels\":[", "\"kernels\":{"),
              "kernels: not an array");
}

} // namespace
} // namespace jetsim::trt
