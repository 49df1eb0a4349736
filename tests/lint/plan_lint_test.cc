/**
 * @file
 * Plan/deployment lint tests: a tampered precision-mismatch plan, the
 * paper's over-capacity FCN_ResNet50 Nano deployment, and the clean
 * path for every zoo model x precision x board cell.
 */

#include "lint/plan_lint.hh"

#include <gtest/gtest.h>

#include "models/zoo.hh"
#include "trt/builder.hh"

namespace jetsim::lint {
namespace {

trt::Engine
buildEngine(const std::string &model, const std::string &device,
            soc::Precision prec, int batch = 1)
{
    const auto dev = soc::deviceByName(device);
    trt::Builder builder(dev);
    trt::BuilderConfig cfg;
    cfg.precision = prec;
    cfg.batch = batch;
    return builder.build(models::modelByName(model), cfg);
}

TEST(PlanLint, CleanEngineHasNoErrors)
{
    const auto e =
        buildEngine("resnet50", "orin-nano", soc::Precision::Fp16);
    Report rep;
    lintEngine(e, soc::deviceByName("orin-nano"), rep);
    EXPECT_TRUE(rep.clean()) << rep.text();
}

TEST(PlanLint, PrecisionMismatchPlanIsFlagged)
{
    // Tamper with a serialized plan the way a corrupted or
    // hand-edited plan file would: an fp16 engine acquires a tf32
    // kernel that neither the request nor the fallback path allows.
    const auto e =
        buildEngine("resnet50", "orin-nano", soc::Precision::Fp16);
    auto plan = e.serialize();
    const auto k = plan.find("\"kernels\":[");
    ASSERT_NE(k, std::string::npos);
    const std::string fp16 = "\"precision\":\"fp16\"";
    const auto prec = plan.find(fp16, k);
    ASSERT_NE(prec, std::string::npos);
    plan.replace(prec, fp16.size(), "\"precision\":\"tf32\"");

    std::string err;
    const auto tampered = trt::Engine::deserialize(plan, err);
    ASSERT_TRUE(tampered) << err;
    Report rep;
    lintEngine(*tampered, rep);
    EXPECT_FALSE(rep.byRule(Rule::PlanPrecisionMismatch).empty());
    EXPECT_FALSE(rep.clean());
}

TEST(PlanLint, FallbackBookkeepingMismatchIsAWarning)
{
    // Int8 on the Nano demotes unsupported ops; zeroing the recorded
    // fallback count must trip the P006 cross-check.
    const auto e =
        buildEngine("resnet50", "nano", soc::Precision::Int8);
    ASSERT_GT(e.fallbackOps(), 0);
    auto plan = e.serialize();
    const std::string key = "\"fallback_ops\":";
    const auto pos = plan.find(key);
    ASSERT_NE(pos, std::string::npos);
    const auto end = plan.find(',', pos);
    plan.replace(pos, end - pos, key + "0");

    std::string err;
    const auto tampered = trt::Engine::deserialize(plan, err);
    ASSERT_TRUE(tampered) << err;
    EXPECT_EQ(tampered->fallbackOps(), 0);
    Report rep;
    lintEngine(*tampered, rep);
    EXPECT_FALSE(rep.byRule(Rule::PlanFallbackMismatch).empty());
}

TEST(PlanLint, OverCapacityFcnDeploymentOnNanoIsAnError)
{
    // The paper's motivating failure: four FCN_ResNet50 processes
    // exceed the Nano's unified memory and reboot the board. jetlint
    // must predict it from the spec sheet alone.
    const auto spec = soc::deviceByName("nano");
    const auto e =
        buildEngine("fcn_resnet50", "nano", soc::Precision::Fp16);
    Report rep;
    lintDeployment(e, 4, spec, rep);
    const auto over = rep.byRule(Rule::DeployOverCapacity);
    ASSERT_EQ(over.size(), 1u);
    EXPECT_EQ(over[0].severity, check::Severity::Error);
    EXPECT_NE(over[0].message.find("MiB"), std::string::npos);

    // A single process fits.
    Report single;
    lintDeployment(e, 1, spec, single);
    EXPECT_TRUE(single.byRule(Rule::DeployOverCapacity).empty());
}

TEST(PlanLint, HeterogeneousDeploymentSumsAllGroups)
{
    const auto spec = soc::deviceByName("nano");
    const auto fcn =
        buildEngine("fcn_resnet50", "nano", soc::Precision::Fp16);
    const auto mob =
        buildEngine("mobilenet_v2", "nano", soc::Precision::Fp16);
    // Each group alone fits at these counts; the combined footprint
    // does not.
    Report alone_fcn, alone_mob, rep;
    lintDeployment(fcn, 3, spec, alone_fcn);
    lintDeployment(mob, 2, spec, alone_mob);
    EXPECT_TRUE(alone_fcn.byRule(Rule::DeployOverCapacity).empty());
    EXPECT_TRUE(alone_mob.byRule(Rule::DeployOverCapacity).empty());
    lintDeployment({{&fcn, 3}, {&mob, 2}}, spec, rep);
    EXPECT_FALSE(rep.byRule(Rule::DeployOverCapacity).empty());
}

TEST(PlanLint, EveryZooCellLintsErrorFree)
{
    for (const auto &device : soc::deviceNames()) {
        const auto spec = soc::deviceByName(device);
        for (const auto &model : models::allModelNames()) {
            for (const auto prec : soc::kAllPrecisions) {
                const auto e = buildEngine(model, device, prec);
                Report rep;
                lintEngine(e, spec, rep);
                EXPECT_TRUE(rep.clean())
                    << model << "@" << soc::name(prec) << " on "
                    << device << ":\n"
                    << rep.text();
            }
        }
    }
}

} // namespace
} // namespace jetsim::lint
