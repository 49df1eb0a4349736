/**
 * @file
 * Model-zoo fidelity tests: parameter counts and compute pinned
 * against the published architectures.
 */

#include "models/zoo.hh"

#include <gtest/gtest.h>

#include <set>

namespace jetsim::models {
namespace {

TEST(Zoo, ResNet50ParamsMatchTorchvision)
{
    const auto net = resnet50();
    // torchvision resnet50: 25.557M parameters.
    EXPECT_NEAR(static_cast<double>(net.totalParams()), 25.557e6,
                0.25e6);
}

TEST(Zoo, ResNet50MacsMatchPublished)
{
    const auto net = resnet50();
    // ~4.1 GMACs at 224x224.
    EXPECT_NEAR(net.totalMacs(), 4.1e9, 0.2e9);
}

TEST(Zoo, ResNet50OutputIsImagenetLogits)
{
    const auto net = resnet50();
    EXPECT_EQ(net.layer(net.outputId()).out,
              (graph::Shape{1000, 1, 1}));
}

TEST(Zoo, ResNet50InputIs224)
{
    const auto net = resnet50();
    EXPECT_EQ(net.layer(net.inputId()).out,
              (graph::Shape{3, 224, 224}));
}

TEST(Zoo, FcnResnet50ParamsMatchTorchvision)
{
    const auto net = fcnResnet50();
    // torchvision fcn_resnet50 (with aux head): 35.3M parameters.
    EXPECT_NEAR(static_cast<double>(net.totalParams()), 35.3e6,
                0.4e6);
}

TEST(Zoo, FcnDilationKeepsOutputStride8)
{
    const auto net = fcnResnet50();
    // The segmentation logits come from 28x28 (output stride 8 at
    // 224 input), upsampled back to 224.
    EXPECT_EQ(net.layer(net.outputId()).out,
              (graph::Shape{21, 224, 224}));
}

TEST(Zoo, FcnComputeFarExceedsClassifier)
{
    // Dilated stages make FCN several times heavier than ResNet50.
    EXPECT_GT(fcnResnet50().totalMacs(), 4.0 * resnet50().totalMacs());
}

TEST(Zoo, Yolov8nParamsMatchUltralytics)
{
    const auto net = yolov8n();
    // YOLOv8n: 3.157M parameters.
    EXPECT_NEAR(static_cast<double>(net.totalParams()), 3.157e6,
                0.1e6);
}

TEST(Zoo, Yolov8nMacsMatchUltralytics)
{
    const auto net = yolov8n();
    // 8.7 GFLOPs = ~4.35 GMACs at 640x640.
    EXPECT_NEAR(net.totalMacs(), 4.35e9, 0.3e9);
}

TEST(Zoo, Yolov8nInputIs640)
{
    const auto net = yolov8n();
    EXPECT_EQ(net.layer(net.inputId()).out,
              (graph::Shape{3, 640, 640}));
}

TEST(Zoo, ModelsValidate)
{
    for (const auto &name : paperModelNames())
        modelByName(name).validate();
}

TEST(Zoo, PaperModelListMatchesStudy)
{
    const auto &names = paperModelNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "resnet50");
    EXPECT_EQ(names[1], "fcn_resnet50");
    EXPECT_EQ(names[2], "yolov8n");
}

TEST(Zoo, ActivationFootprintOrdering)
{
    // YOLO at 640^2 moves more activations than ResNet50 at 224^2.
    EXPECT_GT(yolov8n().totalActivationElems(),
              resnet50().totalActivationElems());
}

TEST(Zoo, BuildersAreDeterministic)
{
    const auto a = resnet50();
    const auto b = resnet50();
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.totalParams(), b.totalParams());
    EXPECT_DOUBLE_EQ(a.totalMacs(), b.totalMacs());
    for (const auto builder :
         {resnet50, fcnResnet50, yolov8n, resnet18, mobilenetV2}) {
        const auto first = builder();
        const auto copy = first;
        EXPECT_EQ(builder().digest(), first.digest()) << first.name();
        EXPECT_EQ(copy.digest(), first.digest()) << first.name();
    }
}

TEST(Zoo, ModelByNameBuildsEachModelOnce)
{
    std::set<std::uint64_t> digests;
    for (const auto &name : allModelNames()) {
        const graph::Network &net = modelByName(name);
        EXPECT_EQ(&modelByName(name), &net) << name;
        EXPECT_EQ(net.name(), name);
        digests.insert(net.digest());
    }
    EXPECT_EQ(digests.size(), allModelNames().size());
    EXPECT_EQ(modelByName("yolov8n").digest(), yolov8n().digest());
}

TEST(Zoo, Resnet18ParamsMatchTorchvision)
{
    // torchvision resnet18: 11.69M parameters, ~1.8 GMACs.
    const auto net = resnet18();
    EXPECT_NEAR(static_cast<double>(net.totalParams()), 11.69e6,
                0.1e6);
    EXPECT_NEAR(net.totalMacs(), 1.8e9, 0.1e9);
    EXPECT_EQ(net.layer(net.outputId()).out,
              (graph::Shape{1000, 1, 1}));
}

TEST(Zoo, MobilenetV2ParamsMatchTorchvision)
{
    // torchvision mobilenet_v2: 3.50M parameters, ~0.3 GMACs.
    const auto net = mobilenetV2();
    EXPECT_NEAR(static_cast<double>(net.totalParams()), 3.50e6,
                0.1e6);
    EXPECT_NEAR(net.totalMacs(), 0.31e9, 0.05e9);
}

TEST(Zoo, MobilenetV2UsesDepthwiseConvs)
{
    const auto net = mobilenetV2();
    int depthwise = 0;
    for (const auto &l : net.layers())
        if (l.kind == graph::OpKind::Conv && l.groups > 1) {
            ++depthwise;
            EXPECT_EQ(l.groups, l.in.c);
            EXPECT_FALSE(l.tensorCoreEligible());
        }
    EXPECT_EQ(depthwise, 17); // one per inverted residual
}

TEST(Zoo, AllModelNamesBuildAndValidate)
{
    ASSERT_EQ(allModelNames().size(), 5u);
    for (const auto &name : allModelNames()) {
        const auto net = modelByName(name);
        net.validate();
        EXPECT_GT(net.totalParams(), 0);
        EXPECT_GT(net.totalMacs(), 0.0);
    }
}

TEST(Zoo, ComputeOrderingAcrossZoo)
{
    // mobilenet_v2 < resnet18 < resnet50 < fcn_resnet50 in MACs.
    EXPECT_LT(mobilenetV2().totalMacs(), resnet18().totalMacs());
    EXPECT_LT(resnet18().totalMacs(), resnet50().totalMacs());
    EXPECT_LT(resnet50().totalMacs(), fcnResnet50().totalMacs());
}

TEST(Zoo, DilationOnlyInFcnBackbone)
{
    auto dilated_layers = [](const graph::Network &net) {
        int n = 0;
        for (const auto &l : net.layers())
            if (l.kind == graph::OpKind::Conv && l.dilation > 1)
                ++n;
        return n;
    };
    EXPECT_EQ(dilated_layers(resnet50()), 0);
    EXPECT_EQ(dilated_layers(yolov8n()), 0);
    EXPECT_GT(dilated_layers(fcnResnet50()), 5);
}

} // namespace
} // namespace jetsim::models
