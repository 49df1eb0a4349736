/**
 * @file
 * Graph IR tests: shape inference, parameter and MAC formulas,
 * liveness-based peak activation, and validation.
 */

#include "graph/network.hh"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace jetsim::graph {
namespace {

TEST(Network, InputLayerIsImplicit)
{
    Network net("n", Shape{3, 224, 224});
    EXPECT_EQ(net.size(), 1u);
    EXPECT_EQ(net.layer(0).kind, OpKind::Input);
    EXPECT_EQ(net.layer(0).out, (Shape{3, 224, 224}));
}

TEST(Network, ConvShapeInference)
{
    Network net("n", Shape{3, 224, 224});
    const int c = net.addConv("c", net.inputId(), 64, 7, 2, 3);
    EXPECT_EQ(net.layer(c).out, (Shape{64, 112, 112}));
}

TEST(Network, ConvSamePadding)
{
    Network net("n", Shape{16, 56, 56});
    const int c = net.addConv("c", 0, 32, 3, 1, 1);
    EXPECT_EQ(net.layer(c).out, (Shape{32, 56, 56}));
}

TEST(Network, DilatedConvKeepsResolutionWithMatchingPad)
{
    Network net("n", Shape{256, 28, 28});
    const int c = net.addConv("c", 0, 256, 3, 1, 2, 2);
    EXPECT_EQ(net.layer(c).out, (Shape{256, 28, 28}));
}

TEST(Network, ConvParamsFormula)
{
    Network net("n", Shape{3, 224, 224});
    const int c = net.addConv("c", 0, 64, 7, 2, 3);
    // 64 x 3 x 7 x 7 = 9408, no bias.
    EXPECT_EQ(net.layer(c).params(), 9408);
    const int cb = net.addConv("cb", c, 8, 1, 1, 0, 1, 1, true);
    EXPECT_EQ(net.layer(cb).params(), 64 * 8 + 8);
}

TEST(Network, GroupedConvDividesParams)
{
    Network net("n", Shape{32, 10, 10});
    const int c = net.addConv("c", 0, 32, 3, 1, 1, 1, 32);
    // Depthwise: 32 x (32/32) x 3 x 3.
    EXPECT_EQ(net.layer(c).params(), 32 * 9);
}

TEST(Network, ConvMacsFormula)
{
    Network net("n", Shape{3, 224, 224});
    const int c = net.addConv("c", 0, 64, 7, 2, 3);
    // out elems x in_c x k x k = 64*112*112 * 3*49.
    EXPECT_DOUBLE_EQ(net.layer(c).macs(),
                     64.0 * 112 * 112 * 3 * 49);
}

TEST(Network, PoolShapes)
{
    Network net("n", Shape{64, 112, 112});
    const int p = net.addPool("p", 0, OpKind::MaxPool, 3, 2, 1);
    EXPECT_EQ(net.layer(p).out, (Shape{64, 56, 56}));
    const int g = net.addGlobalAvgPool("g", p);
    EXPECT_EQ(net.layer(g).out, (Shape{64, 1, 1}));
}

TEST(Network, LinearFlattensInput)
{
    Network net("n", Shape{2048, 1, 1});
    const int f = net.addLinear("fc", 0, 1000);
    EXPECT_EQ(net.layer(f).out, (Shape{1000, 1, 1}));
    EXPECT_EQ(net.layer(f).params(), 2048 * 1000 + 1000);
}

TEST(Network, ElementwiseShapesPreserved)
{
    Network net("n", Shape{8, 4, 4});
    const int a = net.addConv("a", 0, 8, 1);
    const int r = net.addActivation("r", a, OpKind::Relu);
    const int s = net.addAdd("s", r, 0);
    const int bn = net.addBatchNorm("bn", s);
    for (int id : {r, s, bn})
        EXPECT_EQ(net.layer(id).out, (Shape{8, 4, 4}));
    EXPECT_EQ(net.layer(bn).params(), 4 * 8);
}

TEST(Network, ConcatSumsChannels)
{
    Network net("n", Shape{8, 4, 4});
    const int a = net.addConv("a", 0, 16, 1);
    const int b = net.addConv("b", 0, 24, 1);
    const int c = net.addConcat("c", {a, b});
    EXPECT_EQ(net.layer(c).out, (Shape{40, 4, 4}));
    EXPECT_DOUBLE_EQ(net.layer(c).macs(), 0.0);
}

TEST(Network, SliceSelectsChannelRange)
{
    Network net("n", Shape{32, 4, 4});
    const int s = net.addSlice("s", 0, 8, 24);
    EXPECT_EQ(net.layer(s).out, (Shape{16, 4, 4}));
    EXPECT_EQ(net.layer(s).params(), 0);
}

TEST(Network, UpsampleScalesSpatially)
{
    Network net("n", Shape{21, 28, 28});
    const int u = net.addUpsample("u", 0, 8);
    EXPECT_EQ(net.layer(u).out, (Shape{21, 224, 224}));
}

TEST(Network, TotalsAggregate)
{
    Network net("n", Shape{3, 8, 8});
    net.addConv("a", 0, 4, 3, 1, 1);
    net.addConv("b", 1, 4, 3, 1, 1);
    EXPECT_EQ(net.totalParams(), 3 * 4 * 9 + 4 * 4 * 9);
    EXPECT_GT(net.totalMacs(), 0.0);
    EXPECT_EQ(net.totalActivationElems(), 2 * 4 * 8 * 8);
}

TEST(Network, PeakLivenessBeatsTotal)
{
    // A deep chain's peak is far below the total of all tensors.
    Network net("n", Shape{4, 16, 16});
    int x = net.inputId();
    for (int i = 0; i < 10; ++i)
        x = net.addConv("c" + std::to_string(i), x, 4, 3, 1, 1);
    EXPECT_LT(net.peakActivationElems(),
              net.totalActivationElems());
    // At least one producer + consumer pair must be live together.
    EXPECT_GE(net.peakActivationElems(), 2 * 4 * 16 * 16);
}

TEST(Network, PeakAccountsForSkipConnections)
{
    // Residual input stays live across the body of the block.
    Network net("n", Shape{8, 8, 8});
    int x = net.addConv("c1", 0, 8, 3, 1, 1);
    int y = net.addConv("c2", x, 8, 3, 1, 1);
    y = net.addConv("c3", y, 8, 3, 1, 1);
    net.addAdd("add", y, x); // x live until here
    EXPECT_GE(net.peakActivationElems(), 3 * 8 * 8 * 8);
}

TEST(Network, OutputDefaultsToLastAndIsSettable)
{
    Network net("n", Shape{8, 4, 4});
    const int a = net.addConv("a", 0, 8, 1);
    const int b = net.addConv("b", a, 8, 1);
    EXPECT_EQ(net.outputId(), b);
    net.setOutput(a);
    EXPECT_EQ(net.outputId(), a);
}

TEST(Network, TensorCoreEligibility)
{
    Network net("n", Shape{64, 8, 8});
    const int big = net.addConv("big", 0, 64, 3, 1, 1);
    EXPECT_TRUE(net.layer(big).tensorCoreEligible());
    const int dw = net.addConv("dw", 0, 64, 3, 1, 1, 1, 64);
    EXPECT_FALSE(net.layer(dw).tensorCoreEligible());
    const int act = net.addActivation("r", big, OpKind::Relu);
    EXPECT_FALSE(net.layer(act).tensorCoreEligible());
}

TEST(Network, ToDotRendersEveryNodeAndEdge)
{
    Network net("tiny", Shape{3, 8, 8});
    const int a = net.addConv("convA", 0, 8, 3, 1, 1);
    net.addActivation("reluB", a, OpKind::Relu);
    const auto dot = net.toDot();
    EXPECT_NE(dot.find("digraph \"tiny\""), std::string::npos);
    EXPECT_NE(dot.find("convA"), std::string::npos);
    EXPECT_NE(dot.find("reluB"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
    EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
    EXPECT_EQ(dot.back(), '\n');
}

TEST(Network, ValidatePassesOnWellFormedGraph)
{
    Network net("n", Shape{3, 8, 8});
    net.addConv("a", 0, 4, 3, 1, 1);
    net.validate(); // must not panic
}

// Malformed construction must die deterministically — the same
// assertion fires in every build flavour (NDEBUG included), so a bad
// model generator can never silently produce a nonsense graph.

/** Knobs for every layer parameter of a net that uses each op. */
struct Knobs
{
    std::string name = "n";
    Shape input{3, 32, 32};
    std::string conv_name = "conv";
    int out_channels = 16;
    int kernel = 3;
    int stride = 1;
    int padding = 1;
    int dilation = 1;
    int groups = 1;
    bool conv_bias = false;
    OpKind act = OpKind::Relu;
    bool add_skip_from_conv = true;
    OpKind pool = OpKind::MaxPool;
    int pool_kernel = 2;
    int pool_stride = 2;
    int pool_padding = 0;
    int factor = 2;
    int slice_from = 0;
    int slice_to = 8;
    std::int64_t out_features = 10;
    bool linear_bias = true;
    bool output_before_linear = false;
};

Network
knobbed(const Knobs &k)
{
    Network net(k.name, k.input);
    const int c = net.addConv(k.conv_name, net.inputId(), k.out_channels,
                              k.kernel, k.stride, k.padding, k.dilation,
                              k.groups, k.conv_bias);
    const int a = net.addActivation("act", c, k.act);
    const int s = net.addAdd("add", k.add_skip_from_conv ? c : a, a);
    const int p = net.addPool("pool", s, k.pool, k.pool_kernel,
                              k.pool_stride, k.pool_padding);
    const int u = net.addUpsample("up", p, k.factor);
    const int sl = net.addSlice("slice", u, k.slice_from, k.slice_to);
    const int g = net.addGlobalAvgPool("gap", sl);
    net.addLinear("fc", g, k.out_features, k.linear_bias);
    if (k.output_before_linear)
        net.setOutput(g);
    return net;
}

TEST(Network, DigestIsEqualForEqualContent)
{
    const Network a = knobbed({});
    const Network copy = a;
    EXPECT_EQ(knobbed({}).digest(), a.digest());
    EXPECT_EQ(copy.digest(), a.digest());
}

TEST(Network, DigestDiffersWhenAnyLayerParameterDiffers)
{
    std::vector<Knobs> variants(1);
    auto vary = [&](auto change) {
        Knobs k;
        change(k);
        variants.push_back(k);
    };
    vary([](Knobs &k) { k.name = "m"; });
    vary([](Knobs &k) { k.input.w = 48; });
    vary([](Knobs &k) { k.conv_name = "conv2"; });
    vary([](Knobs &k) { k.out_channels = 24; });
    vary([](Knobs &k) { k.kernel = 5; });
    vary([](Knobs &k) { k.stride = 2; });
    vary([](Knobs &k) { k.padding = 2; });
    vary([](Knobs &k) { k.dilation = 2; });
    vary([](Knobs &k) { k.groups = 3; });
    vary([](Knobs &k) { k.conv_bias = true; });
    vary([](Knobs &k) { k.act = OpKind::Silu; });
    vary([](Knobs &k) { k.add_skip_from_conv = false; });
    vary([](Knobs &k) { k.pool = OpKind::AvgPool; });
    vary([](Knobs &k) { k.pool_kernel = 3; });
    vary([](Knobs &k) { k.pool_stride = 1; });
    vary([](Knobs &k) { k.pool_padding = 1; });
    vary([](Knobs &k) { k.factor = 3; });
    vary([](Knobs &k) { k.slice_from = 1; });
    vary([](Knobs &k) { k.slice_to = 9; });
    vary([](Knobs &k) { k.out_features = 11; });
    vary([](Knobs &k) { k.linear_bias = false; });
    vary([](Knobs &k) { k.output_before_linear = true; });

    std::map<std::uint64_t, std::size_t> seen;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const auto d = knobbed(variants[i]).digest();
        const auto [it, fresh] = seen.emplace(d, i);
        EXPECT_TRUE(fresh) << "variants " << it->second << " and " << i
                           << " share a digest";
    }
}

TEST(NetworkDeath, ZeroInputDimension)
{
    EXPECT_DEATH(Network("n", Shape{3, 0, 224}), "non-positive");
}

TEST(NetworkDeath, NegativeInputDimension)
{
    EXPECT_DEATH(Network("n", Shape{-3, 224, 224}), "non-positive");
}

TEST(NetworkDeath, OutOfRangeLayerReference)
{
    Network net("n", Shape{3, 8, 8});
    EXPECT_DEATH(net.addConv("c", 7, 4, 3, 1, 1), "assertion failed");
}

TEST(NetworkDeath, NegativeLayerReference)
{
    Network net("n", Shape{3, 8, 8});
    EXPECT_DEATH(net.addBatchNorm("bn", -1), "assertion failed");
}

TEST(NetworkDeath, ShapeMismatchedAdd)
{
    Network net("n", Shape{3, 8, 8});
    const int a = net.addConv("a", 0, 4, 3, 1, 1);
    const int b = net.addConv("b", 0, 4, 3, 2, 1);
    EXPECT_DEATH(net.addAdd("sum", a, b), "assertion failed");
}

TEST(NetworkDeath, ZeroConvChannels)
{
    Network net("n", Shape{3, 8, 8});
    EXPECT_DEATH(net.addConv("c", 0, 0, 3, 1, 1), "impossible");
}

TEST(NetworkDeath, NegativeConvStride)
{
    Network net("n", Shape{3, 8, 8});
    EXPECT_DEATH(net.addConv("c", 0, 4, 3, -1, 1), "impossible");
}

TEST(NetworkDeath, ZeroPoolKernel)
{
    Network net("n", Shape{3, 8, 8});
    EXPECT_DEATH(net.addPool("p", 0, OpKind::MaxPool, 0, 2, 0),
                 "impossible");
}

TEST(NetworkDeath, NonPositiveLinearFeatures)
{
    Network net("n", Shape{3, 8, 8});
    EXPECT_DEATH(net.addLinear("fc", 0, 0), "out_features");
}

} // namespace
} // namespace jetsim::graph
