/**
 * @file
 * Fuzz-style property tests: random CNN-shaped graphs pushed through
 * the fusion pass, the builder and the cost model must preserve
 * their invariants for every seed.
 */

#include <gtest/gtest.h>

#include "gpu/cost_model.hh"
#include "sim/rng.hh"
#include "trt/builder.hh"
#include "trt/fusion.hh"

namespace jetsim::trt {
namespace {

using graph::Network;
using graph::OpKind;

/** Generate a random but valid CNN-ish DAG. */
Network
randomNetwork(std::uint64_t seed)
{
    sim::Rng rng(seed);
    const int hw0 = 1 << rng.uniformInt(4, 7); // 16..128
    Network net("random", graph::Shape{3, hw0, hw0});

    std::vector<int> frontier = {net.inputId()};
    const int layers = static_cast<int>(rng.uniformInt(5, 40));
    for (int i = 0; i < layers; ++i) {
        const int src = frontier[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(frontier.size()) - 1))];
        const auto in = net.layer(src).out;
        const std::string name = "l" + std::to_string(i);
        int id = -1;
        switch (rng.uniformInt(0, 6)) {
          case 0:
          case 1: { // conv (possibly strided)
            const int out_c =
                static_cast<int>(rng.uniformInt(8, 64));
            const int stride = in.h >= 8 && rng.uniform() < 0.3 ? 2 : 1;
            id = net.addConv(name, src, out_c, 3, stride, 1);
            break;
          }
          case 2: { // 1x1 conv
            id = net.addConv(name, src,
                             static_cast<int>(rng.uniformInt(8, 128)),
                             1, 1, 0);
            break;
          }
          case 3:
            id = net.addBatchNorm(name, src);
            break;
          case 4:
            id = net.addActivation(name, src,
                                   rng.uniform() < 0.5 ? OpKind::Relu
                                                       : OpKind::Silu);
            break;
          case 5: { // residual add with a same-shape partner
            int partner = -1;
            for (int j = src - 1; j >= 0; --j)
                if (net.layer(j).out == in) {
                    partner = j;
                    break;
                }
            if (partner >= 0)
                id = net.addAdd(name, src, partner);
            else
                id = net.addActivation(name, src, OpKind::Relu);
            break;
          }
          default:
            if (in.h >= 4)
                id = net.addPool(name, src, OpKind::MaxPool, 2, 2);
            else
                id = net.addActivation(name, src, OpKind::Relu);
            break;
        }
        frontier.push_back(id);
        if (frontier.size() > 4)
            frontier.erase(frontier.begin());
    }
    net.validate();
    return net;
}

class RandomGraphs : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomGraphs, FusionCoversAndConserves)
{
    const auto net = randomNetwork(GetParam());
    const auto ops = fuseNetwork(net);

    std::size_t covered = 0;
    double macs = 0;
    std::int64_t params = 0;
    for (const auto &o : ops) {
        covered += o.layer_ids.size();
        macs += o.macs;
        params += o.weight_params;
        EXPECT_GT(o.out_elems, 0);
    }
    std::size_t expected = 0;
    for (const auto &l : net.layers())
        if (l.kind != OpKind::Input && l.kind != OpKind::Concat &&
            l.kind != OpKind::Slice)
            ++expected;
    EXPECT_EQ(covered, expected);
    EXPECT_NEAR(macs, net.totalMacs(),
                1e-6 * std::max(1.0, net.totalMacs()));
    EXPECT_EQ(params, net.totalParams());
}

TEST_P(RandomGraphs, BuilderProducesRunnableKernels)
{
    const auto net = randomNetwork(GetParam());
    for (const auto &dev : {soc::orinNano(), soc::jetsonNano()}) {
        Builder b(dev);
        gpu::KernelCostModel cost(dev);
        for (auto p : soc::kAllPrecisions) {
            BuilderConfig cfg;
            cfg.precision = p;
            cfg.batch =
                static_cast<int>(1 + GetParam() % 8); // vary batch
            const auto e = b.build(net, cfg);
            EXPECT_EQ(e.kernels().size(), fuseNetwork(net).size());
            EXPECT_GT(e.deviceBytes(), 0u);
            for (const auto &k : e.kernels()) {
                EXPECT_GE(k.flops, 0.0);
                EXPECT_GT(k.bytes, 0.0);
                EXPECT_GE(k.blocks, 1);
                // The cost model must accept every built kernel.
                const auto t = cost.timing(k, 1.0);
                EXPECT_GT(t.duration, 0);
                EXPECT_LE(t.sm_active, 1.0);
                EXPECT_LE(t.tc_util, 0.99);
                if (!dev.gpu.hasTensorCores()) {
                    EXPECT_FALSE(k.tc);
                }
            }
        }
    }
}

TEST_P(RandomGraphs, SerializationRoundTrips)
{
    const auto net = randomNetwork(GetParam());
    Builder b(soc::orinNano());
    BuilderConfig cfg;
    cfg.precision = soc::Precision::Fp16;
    const auto e = b.build(net, cfg);
    std::string err;
    const auto d = Engine::deserialize(e.serialize(), err);
    ASSERT_TRUE(d) << err;
    EXPECT_EQ(d->kernels().size(), e.kernels().size());
    EXPECT_DOUBLE_EQ(d->totalFlops(), e.totalFlops());
    EXPECT_EQ(d->serialize(), e.serialize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphs,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace jetsim::trt
