/**
 * @file
 * Engine-cache tests: trt::sharedEngine returns exactly what
 * Builder::build returns, one engine per distinct builder input (and
 * a new one when any input changes), one pointer per key under
 * concurrent lookups, and processes deployed from one shared engine
 * still each pin their own device memory.
 */

#include "trt/builder.hh"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gpu/engine.hh"
#include "models/zoo.hh"
#include "sim/event_queue.hh"
#include "workload/inference_process.hh"

namespace jetsim::trt {
namespace {

BuilderConfig
config(soc::Precision p, int batch)
{
    BuilderConfig cfg;
    cfg.precision = p;
    cfg.batch = batch;
    return cfg;
}

/** Every (model, device, precision, batch) the tests sweep. */
using Key = std::tuple<std::string, std::string, soc::Precision, int>;

std::vector<Key>
allKeys()
{
    std::vector<Key> keys;
    for (const auto &model : models::allModelNames())
        for (const auto &dev : {"orin-nano", "nano"})
            for (const auto p : soc::kAllPrecisions)
                for (const int batch : {1, 8})
                    keys.emplace_back(model, dev, p, batch);
    return keys;
}

std::shared_ptr<const Engine>
lookup(const Key &k)
{
    const auto &[model, dev, p, batch] = k;
    return sharedEngine(soc::deviceByName(dev), models::modelByName(model),
                        config(p, batch));
}

/** A small conv net whose one layer parameter the tests vary. */
graph::Network
tinyNet(int stride)
{
    graph::Network net("tiny", graph::Shape{3, 32, 32});
    const int c = net.addConv("conv", net.inputId(), 16, 3, stride, 1);
    net.addActivation("relu", c, graph::OpKind::Relu);
    return net;
}

TEST(EngineCache, MatchesTheBuilderOnEveryZooInput)
{
    for (const auto &k : allKeys()) {
        const auto &[model, dev, p, batch] = k;
        const auto spec = soc::deviceByName(dev);
        const auto &net = models::modelByName(model);
        const auto shared = lookup(k);
        ASSERT_NE(shared, nullptr);
        EXPECT_EQ(shared->serialize(),
                  Builder(spec).build(net, config(p, batch)).serialize())
            << model << " " << dev << " " << soc::name(p) << " b"
            << batch;
        EXPECT_EQ(lookup(k), shared) << "same inputs, another engine";
    }
}

TEST(EngineCache, EqualInputsShareOneEngine)
{
    const auto &net = models::modelByName("resnet50");
    const graph::Network copy = net;
    const graph::Network rebuilt = models::resnet50();
    const auto cfg = config(soc::Precision::Fp16, 1);
    const auto a = sharedEngine(soc::orinNano(), net, cfg);
    EXPECT_EQ(sharedEngine(soc::orinNano(), copy, cfg), a);
    EXPECT_EQ(sharedEngine(soc::orinNano(), rebuilt, cfg), a);
    // Fields build() never reads are not part of the key.
    auto renamed = soc::orinNano();
    renamed.name = "orin-nano-copy";
    EXPECT_EQ(sharedEngine(renamed, net, cfg), a);
}

TEST(EngineCache, EachBuilderInputAloneSelectsAnotherEngine)
{
    const auto &net = models::modelByName("resnet50");
    const auto orin = soc::orinNano();
    const auto cfg = config(soc::Precision::Fp16, 1);
    const auto base = sharedEngine(orin, net, cfg);

    EXPECT_NE(sharedEngine(orin, net, config(soc::Precision::Int8, 1)),
              base);
    EXPECT_NE(sharedEngine(orin, net, config(soc::Precision::Fp16, 2)),
              base);

    auto partial = orin;
    partial.coverage_fp16 = 0.5;
    const auto covered = sharedEngine(partial, net, cfg);
    EXPECT_NE(covered, base);
    EXPECT_EQ(covered->serialize(),
              Builder(partial).build(net, cfg).serialize());

    auto no_tc = orin;
    no_tc.gpu.tensor_cores_per_sm = 0;
    const auto cuda_only = sharedEngine(no_tc, net, cfg);
    EXPECT_NE(cuda_only, base);
    EXPECT_EQ(cuda_only->serialize(),
              Builder(no_tc).build(net, cfg).serialize());

    const auto stride1 = sharedEngine(orin, tinyNet(1), cfg);
    const auto stride2 = sharedEngine(orin, tinyNet(2), cfg);
    EXPECT_NE(stride1, stride2);
    EXPECT_EQ(stride2->serialize(),
              Builder(orin).build(tinyNet(2), cfg).serialize());

    graph::Network early_exit = net;
    early_exit.setOutput(static_cast<int>(net.size()) - 2);
    const auto cut = sharedEngine(orin, early_exit, cfg);
    EXPECT_NE(cut, base);
    EXPECT_EQ(cut->serialize(),
              Builder(orin).build(early_exit, cfg).serialize());
}

TEST(EngineCache, ConcurrentLookupsAgreeOnOnePointerPerKey)
{
    // Every thread walks every key, each from its own starting point,
    // so first builds race with lookups of the same key.
    constexpr int kThreads = 8;
    const auto keys = allKeys();
    std::vector<std::vector<const Engine *>> seen(
        kThreads, std::vector<const Engine *>(keys.size()));
    std::vector<std::vector<const graph::Network *>> nets(
        kThreads, std::vector<const graph::Network *>(keys.size()));
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const std::size_t k =
                    (i + static_cast<std::size_t>(t) * 7) % keys.size();
                nets[t][k] = &models::modelByName(std::get<0>(keys[k]));
                seen[t][k] = lookup(keys[k]).get();
            }
        });
    for (auto &th : pool)
        th.join();

    std::map<const Engine *, std::size_t> owner;
    for (std::size_t k = 0; k < keys.size(); ++k) {
        for (int t = 1; t < kThreads; ++t) {
            EXPECT_EQ(seen[t][k], seen[0][k]) << "key " << k;
            EXPECT_EQ(nets[t][k], nets[0][k]) << "key " << k;
        }
        EXPECT_TRUE(owner.emplace(seen[0][k], k).second)
            << "keys " << owner[seen[0][k]] << " and " << k
            << " share an engine";
    }
}

struct Rig
{
    explicit Rig(soc::DeviceSpec spec) : board(std::move(spec), eq) {}

    sim::EventQueue eq;
    soc::Board board;
    cpu::OsScheduler sched{board};
    gpu::GpuEngine gpu{board};

    std::unique_ptr<workload::InferenceProcess>
    process(const std::string &model, soc::Precision p, int i)
    {
        workload::ProcessConfig cfg;
        cfg.name = model + "." + std::to_string(i);
        cfg.build = config(p, 1);
        return std::make_unique<workload::InferenceProcess>(
            board, sched, gpu, models::modelByName(model), cfg);
    }
};

TEST(EngineCache, SharedEngineStillChargesEveryProcess)
{
    Rig r(soc::orinNano());
    auto a = r.process("resnet50", soc::Precision::Fp16, 0);
    auto b = r.process("resnet50", soc::Precision::Fp16, 1);
    ASSERT_EQ(&a->engine(), &b->engine());
    const sim::Bytes each =
        r.board.spec().memory.process_runtime_overhead +
        a->engine().deviceBytes();
    ASSERT_TRUE(a->deploy());
    EXPECT_EQ(r.board.memory().used(), each);
    ASSERT_TRUE(b->deploy());
    EXPECT_EQ(r.board.memory().used(), 2 * each);
}

TEST(EngineCache, NanoFcnResnet50TimesFourStillFailsToDeploy)
{
    // The paper's Nano FCN_ResNet50 x4 failure: one shared engine,
    // but four processes' worth of memory.
    Rig r(soc::jetsonNano());
    int deployed = 0;
    std::vector<std::unique_ptr<workload::InferenceProcess>> procs;
    for (int i = 0; i < 4; ++i) {
        procs.push_back(r.process("fcn_resnet50", soc::Precision::Fp16, i));
        deployed += procs.back()->deploy() ? 1 : 0;
        EXPECT_EQ(&procs.back()->engine(), &procs.front()->engine());
    }
    EXPECT_GE(deployed, 1);
    EXPECT_LT(deployed, 4);
}

} // namespace
} // namespace jetsim::trt
