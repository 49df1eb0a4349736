/**
 * @file
 * Result-cache tests: digest-keyed hit/miss behaviour, bit-exact
 * round-trip fidelity (a cached ExperimentResult equals the fresh one
 * under the defaulted operator==, CDFs included), cache invalidation
 * when *any* spec field changes, a file of the previous format
 * version missing, and tolerance of corrupted cache files (fall back
 * to a re-run, never crash).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/digest.hh"
#include "core/profiler.hh"
#include "core/result_cache.hh"
#include "core/env.hh"
#include "core/runner.hh"

namespace jetsim {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::path(::testing::TempDir()) /
               ("jetsim_cache_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir() const { return dir_.string(); }

    fs::path dir_;
};

core::ExperimentSpec
smallSpec()
{
    core::ExperimentSpec s;
    s.device = "orin-nano";
    s.model = "resnet50";
    s.precision = soc::Precision::Fp16;
    s.batch = 2;
    s.processes = 2;
    s.phase = core::Phase::Deep; // non-empty CDFs + kernel spans
    s.warmup = sim::msec(50);
    s.duration = sim::msec(200);
    s.seed = 99;
    return s;
}

TEST_F(ResultCacheTest, MissOnEmptyThenHitAfterStore)
{
    core::ResultCache cache(dir());
    const auto spec = smallSpec();
    EXPECT_FALSE(cache.load(spec).has_value());

    const auto fresh = core::runExperiment(spec);
    cache.store(fresh);
    EXPECT_TRUE(fs::exists(cache.pathFor(spec)));
    EXPECT_TRUE(cache.load(spec).has_value());
}

TEST_F(ResultCacheTest, RoundTripIsBitExactFieldByField)
{
    core::ResultCache cache(dir());
    const auto spec = smallSpec();
    const auto fresh = core::runExperiment(spec);
    cache.store(fresh);

    const auto cached = cache.load(spec);
    ASSERT_TRUE(cached.has_value());
    ASSERT_GT(fresh.sm_active.count(), 0u); // deep phase has CDFs
    EXPECT_TRUE(*cached == fresh); // every field, CDF state included

    // The one-integer summary of all of the above.
    EXPECT_EQ(core::resultDigest(*cached), core::resultDigest(fresh));
}

TEST_F(ResultCacheTest, AnySpecFieldChangeChangesTheKey)
{
    const auto base = smallSpec();
    const auto key = core::ResultCache::specKey(base);

    auto mutated = [&](auto mutate) {
        auto s = base;
        mutate(s);
        return core::ResultCache::specKey(s);
    };

    using Spec = core::ExperimentSpec;
    EXPECT_NE(key, mutated([](Spec &s) { s.device = "nano"; }));
    EXPECT_NE(key, mutated([](Spec &s) { s.model = "yolov8n"; }));
    EXPECT_NE(key, mutated([](Spec &s) {
        s.precision = soc::Precision::Int8;
    }));
    EXPECT_NE(key, mutated([](Spec &s) { s.batch = 1; }));
    EXPECT_NE(key, mutated([](Spec &s) { s.processes = 4; }));
    EXPECT_NE(key, mutated([](Spec &s) {
        s.phase = core::Phase::Light;
    }));
    EXPECT_NE(key, mutated([](Spec &s) { s.warmup += 1; }));
    EXPECT_NE(key, mutated([](Spec &s) { s.duration += 1; }));
    EXPECT_NE(key, mutated([](Spec &s) { s.pre_enqueue = 0; }));
    EXPECT_NE(key, mutated([](Spec &s) { s.dvfs = false; }));
    EXPECT_NE(key, mutated([](Spec &s) { s.biglittle = false; }));
    EXPECT_NE(key, mutated([](Spec &s) {
        s.spatial_sharing = true;
    }));
    EXPECT_NE(key, mutated([](Spec &s) { s.seed += 1; }));
}

TEST_F(ResultCacheTest, CorruptedFilesFallBackToMiss)
{
    core::ResultCache cache(dir());
    const auto spec = smallSpec();
    const auto fresh = core::runExperiment(spec);
    cache.store(fresh);
    const auto path = cache.pathFor(spec);

    const std::vector<std::string> corruptions = {
        "",                          // empty file
        "not json at all",           // garbage
        "{\"version\":",             // truncated mid-token
        "{\"version\": 999999, \"key\": 1, \"result\": {}}", // version
        "[1, 2, 3]",                 // wrong shape
        "{}",                        // missing everything
    };
    for (const auto &bad : corruptions) {
        std::ofstream(path, std::ios::trunc) << bad;
        EXPECT_FALSE(cache.load(spec).has_value())
            << "accepted corrupted content: " << bad;
    }

    // Truncated-but-valid-prefix of the real file.
    cache.store(fresh);
    const std::string text = [&path] {
        std::ifstream in(path);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }();
    std::ofstream(path, std::ios::trunc)
        << text.substr(0, text.size() / 2);
    EXPECT_FALSE(cache.load(spec).has_value());

    // Well-formed entries that must still miss: the previous format
    // version, an unknown precision name (a miss, not an exit), and a
    // stored spec other than the requested one (a key collision).
    for (const auto &[from, to] :
         {std::pair{"\"jetsim_cache\":2", "\"jetsim_cache\":1"},
          std::pair{"\"precision\":\"fp16\"", "\"precision\":\"fp99\""},
          std::pair{"\"seed\":99", "\"seed\":98"}}) {
        std::string bad = text;
        const auto at = bad.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        bad.replace(at, std::string(from).size(), to);
        std::ofstream(path, std::ios::trunc) << bad;
        EXPECT_FALSE(cache.load(spec).has_value()) << to;
    }

    // A Runner pointed at the poisoned cache must transparently
    // re-run and produce the bit-identical result.
    std::ofstream(path, std::ios::trunc) << "garbage";
    core::Runner runner(2, dir());
    const auto results = runner.run({spec});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(core::resultDigest(results[0]),
              core::resultDigest(fresh));
    EXPECT_EQ(runner.cacheStats().hits, 0u);
    EXPECT_EQ(runner.cacheStats().misses, 1u);
    EXPECT_EQ(runner.cacheStats().stores, 1u);
    // The re-run repaired the entry.
    EXPECT_TRUE(cache.load(spec).has_value());
}

TEST_F(ResultCacheTest, RunnerServesRepeatsFromCache)
{
    const auto specs = [] {
        std::vector<core::ExperimentSpec> v;
        for (const int batch : {1, 2, 4}) {
            auto s = smallSpec();
            s.phase = core::Phase::Light;
            s.batch = batch;
            v.push_back(s);
        }
        return v;
    }();

    core::Runner cold(2, dir());
    const auto first = cold.run(specs);
    EXPECT_EQ(cold.cacheStats().hits, 0u);
    EXPECT_EQ(cold.cacheStats().misses, specs.size());
    EXPECT_EQ(cold.cacheStats().stores, specs.size());

    core::Runner warm(2, dir());
    const auto second = warm.run(specs);
    EXPECT_EQ(warm.cacheStats().hits, specs.size());
    EXPECT_EQ(warm.cacheStats().misses, 0u);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(core::resultDigest(first[i]),
                  core::resultDigest(second[i]));
}

TEST_F(ResultCacheTest, EnvVarEnablesCaching)
{
    ::setenv("JETSIM_CACHE_DIR", dir().c_str(), 1);
    core::reloadEnv(); // Runner reads the cached startup environment
    {
        core::Runner runner(1);
        EXPECT_TRUE(runner.cacheEnabled());
        auto s = smallSpec();
        s.phase = core::Phase::Light;
        runner.run({s});
        EXPECT_EQ(runner.cacheStats().stores, 1u);
    }
    ::unsetenv("JETSIM_CACHE_DIR");
    core::reloadEnv();
    core::Runner off(1);
    EXPECT_FALSE(off.cacheEnabled());
}

} // namespace
} // namespace jetsim
