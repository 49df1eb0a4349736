/**
 * @file
 * Property tests of the Tick-exact lognormal draws over each
 * consumer's real Tick map: kernel jitter (every zoo engine's
 * pre-jitter body at every DVFS level), launch-API cost (each
 * device's mean, bare and under the Nsight tracer's overhead factor)
 * and host-side prep. Each map is drawn on two paths: the scalar
 * sim::Rng::lognormalTick, and sim::DrawStream at every block-loop
 * ISA level the host runs (sim::drawLevels()).
 *
 * On seeded and on adversarial uniform pairs, every draw must map to
 * the Tick of the libm expression the simulator drew with before
 * lognormalTick, and wherever the table bracket decides a Tick (the
 * map is called exactly twice) the libm value must lie inside the
 * bracket. A seeded Rng must end where two uniform() calls per draw
 * leave it, and a stream must hand out the uniforms a plain Rng of
 * the same seed draws. Each tally prints its fallback rate: the share
 * of draws that ran libm.
 *
 * tests/sim/draw_mutant.cmake builds this file against a copy of
 * rng.hh whose bracket has zero width; the prep test must fail there,
 * on the scalar path and on the baseline block path alike.
 */

#include "sim/draw_stream.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gpu/cost_model.hh"
#include "models/zoo.hh"
#include "prof/nsight.hh"
#include "soc/device_spec.hh"
#include "soc/dvfs.hh"
#include "trt/builder.hh"
#include "trt/execution_context.hh"
#include "workload/inference_process.hh"

namespace jetsim {
namespace {

/** Seeded draws per consumer. */
constexpr int kSeededDraws = 1'000'000;

/** The draw as the simulator evaluated it before lognormalTick: Box-
 * Muller's first variate, then exp(mu + sigma * N). */
double
libmValue(double mean, double cv, double u1, double u2)
{
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    if (u1 < 1e-300)
        u1 = 1e-300;
    const double normal =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    return std::exp(mu + std::sqrt(sigma2) * normal);
}

/** What one consumer's draws showed. */
struct Tally
{
    std::uint64_t draws = 0;
    std::uint64_t fallbacks = 0; ///< draws whose Tick libm decided
    std::uint64_t wrong_ticks = 0;
    std::uint64_t outside = 0; ///< libm value outside a deciding bracket
    std::string first_bad;

    void
    bad(double mean, double u1, double u2, const char *what)
    {
        if (!first_bad.empty())
            return;
        std::ostringstream os;
        os.precision(17);
        os << what << " at mean " << mean << ", u1 " << u1 << ", u2 "
           << u2;
        first_bad = os.str();
    }

    void
    expectClean(const char *consumer) const
    {
        std::printf("[ all      ] %s: %llu draws, %llu by libm "
                    "(fallback rate %.2e)\n",
                    consumer, static_cast<unsigned long long>(draws),
                    static_cast<unsigned long long>(fallbacks),
                    static_cast<double>(fallbacks) /
                        static_cast<double>(draws));
        EXPECT_EQ(outside, 0u)
            << consumer << ": libm values outside the bracket that "
            << "decided their Tick; first: " << first_bad;
        EXPECT_EQ(wrong_ticks, 0u)
            << consumer << ": Ticks that differ from libm's; first: "
            << first_bad;
    }
};

/**
 * Checks the draw of @p d (coefficient of variation @p cv) from
 * (@p u1, @p u2) through @p to_tick on one path: @p decide(probe) is
 * the path's Tick for that draw, with probe in place of to_tick.
 */
template <class F, class Decide>
void
check(const sim::Lognormal &d, double cv, double u1, double u2,
      F to_tick, Decide decide, Tally &t)
{
    double ends[2] = {0.0, 0.0};
    int calls = 0;
    const auto probe = [&](double v) {
        if (calls < 2)
            ends[calls] = v;
        ++calls;
        return to_tick(v);
    };
    const sim::Tick got = decide(probe);
    const double ref = libmValue(d.mean(), cv, u1, u2);
    ++t.draws;
    if (calls != 2) {
        ++t.fallbacks;
    } else if (!(ends[0] <= ref && ref <= ends[1])) {
        ++t.outside;
        t.bad(d.mean(), u1, u2, "outside the bracket");
    }
    if (got != to_tick(ref)) {
        ++t.wrong_ticks;
        t.bad(d.mean(), u1, u2, "Tick differs");
    }
}

/** check() on the scalar path: Rng::lognormalTick of the pair. */
template <class F>
void
checkScalar(const sim::Lognormal &d, double cv, double u1, double u2,
            F to_tick, Tally &t)
{
    check(d, cv, u1, u2, to_tick,
          [&](auto probe) {
              return sim::Rng::lognormalTick(d, u1, u2, probe);
          },
          t);
}

/**
 * check() on @p level's block path, for @p n uniform pairs
 * @p pair_at(i) in blocks of kDrawBlock (the last one padded): each
 * block's factors from the level's loop, then the bracket a
 * DrawStream applies, or libm. @p map_for(i) is the Tick map of pair
 * i.
 */
template <class PairAt, class MapFor>
void
checkBlocks(const sim::Lognormal &d, double cv, std::size_t n,
            PairAt pair_at, const sim::DrawLevel &level, MapFor map_for,
            Tally &t)
{
    const double sigma = std::sqrt(std::log(1.0 + cv * cv));
    for (std::size_t b = 0; b < n; b += sim::kDrawBlock) {
        double u1[sim::kDrawBlock] = {}, u2[sim::kDrawBlock] = {};
        double factor[sim::kDrawBlock];
        const std::size_t m =
            std::min<std::size_t>(sim::kDrawBlock, n - b);
        for (std::size_t i = 0; i < m; ++i)
            std::tie(u1[i], u2[i]) = pair_at(b + i);
        level.factors(sigma, u1, u2, factor);
        for (std::size_t i = 0; i < m; ++i)
            check(d, cv, u1[i], u2[i], map_for(b + i),
                  [&](auto probe) {
                      const auto tick = d.bracketTick(factor[i], probe);
                      return tick ? *tick
                                  : probe(d.libmValue(u1[i], u2[i]));
                  },
                  t);
    }
}

/**
 * @p n seeded draws on the scalar path: check() on lognormalTick of a
 * seeded Rng, against the uniforms a reference Rng of the same seed
 * draws; both must end in the same state. @p map_for(i) is the Tick
 * map of draw i.
 */
template <class MapFor>
void
seeded(const sim::Lognormal &d, double cv, std::uint64_t seed, int n,
       MapFor map_for, Tally &t)
{
    sim::Rng drawn(seed), reference(seed);
    const std::uint64_t fallbacks = t.fallbacks;
    for (int i = 0; i < n; ++i) {
        const double u1 = reference.uniform();
        const double u2 = reference.uniform();
        check(d, cv, u1, u2, map_for(i),
              [&](auto probe) { return drawn.lognormalTick(d, probe); }, t);
    }
    EXPECT_EQ(drawn.next(), reference.next())
        << "Rng state after " << n << " draws at mean " << d.mean();
    std::printf("[ seeded   ] mean %g cv %g: %d draws, fallback rate "
                "%.2e\n",
                d.mean(), cv, n,
                static_cast<double>(t.fallbacks - fallbacks) / n);
}

/**
 * The same @p n seeded draws from a DrawStream of arity @p Arity at
 * @p level: each must be the Tick of the uniforms a plain Rng of the
 * same seed draws (check()), and each third() that Rng's third
 * uniform.
 */
template <int Arity, class MapFor>
void
seededStream(const sim::Lognormal &d, double cv, std::uint64_t seed,
             int n, const sim::DrawLevel &level, MapFor map_for,
             Tally &t)
{
    sim::DrawStream<Arity> drawn(sim::Rng(seed), d, level);
    sim::Rng reference(seed);
    int wrong_thirds = 0;
    for (int i = 0; i < n; ++i) {
        const double u1 = reference.uniform();
        const double u2 = reference.uniform();
        check(d, cv, u1, u2, map_for(i),
              [&](auto probe) { return drawn.lognormalTick(d, probe); }, t);
        if constexpr (Arity == 3)
            wrong_thirds += drawn.third() != reference.uniform();
    }
    EXPECT_EQ(wrong_thirds, 0) << level.name << " at mean " << d.mean();
}

/** The ISA levels of the block loop this host runs, with the tally
 * name of @p consumer on each. */
std::vector<std::pair<const sim::DrawLevel *, std::string>>
hostLevels(const char *consumer)
{
    std::vector<std::pair<const sim::DrawLevel *, std::string>> out;
    for (const auto &level : sim::drawLevels())
        if (level.host_runs())
            out.emplace_back(&level, std::string(consumer) + ", " +
                                         std::string(level.name) +
                                         " blocks");
    return out;
}

/**
 * Uniform pairs at the kernels' edges: u1 at 0, at the smallest
 * uniform() value and around the libm cut-off 0.99995; u2 on every
 * cos table angle k/256, one ulp either side of each quadrant k/4,
 * and just below 1. Every value is one uniform() can return.
 */
std::vector<std::pair<double, double>>
adversarialPairs()
{
    constexpr double eps = 0x1p-53;
    const double cut = 0.99995;
    const std::vector<double> u1s = {
        0.0,
        eps,
        2 * eps,
        0x1p-30,
        0.5,
        std::nextafter(cut, 0.0) - eps,
        std::nextafter(cut, 0.0),
        cut,
        std::nextafter(cut, 1.0),
        1.0 - eps};
    std::vector<double> u2s;
    for (int k = 0; k < 256; ++k)
        u2s.push_back(k / 256.0);
    for (int k = 0; k <= 4; ++k) {
        if (k > 0)
            u2s.push_back(k / 4.0 - eps);
        if (k < 4)
            u2s.push_back(k / 4.0 + eps);
    }
    std::vector<std::pair<double, double>> pairs;
    for (const double u1 : u1s)
        for (const double u2 : u2s)
            pairs.emplace_back(u1, u2);
    return pairs;
}

TEST(TickDraw, KernelJitterOverEveryZooBody)
{
    using gpu::KernelCostModel;
    const sim::Lognormal jitter(1.0, KernelCostModel::kJitterCv);
    std::vector<double> bodies;
    for (const auto &name : soc::deviceNames()) {
        const auto spec = soc::deviceByName(name);
        const KernelCostModel m(spec);
        for (const auto &model : models::allModelNames())
            for (const auto p : soc::kAllPrecisions) {
                const auto e = trt::sharedEngine(
                    spec, models::modelByName(model),
                    trt::BuilderConfig{p, 1});
                for (int level = 0; level < spec.gpu.dvfs_levels;
                     ++level) {
                    const double f = soc::DvfsGovernor::levelFreqFrac(
                        spec.gpu, level);
                    for (const auto &k : e->kernels())
                        bodies.push_back(m.body(k.statics, k.flops, f));
                }
            }
    }
    ASSERT_GT(bodies.size(), 10000u);
    const auto map_for_body = [](double body) {
        return [body](double j) {
            return KernelCostModel::jitteredBody(body, j);
        };
    };
    const auto seeded_map = [&](std::size_t i) {
        return map_for_body(bodies[i % bodies.size()]);
    };
    // Every 97th body against every adversarial pair.
    const auto pairs = adversarialPairs();
    const std::size_t grid = (bodies.size() + 96) / 97 * pairs.size();
    const auto grid_pair = [&](std::size_t i) {
        return pairs[i % pairs.size()];
    };
    const auto grid_map = [&](std::size_t i) {
        return map_for_body(bodies[i / pairs.size() * 97]);
    };

    Tally t;
    seeded(jitter, KernelCostModel::kJitterCv, 0x5eed, kSeededDraws,
           seeded_map, t);
    for (std::size_t i = 0; i < grid; ++i)
        checkScalar(jitter, KernelCostModel::kJitterCv, grid_pair(i).first,
                    grid_pair(i).second, grid_map(i), t);
    t.expectClean("kernel jitter");

    // The engine's path: a stream of arity 3 (the occupancy uniform
    // after each draw).
    for (const auto &[level, name] : hostLevels("kernel jitter")) {
        Tally b;
        seededStream<3>(jitter, KernelCostModel::kJitterCv, 0x5eed,
                        kSeededDraws, *level, seeded_map, b);
        checkBlocks(jitter, KernelCostModel::kJitterCv, grid, grid_pair,
                    *level, grid_map, b);
        b.expectClean(name.c_str());
    }
}

TEST(TickDraw, LaunchCostOnEveryDeviceWithAndWithoutTheTracer)
{
    const auto levels = hostLevels("launch cost");
    const auto pairs = adversarialPairs();
    const auto pair_at = [&](std::size_t i) { return pairs[i]; };
    Tally t;
    std::vector<Tally> blocks(levels.size());
    std::uint64_t seed = 0x1a0c;
    for (const auto &name : soc::deviceNames()) {
        const auto spec = soc::deviceByName(name);
        for (const double factor :
             {1.0, prof::NsightTracer::kLaunchOverheadFactor}) {
            const sim::Lognormal d(
                static_cast<double>(spec.runtime.launch_cpu_cost) *
                    factor,
                trt::kLaunchCostCv);
            const auto bounded = [&d](double v) {
                return d.boundedTick(v);
            };
            const auto same_map = [&](std::size_t) { return bounded; };
            const int n = kSeededDraws /
                          static_cast<int>(2 * soc::deviceNames().size());
            seeded(d, trt::kLaunchCostCv, ++seed, n, same_map, t);
            for (const auto &[u1, u2] : pairs)
                checkScalar(d, trt::kLaunchCostCv, u1, u2, bounded, t);
            for (std::size_t l = 0; l < levels.size(); ++l) {
                seededStream<2>(d, trt::kLaunchCostCv, seed, n,
                                *levels[l].first, same_map, blocks[l]);
                checkBlocks(d, trt::kLaunchCostCv, pairs.size(),
                            pair_at, *levels[l].first, same_map,
                            blocks[l]);
            }
        }
    }
    t.expectClean("launch cost");
    for (std::size_t l = 0; l < levels.size(); ++l)
        blocks[l].expectClean(levels[l].second.c_str());
}

TEST(TickDraw, PrepCostOverSeededAndAdversarialUniforms)
{
    const sim::Lognormal d(static_cast<double>(workload::kPrepCost),
                           workload::kPrepCostCv);
    const auto bounded = [&d](double v) { return d.boundedTick(v); };
    const auto same_map = [&](std::size_t) { return bounded; };
    const auto pairs = adversarialPairs();
    const auto pair_at = [&](std::size_t i) { return pairs[i]; };
    Tally t;
    seeded(d, workload::kPrepCostCv, 0x9e9, kSeededDraws, same_map, t);
    for (const auto &[u1, u2] : pairs)
        checkScalar(d, workload::kPrepCostCv, u1, u2, bounded, t);
    t.expectClean("prep");
    // Prep draws on the scalar path only; its map on the block path
    // too, so a zero-width bracket fails both (draw_mutant.cmake).
    for (const auto &[level, name] : hostLevels("prep")) {
        Tally b;
        seededStream<2>(d, workload::kPrepCostCv, 0x9e9, kSeededDraws,
                        *level, same_map, b);
        checkBlocks(d, workload::kPrepCostCv, pairs.size(), pair_at,
                    *level, same_map, b);
        b.expectClean(name.c_str());
    }
}

/**
 * A stream and a plain Rng of one seed, side by side over five blocks
 * at every level the host runs: equal Ticks and, at arity 3, equal
 * third uniforms. The launch-cost mean changes mid-block, as when the
 * Nsight tracer attaches: the stream's factors depend on the cv only,
 * and the new exp(mu) applies from the next draw on.
 */
TEST(DrawStream, MatchesAPlainRngAcrossBlocksAndAMeanChange)
{
    const double mean = 5200.0;
    const sim::Lognormal bare(mean, trt::kLaunchCostCv);
    const sim::Lognormal traced(
        mean * prof::NsightTracer::kLaunchOverheadFactor,
        trt::kLaunchCostCv);
    const sim::Lognormal jitter(1.0, gpu::KernelCostModel::kJitterCv);
    const auto fine = [](double v) {
        return static_cast<sim::Tick>(v * 1e6);
    };
    constexpr int kDraws = 5 * sim::kDrawBlock;
    constexpr int kAttach = 2 * sim::kDrawBlock + 3;
    for (const auto &level : sim::drawLevels()) {
        if (!level.host_runs())
            continue;
        for (const std::uint64_t seed : {1ull, 0x5eedull, 7901ull}) {
            sim::DrawStream<2> launch(sim::Rng(seed), bare, level);
            sim::Rng launch_rng(seed);
            sim::DrawStream<3> kernel(sim::Rng(seed), jitter, level);
            sim::Rng kernel_rng(seed);
            for (int i = 0; i < kDraws; ++i) {
                const sim::Lognormal &d = i < kAttach ? bare : traced;
                const auto bounded = [&d](double v) {
                    return d.boundedTick(v);
                };
                ASSERT_EQ(launch.lognormalTick(d, bounded),
                          launch_rng.lognormalTick(d, bounded))
                    << level.name << " seed " << seed << " draw " << i;
                ASSERT_EQ(kernel.lognormalTick(jitter, fine),
                          kernel_rng.lognormalTick(jitter, fine))
                    << level.name << " seed " << seed << " draw " << i;
                ASSERT_EQ(kernel.third(), kernel_rng.uniform())
                    << level.name << " seed " << seed << " draw " << i;
            }
        }
    }
}

/** The level list ends in a baseline that runs anywhere, GCC's
 * x86-64 builds put the AVX2 loop before it, and a stream runs the
 * first level the host runs. */
TEST(DrawStream, LevelsEndInABaselineThatRunsAnywhere)
{
    const auto levels = sim::drawLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.back().name, "baseline");
    EXPECT_TRUE(levels.back().host_runs());
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels.front().name, "x86-64-v3");
#endif
    const sim::DrawLevel *first = nullptr;
    for (const auto &level : levels) {
        std::printf("[ level    ] %.*s: %s\n",
                    static_cast<int>(level.name.size()), level.name.data(),
                    level.host_runs() ? "runs here" : "not on this host");
        if (!first && level.host_runs())
            first = &level;
    }
    EXPECT_EQ(&sim::hostDrawLevel(), first);
}

} // namespace
} // namespace jetsim
