/**
 * @file
 * Property tests of sim::Rng::lognormalTick over each consumer's real
 * Tick map: kernel jitter (every zoo engine's pre-jitter body at every
 * DVFS level), launch-API cost (each device's mean, bare and under the
 * Nsight tracer's overhead factor) and host-side prep.
 *
 * On seeded and on adversarial uniform pairs, every draw must map to
 * the Tick of the libm expression the simulator drew with before
 * lognormalTick, and wherever the table bracket decides a Tick (the
 * map is called exactly twice) the libm value must lie inside the
 * bracket. A seeded run must leave the Rng where two uniform() calls
 * per draw leave it. Each test prints its fallback rate: the share of
 * draws that ran libm.
 *
 * tests/sim/draw_mutant.cmake builds this file against a copy of
 * rng.hh whose bracket has zero width; the prep test must fail there.
 */

#include "sim/rng.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
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

/** Checks the draw of @p d (coefficient of variation @p cv) from
 * (@p u1, @p u2) through @p to_tick. */
template <class F>
void
check(const sim::Lognormal &d, double cv, double u1, double u2,
      F to_tick, Tally &t)
{
    double ends[2] = {0.0, 0.0};
    int calls = 0;
    const auto probe = [&](double v) {
        if (calls < 2)
            ends[calls] = v;
        ++calls;
        return to_tick(v);
    };
    const sim::Tick got = sim::Rng::lognormalTick(d, u1, u2, probe);
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

/**
 * @p n seeded draws: check() on the uniforms a reference Rng draws,
 * and lognormalTick on a second Rng of the same seed, which must give
 * the same Tick and end where the reference does. @p map_for(i) is
 * the Tick map of draw i.
 */
template <class MapFor>
void
seeded(const sim::Lognormal &d, double cv, std::uint64_t seed, int n,
       MapFor map_for, Tally &t)
{
    sim::Rng drawn(seed), reference(seed);
    const std::uint64_t fallbacks = t.fallbacks;
    for (int i = 0; i < n; ++i) {
        const auto to_tick = map_for(i);
        const double u1 = reference.uniform();
        const double u2 = reference.uniform();
        check(d, cv, u1, u2, to_tick, t);
        if (drawn.lognormalTick(d, to_tick) !=
            to_tick(libmValue(d.mean(), cv, u1, u2))) {
            ++t.wrong_ticks;
            t.bad(d.mean(), u1, u2, "seeded Tick differs");
        }
    }
    EXPECT_EQ(drawn.next(), reference.next())
        << "Rng state after " << n << " draws at mean " << d.mean();
    std::printf("[ seeded   ] mean %g cv %g: %d draws, fallback rate "
                "%.2e\n",
                d.mean(), cv, n,
                static_cast<double>(t.fallbacks - fallbacks) / n);
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

    Tally t;
    seeded(
        jitter, KernelCostModel::kJitterCv, 0x5eed, kSeededDraws,
        [&](int i) { return map_for_body(bodies[i % bodies.size()]); },
        t);
    // Every 97th body against every adversarial pair.
    for (std::size_t b = 0; b < bodies.size(); b += 97)
        for (const auto &[u1, u2] : adversarialPairs())
            check(jitter, KernelCostModel::kJitterCv, u1, u2,
                  map_for_body(bodies[b]), t);
    t.expectClean("kernel jitter");
}

TEST(TickDraw, LaunchCostOnEveryDeviceWithAndWithoutTheTracer)
{
    Tally t;
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
            seeded(
                d, trt::kLaunchCostCv, ++seed,
                kSeededDraws / static_cast<int>(
                                   2 * soc::deviceNames().size()),
                [&](int) { return bounded; }, t);
            for (const auto &[u1, u2] : adversarialPairs())
                check(d, trt::kLaunchCostCv, u1, u2, bounded, t);
        }
    }
    t.expectClean("launch cost");
}

TEST(TickDraw, PrepCostOverSeededAndAdversarialUniforms)
{
    const sim::Lognormal d(static_cast<double>(workload::kPrepCost),
                           workload::kPrepCostCv);
    const auto bounded = [&d](double v) { return d.boundedTick(v); };
    Tally t;
    seeded(
        d, workload::kPrepCostCv, 0x9e9, kSeededDraws,
        [&](int) { return bounded; }, t);
    for (const auto &[u1, u2] : adversarialPairs())
        check(d, workload::kPrepCostCv, u1, u2, bounded, t);
    t.expectClean("prep");
}

} // namespace
} // namespace jetsim
