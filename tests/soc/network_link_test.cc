/**
 * @file
 * NetworkLink model tests.
 */

#include "soc/network_link.hh"

#include <gtest/gtest.h>

namespace jetsim::soc {
namespace {

NetworkLink
link()
{
    NetworkLink l;
    l.uplink_mbps = 80.0;
    l.downlink_mbps = 100.0;
    l.rtt_ms = 30.0;
    l.per_image_bytes = 200e3; // 200 kB frames
    l.result_bytes = 4e3;
    return l;
}

TEST(NetworkLink, WireThroughputFollowsBandwidth)
{
    // 80 Mbps / (200 kB x 8 bits) = 50 img/s.
    EXPECT_NEAR(link().wireThroughput(), 50.0, 1e-9);
}

TEST(NetworkLink, EffectiveThroughputIsTheMin)
{
    const auto l = link();
    EXPECT_NEAR(l.effectiveThroughput(1000.0), 50.0, 1e-9);
    EXPECT_NEAR(l.effectiveThroughput(20.0), 20.0, 1e-9);
}

TEST(NetworkLink, CloudCollapseMatchesPaperIntro)
{
    // The paper's framing: an A40 sustains 1000+ img/s, but a
    // realistic uplink admits a tiny fraction of that.
    const auto l = link();
    EXPECT_LT(l.effectiveThroughput(1000.0), 0.1 * 1000.0);
}

TEST(NetworkLink, LatencyDecomposes)
{
    const auto l = link();
    // batch 1 at 100 fps device: 30 RTT + 20 up + 0.32 down + 10.
    EXPECT_NEAR(l.endToEndLatencyMs(100.0, 1), 60.32, 0.1);
}

TEST(NetworkLink, LatencyGrowsWithBatch)
{
    const auto l = link();
    EXPECT_GT(l.endToEndLatencyMs(100.0, 8),
              l.endToEndLatencyMs(100.0, 1));
}

TEST(NetworkLink, FasterUplinkRaisesEverything)
{
    auto slow = link();
    auto fast = link();
    fast.uplink_mbps = 800.0;
    EXPECT_GT(fast.wireThroughput(), slow.wireThroughput());
    EXPECT_LT(fast.endToEndLatencyMs(100.0, 4),
              slow.endToEndLatencyMs(100.0, 4));
}

} // namespace
} // namespace jetsim::soc
