/**
 * @file
 * Tests for sim::InlineFn: the fixed-size move recipes vs. the
 * relocate path, destruction accounting and self-move safety. The
 * capture bound itself is a compile-time rule, checked by the
 * inline_fn_capture_bound ctests (inline_fn_capture_bound.cc).
 */

#include "sim/inline_fn.hh"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <utility>

using jetsim::sim::InlineFn;

namespace {

/** Live-instance counter for destructor accounting. */
struct Tracker
{
    static int live;
    int *hits; ///< bumped on every invocation
    explicit Tracker(int *h) : hits(h) { ++live; }
    Tracker(const Tracker &o) noexcept : hits(o.hits) { ++live; }
    Tracker(Tracker &&o) noexcept : hits(o.hits) { ++live; }
    ~Tracker() { --live; }
    void operator()() const { ++*hits; }
};
int Tracker::live = 0;

} // namespace

TEST(InlineFnTest, SmallCaptureStaysInline)
{
    int hits = 0;
    InlineFn fn([&hits] { ++hits; });
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFnTest, TrivialMoveRecipesPreserveCapture)
{
    // One capture per fixed-size memcpy recipe (16/32/48 bytes) plus
    // the stateless 0-byte case: the moved-to fn must see the bytes,
    // the moved-from fn must be empty.
    int out = 0;

    InlineFn f0([] {});
    InlineFn g0(std::move(f0));
    EXPECT_TRUE(static_cast<bool>(g0));
    EXPECT_FALSE(static_cast<bool>(f0)); // NOLINT(bugprone-use-after-move)

    std::array<char, 12> c16{};
    c16[11] = 7;
    InlineFn f16([c16, &out] { out = c16[11]; });
    InlineFn g16(std::move(f16));
    g16();
    EXPECT_EQ(out, 7);

    std::array<char, 24> c32{};
    c32[23] = 9;
    InlineFn f32([c32, &out] { out = c32[23]; });
    InlineFn g32(std::move(f32));
    g32();
    EXPECT_EQ(out, 9);

    std::array<char, 40> c48{};
    c48[39] = 11;
    InlineFn f48([c48, &out] { out = c48[39]; });
    InlineFn g48(std::move(f48));
    g48();
    EXPECT_EQ(out, 11);
}

TEST(InlineFnTest, NonTrivialCaptureUsesRelocateAndDestroysOnce)
{
    ASSERT_EQ(Tracker::live, 0);
    int hits = 0;
    {
        InlineFn fn{Tracker(&hits)};
        EXPECT_EQ(Tracker::live, 1);
        InlineFn moved(std::move(fn));
        // Relocate = move-construct into dst + destroy src: exactly
        // one live instance either side of the move.
        EXPECT_EQ(Tracker::live, 1);
        EXPECT_FALSE(static_cast<bool>(fn)); // NOLINT(bugprone-use-after-move)
        moved();
        EXPECT_EQ(hits, 1);
    }
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFnTest, SelfMoveAssignIsSafe)
{
    int hits = 0;
    InlineFn fn{Tracker(&hits)};
    ASSERT_EQ(Tracker::live, 1);
    InlineFn *alias = &fn; // defeat -Wself-move
    fn = std::move(*alias);
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(Tracker::live, 1);
    fn();
    EXPECT_EQ(hits, 1);
    fn.reset();
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFnTest, MoveAssignReleasesPreviousTarget)
{
    int hits_a = 0;
    int hits_b = 0;
    InlineFn a{Tracker(&hits_a)};
    InlineFn b{Tracker(&hits_b)};
    ASSERT_EQ(Tracker::live, 2);
    a = std::move(b);
    EXPECT_EQ(Tracker::live, 1); // a's original capture destroyed
    a();
    EXPECT_EQ(hits_a, 0);
    EXPECT_EQ(hits_b, 1);
    EXPECT_FALSE(static_cast<bool>(b)); // NOLINT(bugprone-use-after-move)
    a = nullptr;
    EXPECT_EQ(Tracker::live, 0);
    EXPECT_FALSE(static_cast<bool>(a));
}
