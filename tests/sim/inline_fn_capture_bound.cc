/**
 * @file
 * InlineFn's capture bound, checked by the compiler. ctest compiles
 * this file twice with -fsyntax-only (tests/CMakeLists.txt): as-is a
 * capture of exactly kInlineSize bytes must compile; with
 * -DOVERSIZED a capture of kInlineSize + 8 bytes must fail with the
 * constructor's static_assert message.
 */

#include "sim/inline_fn.hh"

#include <cstddef>

namespace {

#ifdef OVERSIZED
constexpr std::size_t kCaptureBytes =
    jetsim::sim::InlineFn::kInlineSize + 8;
#else
constexpr std::size_t kCaptureBytes = 48;
#endif

struct Capture
{
    unsigned char bytes[kCaptureBytes];
};

} // namespace

void
makeCallback()
{
    const Capture c{};
    jetsim::sim::InlineFn fn([c] { (void)c; });
    static_assert(sizeof([c] { (void)c; }) == kCaptureBytes);
    fn();
}
