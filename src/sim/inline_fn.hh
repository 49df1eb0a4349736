/**
 * @file
 * InlineFn: the event queue's small-buffer callback.
 *
 * The simulator's hot path schedules millions of short-lived
 * callbacks whose captures are tiny (`this` plus a couple of ids).
 * std::function heap-allocates for anything beyond two words;
 * InlineFn stores every capture in place and never allocates. The
 * bound is a compile-time rule: a capture larger than kInlineSize
 * bytes, over-aligned or throwing on move fails the constructor's
 * static_assert (tests/sim/inline_fn_capture_bound.cc is the gate).
 *
 * Move-only, void(), one-shot friendly (may be invoked repeatedly but
 * the queue invokes each event once).
 */

#ifndef JETSIM_SIM_INLINE_FN_HH
#define JETSIM_SIM_INLINE_FN_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace jetsim::sim {

/** Move-only void() callable with a 48-byte inline capture buffer. */
class InlineFn
{
  public:
    /** The largest capture, in bytes, a callback may have. */
    static constexpr std::size_t kInlineSize = 48;

    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {} // NOLINT(*-explicit-*)

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn> &&
                  std::is_invocable_r_v<void, D &>>>
    InlineFn(F &&f) // NOLINT(*-explicit-*): drop-in for std::function
    {
        static_assert(fitsInline<D>(),
                      "InlineFn capture exceeds kInlineSize bytes, is "
                      "over-aligned or may throw on move");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        ops_ = &kOps<D>;
    }

    InlineFn(InlineFn &&o) noexcept { moveFrom(o); }

    InlineFn &
    operator=(InlineFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** Invoke the wrapped callable; undefined when empty. */
    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Destroy the wrapped callable, leaving the fn empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->copy_bytes == kRelocateFn)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** Always 0: captures are bounded at compile time (perfbench). */
    static constexpr std::uint64_t heapFallbackCount() noexcept { return 0; }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst's buffer from src's, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        /** Relocation recipe: kRelocateFn = call relocate(); other
         * values = trivially copyable/destructible, copy exactly
         * this many buffer bytes (0 for stateless captures) and skip
         * destroy(). Lets the hot path avoid two indirect calls for
         * the common trivial captures. */
        std::uint8_t copy_bytes;
    };

    static constexpr std::uint8_t kRelocateFn = 0xff;

    template <typename D>
    static constexpr std::uint8_t
    copyRecipe()
    {
        if (!std::is_trivially_copyable_v<D> ||
            !std::is_trivially_destructible_v<D>)
            return kRelocateFn;
        if (std::is_empty_v<D>)
            return 0;
        return sizeof(D) <= 16 ? 16 : sizeof(D) <= 32 ? 32 : 48;
    }

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineSize &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops kOps = {
        [](void *p) { (*static_cast<D *>(p))(); },
        [](void *dst, void *src) noexcept {
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
        },
        [](void *p) noexcept { static_cast<D *>(p)->~D(); },
        copyRecipe<D>(),
    };

    void
    moveFrom(InlineFn &o) noexcept
    {
        if (o.ops_) {
            // Fixed-size copies beat an indirect relocate call for
            // trivial captures; the compare chain is predictable at
            // any call site dominated by one callback type. The
            // bucketed sizes deliberately copy up to 48 bytes even
            // when the capture is smaller — unsigned-char copies of
            // the uninitialized tail are well-defined and never read
            // back, but GCC's -Wmaybe-uninitialized can't see that.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
            switch (o.ops_->copy_bytes) {
              case 0:
                break;
              case 16:
                __builtin_memcpy(buf_, o.buf_, 16);
                break;
              case 32:
                __builtin_memcpy(buf_, o.buf_, 32);
                break;
              case 48:
                __builtin_memcpy(buf_, o.buf_, 48);
                break;
              default:
                o.ops_->relocate(buf_, o.buf_);
                break;
            }
#pragma GCC diagnostic pop
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
    const Ops *ops_ = nullptr;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_INLINE_FN_HH
