/**
 * @file
 * Fifo: the run phase's single-threaded, grow-only ring queue.
 *
 * Every queue the simulated system keeps between events — a CPU
 * thread's work items, the scheduler run queues, a GPU channel's
 * kernels, a stream's sync waiters, an open-loop request backlog — is
 * a FIFO whose depth is bounded by the workload, not by time. A
 * std::deque frees one node and allocates another every few items
 * whatever its depth, so a steady queue of constant depth still
 * churns the allocator. Fifo is a power-of-two ring instead: it grows
 * (doubling) only when full and never shrinks, so once it has reached
 * its high-water depth it never allocates again.
 *
 * pop_front() destroys the element at once (a popped InlineFn's
 * captures die there, not when the slot is next overwritten).
 * erase(at) preserves the order of the rest — the controlled run-queue
 * pick in cpu::OsScheduler::dispatchAll takes a thread out of the
 * middle. Not thread-safe: each instance belongs to one event queue.
 */

#ifndef JETSIM_SIM_FIFO_HH
#define JETSIM_SIM_FIFO_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "core/hot_annotations.hh"
#include "sim/logging.hh"

namespace jetsim::sim {

/** Grow-only power-of-two ring FIFO. */
template <typename T>
class Fifo
{
  public:
    Fifo() noexcept = default;

    Fifo(Fifo &&o) noexcept
        : buf_(std::exchange(o.buf_, nullptr)),
          cap_(std::exchange(o.cap_, 0)),
          head_(std::exchange(o.head_, 0)),
          size_(std::exchange(o.size_, 0))
    {}

    Fifo &
    operator=(Fifo &&o) noexcept
    {
        if (this != &o) {
            release();
            buf_ = std::exchange(o.buf_, nullptr);
            cap_ = std::exchange(o.cap_, 0);
            head_ = std::exchange(o.head_, 0);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    ~Fifo() { release(); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Slots allocated: the high-water depth rounded up to a power of
     * two (0 before the first push). */
    std::size_t capacity() const { return cap_; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf_[slot(i)]; }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow();
        ::new (static_cast<void *>(buf_ + slot(size_))) T(std::move(v));
        ++size_;
    }

    /** Remove and destroy the front element. */
    void
    pop_front()
    {
        JETSIM_ASSERT(size_ > 0);
        buf_[head_].~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Remove the @p at-th element, keeping the others in order. */
    void
    erase(std::size_t at)
    {
        JETSIM_ASSERT(at < size_);
        for (std::size_t i = at; i > 0; --i)
            (*this)[i] = std::move((*this)[i - 1]);
        pop_front();
    }

    /** Destroy every element; the capacity stays. */
    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

  private:
    std::size_t slot(std::size_t i) const
    {
        return (head_ + i) & (cap_ - 1);
    }

    /** Double the ring, unwrapping the elements to the front. */
    JETSIM_COLD_OK("grow-only: capacity reaches the high-water depth, then never allocates")
    void
    grow()
    {
        const std::size_t cap = cap_ ? 2 * cap_ : 4;
        T *buf = std::allocator<T>().allocate(cap);
        for (std::size_t i = 0; i < size_; ++i) {
            T &old = (*this)[i];
            ::new (static_cast<void *>(buf + i)) T(std::move(old));
            old.~T();
        }
        if (buf_)
            std::allocator<T>().deallocate(buf_, cap_);
        buf_ = buf;
        cap_ = cap;
        head_ = 0;
    }

    void
    release()
    {
        clear();
        if (buf_)
            std::allocator<T>().deallocate(buf_, cap_);
        buf_ = nullptr;
        cap_ = 0;
    }

    T *buf_ = nullptr;
    std::size_t cap_ = 0;  ///< 0 or a power of two
    std::size_t head_ = 0; ///< slot of the front element
    std::size_t size_ = 0;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_FIFO_HH
