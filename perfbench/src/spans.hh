/**
 * @file
 * The traced run's instruments: in-memory spans recorded around
 * public library calls, and heap-allocation counts from an
 * operator new hook compiled into this binary.
 *
 * Counting is off unless a traced run turns it on, so the untraced
 * run pays one relaxed atomic load per allocation.
 */

#ifndef JETBENCH_SPANS_HH
#define JETBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace jetbench {

/** @name Allocation counting
 * @{ */
void setAllocCounting(bool on);
/** Allocations on the calling thread while counting was on. */
std::uint64_t threadAllocs();
/** Allocations on every thread while counting was on. */
std::uint64_t totalAllocs();
/** @} */

/** Host microseconds since the first call in this process. */
double nowUs();

/** One closed span. Ids are unique within a SpanLog; parent 0 is the
 * root. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    double start_us = 0;
    double end_us = 0;
    std::uint64_t allocs = 0; ///< this thread's allocations inside
    int thread = 0;           ///< recording worker

    double ms() const { return (end_us - start_us) / 1000.0; }
};

/**
 * Spans of one thread. Nesting follows scope: a span's parent is the
 * innermost span still open when it began.
 */
class SpanLog
{
  public:
    explicit SpanLog(int thread = 0, std::uint32_t first_id = 1)
        : thread_(thread), next_id_(first_id)
    {
    }

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::size_t index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Append another thread's spans, re-parenting its roots under
     * @p parent. */
    void adopt(const SpanLog &other, std::uint32_t parent);

    /** Sum of the durations (ms) of every span named @p name. */
    double totalMs(const std::string &name) const;

    /** Id of the innermost open span (0 when none). */
    std::uint32_t current() const
    {
        return open_.empty() ? 0 : spans_[open_.back()].id;
    }

  private:
    int thread_;
    std::uint32_t next_id_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::vector<std::uint64_t> open_allocs_;
};

} // namespace jetbench

#endif // JETBENCH_SPANS_HH
