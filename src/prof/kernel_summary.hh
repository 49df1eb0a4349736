/**
 * @file
 * Per-kernel summary statistics — the "CUDA GPU kernel summary" view
 * Nsight Systems produces, aggregated over a run.
 *
 * Attach to a GPU engine (or feed records manually), then query the
 * per-kernel table: invocation counts, total/average residency,
 * share of GPU time, and the dominant bound (compute / memory /
 * latency) inferred from the cost-model counters.
 */

#ifndef JETSIM_PROF_KERNEL_SUMMARY_HH
#define JETSIM_PROF_KERNEL_SUMMARY_HH

#include <map>
#include <string>
#include <vector>

#include "gpu/engine.hh"

namespace jetsim::prof {

/** What limits a kernel's execution time. */
enum class KernelBound { Compute, Memory, Latency };

const char *boundName(KernelBound b);

/** Aggregated statistics for one kernel (by name). */
struct KernelStats
{
    std::string name;
    std::uint64_t calls = 0;
    double total_us = 0;
    double avg_us() const
    {
        return calls ? total_us / static_cast<double>(calls) : 0.0;
    }
    double share_pct = 0; ///< of total GPU busy time in the capture
    double avg_compute_frac = 0;
    double avg_tc_util = 0;
    KernelBound bound = KernelBound::Latency;
};

/**
 * Collects KernelRecords and produces the summary table: one row per
 * kernel name, so descriptors of one name (one layer in several
 * engines) share a row.
 */
class KernelSummary
{
  public:
    explicit KernelSummary(gpu::GpuEngine &engine);

    /** Immovable: the subscription's callback captures `this`. */
    KernelSummary(const KernelSummary &) = delete;
    KernelSummary &operator=(const KernelSummary &) = delete;

    /** Subscribe to the engine's kernel records, beside any other
     * subscriber, until destruction. */
    void attach();

    /** Feed one record manually (e.g. from a replayed trace). */
    void record(const gpu::KernelRecord &rec);

    void clear();

    std::uint64_t totalCalls() const { return total_calls_; }

    /**
     * The summary rows, heaviest first (by total residency).
     * @param top keep only the first N rows (0 = all)
     */
    std::vector<KernelStats> table(std::size_t top = 0) const;

  private:
    struct Acc
    {
        std::uint64_t calls = 0;
        double total_us = 0;
        double compute_frac_sum = 0;
        double tc_util_sum = 0;
        double floor_frac_sum = 0;
    };

    gpu::GpuEngine &engine_;
    gpu::GpuEngine::Subscription sub_;
    /** One accumulator per kernel name: a record allocates only on
     * its name's first record. */
    std::map<std::string, Acc> by_name_;
    std::uint64_t total_calls_ = 0;
    double total_us_ = 0;
};

} // namespace jetsim::prof

#endif // JETSIM_PROF_KERNEL_SUMMARY_HH
