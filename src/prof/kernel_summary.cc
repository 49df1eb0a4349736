#include "prof/kernel_summary.hh"

#include <algorithm>

#include "core/hot_annotations.hh"

namespace jetsim::prof {

const char *
boundName(KernelBound b)
{
    switch (b) {
      case KernelBound::Compute: return "compute";
      case KernelBound::Memory: return "memory";
      case KernelBound::Latency: return "latency";
    }
    return "?";
}

KernelSummary::KernelSummary(gpu::GpuEngine &engine) : engine_(engine)
{
}

void
KernelSummary::attach()
{
    if (sub_)
        return;
    sub_ = engine_.subscribe(
        [this](const gpu::KernelRecord &rec) { record(rec); });
}

JETSIM_HOT void
KernelSummary::record(const gpu::KernelRecord &rec)
{
    const double us = sim::toUsec(rec.end - rec.start);
    auto row = by_name_.find(rec.desc->name);
    if (row == by_name_.end())
        JETSIM_COLD_OK("a kernel name's first record only: adds its row, which every later record of that name finds")
        row = by_name_.emplace(rec.desc->name, Acc{}).first;
    Acc &acc = row->second;
    ++acc.calls;
    acc.total_us += us;
    acc.compute_frac_sum += rec.timing.compute_frac;
    acc.tc_util_sum += rec.timing.tc_util;
    // Latency-bound proxy: neither compute nor bandwidth dominated.
    const bool floored = rec.timing.compute_frac < 0.5 &&
                         rec.timing.bw_util < 0.5;
    acc.floor_frac_sum += floored ? 1.0 : 0.0;
    ++total_calls_;
    total_us_ += us;
}

void
KernelSummary::clear()
{
    by_name_.clear();
    total_calls_ = 0;
    total_us_ = 0;
}

std::vector<KernelStats>
KernelSummary::table(std::size_t top) const
{
    std::vector<KernelStats> rows;
    rows.reserve(by_name_.size());
    for (const auto &[name, acc] : by_name_) {
        KernelStats s;
        s.name = name;
        s.calls = acc.calls;
        s.total_us = acc.total_us;
        s.share_pct =
            total_us_ > 0 ? 100.0 * acc.total_us / total_us_ : 0.0;
        const double n = static_cast<double>(acc.calls);
        s.avg_compute_frac = acc.compute_frac_sum / n;
        s.avg_tc_util = acc.tc_util_sum / n;
        const double floor_frac = acc.floor_frac_sum / n;
        if (floor_frac > 0.5)
            s.bound = KernelBound::Latency;
        else if (s.avg_compute_frac > 0.5)
            s.bound = KernelBound::Compute;
        else
            s.bound = KernelBound::Memory;
        rows.push_back(std::move(s));
    }
    // Heaviest first; equal totals keep by_name_'s name order.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const KernelStats &a, const KernelStats &b) {
                         return a.total_us > b.total_us;
                     });
    if (top > 0 && rows.size() > top)
        rows.resize(top);
    return rows;
}

} // namespace jetsim::prof
