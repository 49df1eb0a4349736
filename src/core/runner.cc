#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>

#include "core/env.hh"
#include "core/mutex.hh"
#include "core/profiler.hh"
#include "core/result_cache.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace jetsim::core {

namespace {

/**
 * Serialized, submission-ordered delivery of progress callbacks:
 * workers retire cells in any order; announcements drain strictly
 * in index order once every earlier cell has retired.
 */
class OrderedProgress
{
  public:
    OrderedProgress(std::size_t n, const ProgressFn &fn) : done_(n, 0), fn_(fn) {}

    void retire(std::size_t index,
                const std::vector<ExperimentSpec> &specs)
    {
        if (!fn_)
            return;
        LockGuard lock(m_);
        done_[index] = 1;
        while (next_ < done_.size() && done_[next_]) {
            fn_(specs[next_].label());
            ++next_;
        }
    }

  private:
    Mutex m_;
    std::vector<char> done_ JETSIM_GUARDED_BY(m_);
    std::size_t next_ JETSIM_GUARDED_BY(m_) = 0;
    const ProgressFn &fn_;
};

} // namespace

int
Runner::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    // Worker-count config from the cached startup environment
    // (core::env()); thread count never affects results.
    if (const std::string &ts = env().threads; !ts.empty()) {
        const auto v = sim::parseNumber<int>(ts);
        if (v && *v > 0)
            return *v;
        sim::warn("JETSIM_THREADS='%s' is not a positive integer; "
                  "using hardware concurrency", ts.c_str());
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

Runner::Runner() : Runner(Options{}) {}

Runner::Runner(Options opts) : threads_(resolveThreads(opts.threads))
{
    const std::string dir = !opts.cache_dir.empty()
                                ? opts.cache_dir
                                : (opts.env_cache ? env().cache_dir : "");
    if (!dir.empty())
        cache_ = std::make_unique<ResultCache>(dir);
}

Runner::~Runner() = default;

RunnerCacheStats
Runner::cacheStats() const
{
    RunnerCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    return s;
}

std::vector<ExperimentResult>
Runner::run(const std::vector<ExperimentSpec> &specs,
            const ProgressFn &progress)
{
    std::vector<ExperimentResult> results(specs.size());
    if (specs.empty())
        return results;

    auto execute = [&](std::size_t i) {
        const ExperimentSpec &spec = specs[i];
        if (cache_) {
            if (auto cached = cache_->load(spec)) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                results[i] = std::move(*cached);
                return;
            }
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        results[i] = runExperiment(spec);
        if (cache_) {
            cache_->store(results[i]);
            stores_.fetch_add(1, std::memory_order_relaxed);
        }
    };

    // Serial path: no pool, and progress fires as a cell *starts*,
    // matching the historical core::sweep* behaviour exactly.
    if (threads_ <= 1 || specs.size() == 1) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (progress)
                progress(specs[i].label());
            execute(i);
        }
        return results;
    }

    const std::size_t workers =
        std::min(static_cast<std::size_t>(threads_), specs.size());
    // One shared cursor hands out cells from the end of the batch.
    // That is not longest-first for every grid: the paper grid's
    // longest cells sit near its start. A cell is a whole simulation,
    // so one atomic decrement per cell is all the scheduling the pool
    // needs.
    std::atomic<std::ptrdiff_t> next{
        static_cast<std::ptrdiff_t>(specs.size()) - 1};
    OrderedProgress announcer(specs.size(), progress);

    auto worker = [&] {
        for (std::ptrdiff_t i = next.fetch_sub(1, std::memory_order_relaxed);
             i >= 0; i = next.fetch_sub(1, std::memory_order_relaxed))
        {
            const auto cell = static_cast<std::size_t>(i);
            execute(cell);
            announcer.retire(cell, specs);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
    return results;
}

} // namespace jetsim::core
