#include "core/runner.hh"

#include <algorithm>
#include <deque>
#include <optional>
#include <thread>

#include "core/env.hh"
#include "core/mutex.hh"
#include "core/profiler.hh"
#include "core/result_cache.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace jetsim::core {

namespace {

/** Overload set so runBatch() stays a single template. */
ExperimentResult
executeSpec(const ExperimentSpec &spec)
{
    return runExperiment(spec);
}

MixedExperimentResult
executeSpec(const MixedExperimentSpec &spec)
{
    return runMixedExperiment(spec);
}

/**
 * One mutex-protected deque per worker. Each worker pops LIFO from
 * its own queue (warm caches) and steals FIFO from its victims'
 * queues when drained — the classic Chase-Lev discipline, with locks
 * instead of lock-free deques because a task here is a whole
 * simulation (seconds), so queue overhead is irrelevant.
 */
class StealPool
{
  public:
    StealPool(std::size_t workers, std::size_t tasks)
        : queues_(workers)
    {
        // Round-robin initial distribution keeps early, usually
        // cheaper cells (small batch, few processes) spread evenly.
        // Workers haven't spawned yet, but the fill still runs under
        // each queue's lock so the guarded-by contract holds in the
        // compiler's eyes too (uncontended lock: nanoseconds, once).
        for (std::size_t w = 0; w < workers; ++w) {
            LockGuard lock(queues_[w].m);
            for (std::size_t t = w; t < tasks; t += workers)
                queues_[w].tasks.push_back(t);
        }
    }

    /** Next task for @p worker, or nullopt when everything drained. */
    std::optional<std::size_t> next(std::size_t worker)
    {
        auto &own = queues_[worker];
        {
            LockGuard lock(own.m);
            if (!own.tasks.empty()) {
                const std::size_t t = own.tasks.back();
                own.tasks.pop_back();
                return t;
            }
        }
        // Each deque lock is taken and dropped in turn — never two at
        // once — so steals contribute no lock-order edges (jetrace's
        // graph over the pool is edge-free by construction).
        for (std::size_t i = 1; i < queues_.size(); ++i) {
            auto &victim = queues_[(worker + i) % queues_.size()];
            LockGuard lock(victim.m);
            if (!victim.tasks.empty()) {
                const std::size_t t = victim.tasks.front();
                victim.tasks.pop_front();
                return t;
            }
        }
        return std::nullopt;
    }

  private:
    struct Queue
    {
        Mutex m;
        std::deque<std::size_t> tasks JETSIM_GUARDED_BY(m);
    };

    std::deque<Queue> queues_; // deque: Queue is not movable
};

/**
 * Serialized, submission-ordered delivery of progress callbacks:
 * workers retire cells in any order; announcements drain strictly
 * in index order once every earlier cell has retired.
 */
class OrderedProgress
{
  public:
    OrderedProgress(std::size_t n, const ProgressFn &fn) : done_(n, 0), fn_(fn) {}

    template <typename Spec>
    void retire(std::size_t index, const std::vector<Spec> &specs)
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

template <typename Spec, typename Result>
std::vector<Result>
Runner::runBatch(const std::vector<Spec> &specs,
                 const ProgressFn &progress)
{
    std::vector<Result> results(specs.size());
    if (specs.empty())
        return results;

    auto execute = [&](std::size_t i) {
        const Spec &spec = specs[i];
        if (cache_) {
            if (auto cached = cache_->load(spec)) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                results[i] = std::move(*cached);
                return;
            }
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        results[i] = executeSpec(spec);
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
    StealPool pool(workers, specs.size());
    OrderedProgress announcer(specs.size(), progress);

    auto worker = [&](std::size_t w) {
        while (auto task = pool.next(w)) {
            execute(*task);
            announcer.retire(*task, specs);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back(worker, w);
    for (auto &t : threads)
        t.join();
    return results;
}

std::vector<ExperimentResult>
Runner::run(const std::vector<ExperimentSpec> &specs,
            const ProgressFn &progress)
{
    return runBatch<ExperimentSpec, ExperimentResult>(specs, progress);
}

std::vector<MixedExperimentResult>
Runner::runMixed(const std::vector<MixedExperimentSpec> &specs,
                 const ProgressFn &progress)
{
    return runBatch<MixedExperimentSpec, MixedExperimentResult>(
        specs, progress);
}

} // namespace jetsim::core
