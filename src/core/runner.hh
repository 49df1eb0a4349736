/**
 * @file
 * Deterministic parallel experiment runner.
 *
 * The paper's evaluation is a grid — device x model x precision x
 * batch x processes — and every cell is an independent, fully
 * isolated simulation: its own sim::EventQueue, its own Rng derived
 * only from spec.seed. That makes the grid embarrassingly parallel,
 * *provided* nothing global leaks between cells. Runner executes a
 * batch of cells on a thread pool whose workers take the next cell
 * from one atomic cursor, last cell first, and returns results in
 * submission order; the determinism contract (proven by
 * tests/core/runner_test.cc and the tools/simcheck replay) is that
 * every result is bit-identical to a serial run of the same spec.
 *
 * Thread count resolution: Options::threads > 0 wins; 0 means auto —
 * the JETSIM_THREADS environment variable if set, else the hardware
 * concurrency. threads=1 is the preserved serial path (no pool, no
 * extra threads, progress fired as each cell starts, exactly the old
 * core::sweep* behaviour).
 *
 * Caching: when a cache directory is configured (Options::cache_dir,
 * or the JETSIM_CACHE_DIR environment variable), cells are served
 * from the content-addressed ResultCache when their spec digest hits,
 * and stored after a miss runs. Because results are bit-reproducible
 * a hit is indistinguishable from a re-run.
 *
 * Both environment variables are read through the core::env()
 * snapshot (DESIGN.md 4h): captured once at first use, immutable
 * after, so worker threads never touch mt-unsafe libc. A setenv()
 * after the first env() call is invisible until the
 * core::reloadEnv() test hook runs at a quiescent point.
 *
 * Progress callbacks are delivered serialized (never concurrently)
 * and in submission order; with threads > 1 a cell's callback fires
 * when the cell retires rather than when it starts.
 */

#ifndef JETSIM_CORE_RUNNER_HH
#define JETSIM_CORE_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace jetsim::core {

class ResultCache;

/** Optional progress callback (label of a grid cell). */
using ProgressFn = std::function<void(const std::string &)>;

/** Cache traffic observed by one Runner. */
struct RunnerCacheStats
{
    std::uint64_t hits = 0;   ///< cells served from the cache
    std::uint64_t misses = 0; ///< cells simulated
    std::uint64_t stores = 0; ///< results written back
};

/** Parallel executor for batches of experiment cells. */
class Runner
{
  public:
    struct Options
    {
        /** Worker threads; 0 = auto (JETSIM_THREADS, else hardware
         * concurrency), 1 = serial in-caller execution. */
        int threads = 0;

        /** Result-cache directory; empty = JETSIM_CACHE_DIR if set,
         * else caching disabled. */
        std::string cache_dir;

        /** Set false to ignore JETSIM_CACHE_DIR when cache_dir is
         * empty — for callers (e.g. the simcheck replay harness)
         * whose correctness depends on cells actually re-running. */
        bool env_cache = true;
    };

    /** Auto threads, env-driven cache (see Options defaults). */
    Runner();

    explicit Runner(Options opts);

    /** Convenience: Runner(4), Runner(2, dir). */
    explicit Runner(int threads, std::string cache_dir = "",
                    bool env_cache = true)
        : Runner(Options{threads, std::move(cache_dir), env_cache})
    {
    }
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Run every spec; results in submission order. */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs,
        const ProgressFn &progress = nullptr);

    /** Resolved worker count this runner uses. */
    int threads() const { return threads_; }

    bool cacheEnabled() const { return cache_ != nullptr; }

    /** Cumulative cache traffic across run() calls. */
    RunnerCacheStats cacheStats() const;

    /**
     * Thread-count resolution used by Options{threads=0}: positive
     * @p requested wins, else JETSIM_THREADS, else the hardware
     * concurrency (minimum 1).
     */
    static int resolveThreads(int requested);

  private:
    int threads_;
    std::unique_ptr<ResultCache> cache_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stores_{0};
};

} // namespace jetsim::core

#endif // JETSIM_CORE_RUNNER_HH
