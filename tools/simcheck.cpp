/**
 * @file
 * simcheck: the JetSan replay harness.
 *
 * Runs one experiment spec several times from scratch and compares
 * the bit-exact result digests — the executable form of the
 * determinism invariant (same seed ⇒ identical prof metrics). Any
 * divergence is reported as a JetSan determinism violation and the
 * tool exits non-zero, making it suitable as a CI gate
 * (tools/ci.sh runs it after the sanitized test pass).
 *
 * Before the replays it also checks the plan round trip: the spec's
 * engine is serialized, deserialized and "run" through the kernel
 * cost model at every DVFS level with a seeded jitter source; the
 * plan text and the timing digest must be bit-identical on both
 * sides, so a plan file can be built once and deployed many times
 * without drift. The built engine's kernels carry statics blocks and
 * the restored ones do not, so this also holds the cost model's two
 * paths to the same bits.
 *
 *   simcheck --model=yolov8n --precision=int8 --procs=2 --runs=3
 *   simcheck --seeds=1,2,3        # distinct seeds must all differ? no:
 *                                 # each seed is replayed --runs times
 *
 * With --mc-replay=<file> it instead replays a jetmc counterexample:
 * the embedded configuration and choice script are reconstructed and
 * the recorded failure must reproduce exactly. This keeps the
 * model-checker honest — a CE that does not replay is a jetmc bug.
 *
 * With --fleet-replay=<file> it re-runs a fleet spec dumped by the
 * sharded differential battery (tests/sim/sharded_diff_test.cc):
 * serial and sharded digests must be bit-identical, making a fuzzer
 * failure reproducible from a single JSON replay file.
 *
 * A replay or counterexample file that is unreadable, malformed or
 * out of range is a user error: exit 1 with the file and the field.
 *
 * With --fleet-golden=<path> it runs the committed fleet golden
 * suite (including a 256-board hierarchical config): sharded digests
 * at shards 1, 4 and 16 must equal the serial digests recorded in the
 * file (CI pass 1c); --update regenerates it.
 *
 * With --fleet-scaling=<ratio> it times a 1000-board hierarchical
 * fleet at 16 shards on 4 threads against 1 thread and requires
 * <ratio>x (and, as always, identical digests), while a serial-bound
 * control — the same fleet at 2 shards — must stay below <ratio>x.
 * When the process may run on fewer than 4 CPUs (its affinity mask,
 * e.g. under taskset, not the machine's core count) the comparison
 * is meaningless — the gate prints the skip reason with both counts
 * (also in --json) and passes.
 *
 * With --fleet-overhead=<ratio> it times a hierarchical fleet at
 * shards=8 on ONE thread against shards=1: pure clock-protocol
 * overhead, no parallelism to hide behind. The sharded run must keep
 * >= <ratio>x of the serial event rate (CI pass 1c gates at 0.75).
 * Unlike --fleet-scaling this holds on any host, 1 core included.
 *
 * Both print the sharded run's epoch count (rises of its slowest
 * shard's clock) and events per epoch.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "argparse.hh"
#include "check/digest.hh"
#include "check/reporter.hh"
#include "core/digest.hh"
#include "core/fleet.hh"
#include "core/profiler.hh"
#include "core/runner.hh"
#include "gpu/cost_model.hh"
#include "mc/ce.hh"
#include "models/zoo.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "soc/dvfs.hh"
#include "trt/builder.hh"

using namespace jetsim;

namespace {

std::vector<std::uint64_t>
parseSeeds(const std::string &csv)
{
    std::vector<std::uint64_t> seeds;
    std::string cur;
    for (const char c : csv + ",") {
        if (c == ',') {
            if (!cur.empty()) {
                const auto seed = sim::parseNumber<std::uint64_t>(cur);
                if (!seed)
                    sim::fatal("simcheck: --seeds: '%s' is not an "
                               "unsigned 64-bit integer",
                               cur.c_str());
                seeds.push_back(*seed);
            }
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (seeds.empty())
        sim::fatal("simcheck: --seeds: no seeds given");
    return seeds;
}

/** Digest of a dry run: every kernel through the cost model at each
 * DVFS level's frequency fraction (as the governor computes it), the
 * jitter drawn from one source seeded with @p seed. */
std::uint64_t
dryRunDigest(const trt::Engine &e, const soc::DeviceSpec &spec,
             std::uint64_t seed)
{
    const gpu::KernelCostModel cost(spec);
    sim::Rng rng(seed);
    check::Digest d;
    for (int level = 0; level < spec.gpu.dvfs_levels; ++level) {
        const double f = soc::DvfsGovernor::levelFreqFrac(spec.gpu, level);
        for (const auto &k : e.kernels()) {
            const auto t = cost.timing(k, f, &rng);
            d.add(k.name);
            d.add(static_cast<std::int64_t>(t.duration));
            d.add(t.sm_active);
            d.add(t.issue_slot);
            d.add(t.tc_util);
            d.add(t.bw_util);
            d.add(t.compute_frac);
        }
    }
    return d.value();
}

/**
 * serialize → deserialize → run must be invisible: identical plan
 * text on re-serialization and an identical dry-run timing digest.
 * Returns false (and reports Determinism violations) on divergence.
 */
bool
planRoundTripCheck(const core::ExperimentSpec &spec)
{
    const auto dev = soc::deviceByName(spec.device);
    trt::Builder builder(dev);
    trt::BuilderConfig cfg;
    cfg.precision = spec.precision;
    cfg.batch = spec.batch;
    const auto built =
        builder.build(models::modelByName(spec.model), cfg);

    const auto plan = built.serialize();
    std::string err;
    const auto restored = trt::Engine::deserialize(plan, err);
    auto &rep = check::Reporter::instance();
    if (!restored) {
        rep.report(check::Severity::Error,
                   check::Invariant::Determinism, "tools.simcheck",
                   check::kTimeUnknown, "%s plan does not decode: %s",
                   spec.model.c_str(), err.c_str());
        std::printf("plan round trip: DIVERGED (%s)\n", err.c_str());
        return false;
    }

    bool ok = true;
    if (restored->serialize() != plan) {
        ok = false;
        rep.report(check::Severity::Error,
                   check::Invariant::Determinism, "tools.simcheck",
                   check::kTimeUnknown,
                   "%s plan text not stable across a "
                   "serialize/deserialize round trip",
                   spec.model.c_str());
    }

    const auto before = dryRunDigest(built, dev, spec.seed);
    const auto after = dryRunDigest(*restored, dev, spec.seed);
    if (before != after) {
        ok = false;
        rep.report(check::Severity::Error,
                   check::Invariant::Determinism, "tools.simcheck",
                   check::kTimeUnknown,
                   "%s dry-run digest %016llx != %016llx after plan "
                   "round trip",
                   spec.model.c_str(),
                   static_cast<unsigned long long>(before),
                   static_cast<unsigned long long>(after));
    }

    std::printf("plan round trip: %s (digest %016llx, %zu kernels)\n",
                ok ? "ok" : "DIVERGED",
                static_cast<unsigned long long>(before),
                built.kernels().size());
    return ok;
}

/**
 * Replay a jetmc counterexample file: reconstruct the model from the
 * embedded config, run the recorded choice script and require the
 * recorded failure kind to reproduce.
 */
int
mcReplay(const std::string &path)
{
    mc::CounterExample ce;
    std::string err;
    if (!mc::readCe(path, ce, err)) {
        std::fprintf(stderr, "simcheck: %s\n", err.c_str());
        return 1;
    }
    std::printf("mc-replay: model %s, failure '%s', %zu choices\n",
                ce.model.c_str(), ce.what.c_str(), ce.script.size());
    if (!ce.detail.empty())
        std::printf("mc-replay: recorded diagnosis: %s\n",
                    ce.detail.c_str());
    const std::string diag = mc::replayCe(ce);
    if (!diag.empty()) {
        std::fprintf(stderr,
                     "simcheck: counterexample did NOT reproduce: "
                     "%s\n",
                     diag.c_str());
        return 1;
    }
    std::printf("simcheck: counterexample reproduces the recorded "
                "'%s' failure\n",
                ce.what.c_str());
    return 0;
}

/**
 * Re-run a replay spec dumped by the differential battery: the serial
 * digest, the file's sharded configuration, and a repeat of the
 * sharded run must all agree bit for bit.
 */
int
fleetReplay(const std::string &path)
{
    core::FleetSpec spec;
    core::FleetOptions opts;
    std::string err;
    if (!core::readFleetReplay(path, spec, opts, err)) {
        std::fprintf(stderr, "simcheck: %s\n", err.c_str());
        return 1;
    }
    std::printf("fleet-replay: %s\n", spec.label().c_str());
    std::printf("fleet-replay: shards=%d threads=%d lookahead=%lld\n",
                opts.shards, opts.threads,
                static_cast<long long>(opts.lookahead));

    const auto serial =
        core::resultDigest(core::runFleet(spec, {}));
    const auto sharded =
        core::resultDigest(core::runFleet(spec, opts));
    const auto again =
        core::resultDigest(core::runFleet(spec, opts));

    std::printf("fleet-replay: serial %016llx, sharded %016llx, "
                "repeat %016llx\n",
                static_cast<unsigned long long>(serial),
                static_cast<unsigned long long>(sharded),
                static_cast<unsigned long long>(again));
    if (serial != sharded || sharded != again) {
        std::fprintf(stderr,
                     "simcheck: fleet replay DIVERGED "
                     "(serial-vs-sharded: %s, repeat: %s)\n",
                     serial == sharded ? "ok" : "MISMATCH",
                     sharded == again ? "ok" : "MISMATCH");
        return 1;
    }
    std::printf("simcheck: fleet replay bit-identical across serial, "
                "sharded and repeated runs\n");
    return 0;
}

/** The committed golden suite: small, fast, covers both boards, a
 * heterogeneous mix and local+balancer traffic. Append-only — edits
 * here invalidate GOLDEN_fleet.json (regenerate with --update). */
std::vector<core::FleetSpec>
goldenSuite()
{
    std::vector<core::FleetSpec> suite;
    {
        core::FleetSpec s;
        for (int d = 0; d < 4; ++d)
            s.devices.push_back(
                {"orin-nano", "resnet50", soc::Precision::Int8, 1, 0.0});
        s.balancer_rate = 300.0;
        s.warmup = sim::msec(15);
        s.duration = sim::msec(120);
        s.seed = 7;
        suite.push_back(std::move(s));
    }
    {
        core::FleetSpec s;
        for (int d = 0; d < 4; ++d)
            s.devices.push_back(
                {"nano", "resnet18", soc::Precision::Int8, 1, 0.0});
        s.balancer_rate = 200.0;
        s.warmup = sim::msec(15);
        s.duration = sim::msec(120);
        s.seed = 11;
        suite.push_back(std::move(s));
    }
    {
        core::FleetSpec s;
        s.devices.push_back(
            {"orin-nano", "yolov8n", soc::Precision::Fp16, 2, 40.0});
        s.devices.push_back(
            {"nano", "mobilenet_v2", soc::Precision::Fp16, 1, 0.0});
        s.devices.push_back(
            {"orin-nano", "resnet50", soc::Precision::Int8, 1, 0.0});
        s.devices.push_back(
            {"nano", "resnet18", soc::Precision::Int8, 1, 25.0});
        s.balancer_rate = 150.0;
        s.warmup = sim::msec(15);
        s.duration = sim::msec(120);
        s.seed = 13;
        suite.push_back(std::move(s));
    }
    {
        // Hierarchical wide fleet: 256 boards through the two-hop
        // root -> sub-balancer dispatch, wide enough that the
        // balancer-reserved shard map actually reserves shard 0 at
        // every matrix point.
        core::FleetSpec s;
        for (int d = 0; d < 256; ++d)
            s.devices.push_back({"orin-nano", "mobilenet_v2",
                                 soc::Precision::Int8, 1, 0.0});
        s.balancer_rate = 25.0 * 256;
        s.hierarchical = true;
        s.warmup = sim::msec(4);
        s.duration = sim::msec(30);
        s.seed = 23;
        suite.push_back(std::move(s));
    }
    return suite;
}

/** Minimal scanner for the golden file's flat JSON:
 * "label": "...", "digest": "...". */
std::map<std::string, std::string>
readGolden(const std::string &path, bool &ok)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    ok = static_cast<bool>(in);
    if (!ok)
        return out;
    std::string line, label;
    while (std::getline(in, line)) {
        const auto grab = [&line](const char *key) -> std::string {
            const auto k = line.find(key);
            if (k == std::string::npos)
                return "";
            const auto q1 = line.find('"', k + std::strlen(key));
            const auto q2 = line.find('"', q1 + 1);
            if (q1 == std::string::npos || q2 == std::string::npos)
                return "";
            return line.substr(q1 + 1, q2 - q1 - 1);
        };
        const auto l = grab("\"label\":");
        if (!l.empty())
            label = l;
        const auto d = grab("\"digest\":");
        if (!d.empty() && !label.empty()) {
            out[label] = d;
            label.clear();
        }
    }
    return out;
}

int
fleetGolden(const std::string &path, bool update)
{
    const auto suite = goldenSuite();
    char hex[32];

    if (update) {
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "simcheck: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        out << "{\n  \"fleet_goldens\": [\n";
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const auto digest =
                core::resultDigest(core::runFleet(suite[i], {}));
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(digest));
            out << "    {\"label\": \"" << suite[i].label()
                << "\", \"digest\": \"" << hex << "\"}"
                << (i + 1 < suite.size() ? "," : "") << "\n";
            std::printf("golden: %s -> %s\n",
                        suite[i].label().c_str(), hex);
        }
        out << "  ]\n}\n";
        std::printf("simcheck: wrote %zu fleet goldens to %s\n",
                    suite.size(), path.c_str());
        return 0;
    }

    bool opened = false;
    const auto committed = readGolden(path, opened);
    if (!opened) {
        std::fprintf(stderr, "simcheck: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    int failures = 0;
    for (const auto &spec : suite) {
        const auto it = committed.find(spec.label());
        if (it == committed.end()) {
            std::fprintf(stderr,
                         "simcheck: no committed digest for '%s' "
                         "(regenerate with --update)\n",
                         spec.label().c_str());
            ++failures;
            continue;
        }
        bool cell_ok = true;
        for (const int shards : {1, 4, 16}) {
            core::FleetOptions o;
            o.shards = shards;
            o.threads = shards > 1 ? 2 : 1;
            const auto digest =
                core::resultDigest(core::runFleet(spec, o));
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(digest));
            if (it->second != hex) {
                cell_ok = false;
                std::fprintf(stderr,
                             "simcheck: '%s' shards=%d digest %s != "
                             "committed %s\n",
                             spec.label().c_str(), shards, hex,
                             it->second.c_str());
            }
        }
        std::printf("golden: %s [shards 1,4,16] %s\n",
                    spec.label().c_str(),
                    cell_ok ? "ok" : "DIVERGED");
        if (!cell_ok)
            ++failures;
    }
    if (failures) {
        std::fprintf(stderr,
                     "simcheck: %d fleet golden(s) diverged\n",
                     failures);
        return 1;
    }
    std::printf("simcheck: all %zu fleet goldens bit-identical at "
                "shards 1, 4 and 16\n",
                suite.size());
    return 0;
}

/** CPUs this process may run on: its affinity mask, or the host's
 * core count when the mask cannot be read. */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

/** A sharded run's events per epoch (0 when it ran no epochs). */
double
eventsPerEpoch(const core::FleetResult &r)
{
    return r.epochs == 0 ? 0.0
                         : static_cast<double>(r.events) /
                               static_cast<double>(r.epochs);
}

/**
 * Scaling gate for CI pass 1c, on the perfbench fleet_1000 shape: a
 * 1000-board hierarchical fleet at 16 shards, timed on 4 threads
 * against 1 thread. The shard count is the same on both sides, so the
 * ratio measures the clock loop's parallel efficiency, not heap
 * sizes. A serial-bound control — the same fleet at 2 shards, the
 * root plus one device shard — must come in *below* the ratio, or the
 * ratio cannot tell parallel work from serial work. Digests are
 * compared always; the timing only when >= 4 CPUs are usable.
 */
int
fleetScaling(double min_ratio, bool json)
{
    const unsigned cores = std::thread::hardware_concurrency();
    const int usable = usableCpus();
    const bool skipped = usable < 4;

    const core::FleetDevice pairs[] = {
        {"orin-nano", "mobilenet_v2", soc::Precision::Int8, 1, 0.0},
        {"orin-nano", "resnet18", soc::Precision::Int8, 1, 0.0},
        {"orin-nano", "resnet50", soc::Precision::Int8, 1, 0.0},
        {"nano", "mobilenet_v2", soc::Precision::Fp16, 1, 0.0},
    };
    core::FleetSpec spec;
    for (int d = 0; d < 1000; ++d)
        spec.devices.push_back(pairs[d % 4]);
    spec.balancer_rate = 25.0 * 1000;
    spec.hierarchical = true;
    spec.warmup = sim::msec(100);
    spec.duration = sim::msec(400);
    spec.seed = 21;

    using clock = std::chrono::steady_clock;
    bool digest_match = true;
    std::uint64_t want = 0;
    core::FleetResult parallel; // the 16-shard, 4-thread run
    // One timed run; its digest must equal the first run's.
    const auto timed = [&](int shards, int threads) {
        core::FleetOptions o;
        o.shards = shards;
        o.threads = threads;
        const auto t0 = clock::now();
        auto res = core::runFleet(spec, o);
        const double s =
            std::chrono::duration<double>(clock::now() - t0).count();
        const auto dg = core::resultDigest(res);
        if (want == 0)
            want = dg;
        digest_match = digest_match && dg == want;
        if (shards == 16 && threads == 4)
            parallel = std::move(res);
        return s;
    };
    // Best of kReps interleaved rounds, so a burst of host load
    // cannot land on every run of one configuration. Skipped: one
    // run of the main pair, for the digests only.
    constexpr int kReps = 3;
    double one_s = 1e300, four_s = 1e300;
    double ctl_one_s = 1e300, ctl_four_s = 1e300;
    for (int r = 0; r < (skipped ? 1 : kReps); ++r) {
        one_s = std::min(one_s, timed(16, 1));
        four_s = std::min(four_s, timed(16, 4));
        if (skipped)
            continue;
        ctl_one_s = std::min(ctl_one_s, timed(2, 1));
        ctl_four_s = std::min(ctl_four_s, timed(2, 4));
    }
    if (skipped)
        ctl_one_s = ctl_four_s = 0.0;
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    const double speedup = ratio(one_s, four_s);
    const double control = ratio(ctl_one_s, ctl_four_s);

    char skip_reason[128] = "";
    if (skipped)
        std::snprintf(skip_reason, sizeof(skip_reason),
                      "process may use %d of %u CPU(s), fewer than "
                      "4: the comparison would measure contention, "
                      "not scaling",
                      usable, cores);
    const bool fast_enough = skipped || speedup >= min_ratio;
    const bool control_below = skipped || control < min_ratio;
    const bool pass = digest_match && fast_enough && control_below;
    if (json) {
        std::printf("{\"check\": \"fleet-scaling\", "
                    "\"events\": %llu, \"cores\": %u, "
                    "\"usable_cpus\": %d, "
                    "\"threads1_s\": %.6f, \"threads4_s\": %.6f, "
                    "\"speedup\": %.3f, "
                    "\"control_threads1_s\": %.6f, "
                    "\"control_threads4_s\": %.6f, "
                    "\"control_speedup\": %.3f, \"gate\": %.2f, "
                    "\"epochs\": %llu, \"events_per_epoch\": %.1f, "
                    "\"digest_match\": %s, \"skipped\": %s, "
                    "\"skip_reason\": \"%s\", \"pass\": %s}\n",
                    static_cast<unsigned long long>(parallel.events),
                    cores, usable, one_s, four_s, speedup, ctl_one_s,
                    ctl_four_s, control, min_ratio,
                    static_cast<unsigned long long>(parallel.epochs),
                    eventsPerEpoch(parallel),
                    digest_match ? "true" : "false",
                    skipped ? "true" : "false", skip_reason,
                    pass ? "true" : "false");
        return pass ? 0 : 1;
    }
    if (!digest_match) {
        std::fprintf(stderr, "simcheck: scaling fleet DIVERGED "
                             "across shard and thread counts\n");
        return 1;
    }
    std::printf("fleet-scaling: %llu events over 1000 boards at 16 "
                "shards; 1 thread %.3fs, 4 threads %.3fs, speedup "
                "%.2fx; %llu epochs, %.1f events/epoch\n",
                static_cast<unsigned long long>(parallel.events),
                one_s, four_s, speedup,
                static_cast<unsigned long long>(parallel.epochs),
                eventsPerEpoch(parallel));
    if (skipped) {
        std::printf("simcheck: speedup gate skipped: %s (digest "
                    "still checked)\n",
                    skip_reason);
        return 0;
    }
    std::printf("fleet-scaling control: 2 shards; 1 thread %.3fs, 4 "
                "threads %.3fs, speedup %.2fx\n",
                ctl_one_s, ctl_four_s, control);
    if (!fast_enough) {
        std::fprintf(stderr,
                     "simcheck: sharded speedup %.2fx below the "
                     "%.2fx gate on %d usable CPU(s)\n",
                     speedup, min_ratio, usable);
        return 1;
    }
    if (!control_below) {
        std::fprintf(stderr,
                     "simcheck: the serial-bound control reached "
                     "%.2fx, not below the %.2fx gate: the ratio "
                     "cannot tell parallel work from serial work\n",
                     control, min_ratio);
        return 1;
    }
    std::printf("simcheck: sharded scaling gate passed (%.2fx >= "
                "%.2fx > control %.2fx on %d usable CPUs)\n",
                speedup, min_ratio, control, usable);
    return 0;
}

/**
 * Overhead gate for CI pass 1c: the clock protocol itself — slices,
 * horizons, message path — measured with parallelism taken away.
 * A 1000-board hierarchical fleet runs at shards=8 on ONE thread and
 * at shards=1; the ratio of event rates is pure per-slice/per-message
 * constant cost. Host-independent (no idle cores required), so unlike
 * --fleet-scaling this gate never self-skips. Digests are compared at
 * both points; the ratio is the max over @c kReps reps of the
 * per-rep min times (noise-robust on shared hosts).
 */
int
fleetOverhead(double min_ratio, bool json)
{
    core::FleetSpec spec;
    for (int d = 0; d < 1000; ++d)
        spec.devices.push_back({"orin-nano", "mobilenet_v2",
                                soc::Precision::Int8, 1, 0.0});
    spec.balancer_rate = 25.0 * 1000;
    spec.hierarchical = true;
    spec.warmup = sim::msec(4);
    spec.duration = sim::msec(30);
    spec.seed = 23;

    using clock = std::chrono::steady_clock;
    const auto timeOnce = [&spec](int shards, core::FleetResult &r) {
        core::FleetOptions o;
        o.shards = shards;
        o.threads = 1;
        const auto t0 = clock::now();
        r = core::runFleet(spec, o);
        const auto t1 = clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    constexpr int kReps = 3;
    double serial_s = 1e300, sharded_s = 1e300, ratio = 0.0;
    core::FleetResult serial, sharded;
    bool digest_match = true;
    for (int r = 0; r < kReps; ++r) {
        const double a = timeOnce(1, serial);
        const double b = timeOnce(8, sharded);
        digest_match = digest_match &&
                       core::resultDigest(serial) ==
                           core::resultDigest(sharded) &&
                       serial.events == sharded.events;
        serial_s = std::min(serial_s, a);
        sharded_s = std::min(sharded_s, b);
        if (b > 0.0)
            ratio = std::max(ratio, a / b);
    }
    const auto events = static_cast<unsigned long long>(serial.events);
    const auto epochs = static_cast<unsigned long long>(sharded.epochs);
    const bool gate_ok = digest_match && ratio >= min_ratio;
    if (json) {
        std::printf("{\"check\": \"fleet-overhead\", "
                    "\"events\": %llu, "
                    "\"serial_s\": %.6f, \"sharded1t_s\": %.6f, "
                    "\"ratio\": %.3f, \"gate\": %.2f, "
                    "\"epochs\": %llu, \"events_per_epoch\": %.1f, "
                    "\"digest_match\": %s, \"pass\": %s}\n",
                    events, serial_s, sharded_s, ratio, min_ratio,
                    epochs, eventsPerEpoch(sharded),
                    digest_match ? "true" : "false",
                    gate_ok ? "true" : "false");
        return gate_ok ? 0 : 1;
    }
    if (!digest_match) {
        std::fprintf(stderr, "simcheck: overhead fleet DIVERGED "
                             "(serial vs shards=8/threads=1)\n");
        return 1;
    }
    std::printf("fleet-overhead: %llu events over 1000 boards; "
                "serial %.3fs, shards=8/threads=1 %.3fs, "
                "ratio %.2fx; %llu epochs, %.1f events/epoch\n",
                events, serial_s, sharded_s, ratio, epochs,
                eventsPerEpoch(sharded));
    if (ratio < min_ratio) {
        std::fprintf(stderr,
                     "simcheck: single-thread sharded overhead "
                     "%.2fx below the %.2fx floor (clock protocol "
                     "constant costs regressed)\n",
                     ratio, min_ratio);
        return 1;
    }
    std::printf("simcheck: sharded overhead gate passed "
                "(%.2fx >= %.2fx)\n",
                ratio, min_ratio);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ArgParser args("simcheck",
                          "replay an experiment and verify bit-exact "
                          "determinism (JetSan)");
    args.add("device", "orin-nano", "orin-nano | nano | a40");
    args.add("model", "resnet50", "model name from the zoo");
    args.add("precision", "fp16", "fp32 | tf32 | fp16 | int8");
    args.add("batch", "1", "batch size");
    args.add("procs", "2", "concurrent processes");
    args.add("phase", "light", "light | deep");
    args.add("warmup", "100", "warm-up in ms");
    args.add("duration", "0.5", "measured window in s");
    args.add("runs", "2", "replays per seed (>= 2)");
    args.add("seeds", "1", "comma-separated seeds to replay");
    args.add("threads", "0",
             "replay worker threads (0 = auto / JETSIM_THREADS); "
             "replays run through core::Runner either way");
    args.add("mc-replay", "",
             "replay a jetmc counterexample file and verify the "
             "recorded failure reproduces");
    args.add("fleet-replay", "",
             "re-run a fleet replay spec (sharded differential "
             "battery dump) and verify serial == sharded");
    args.add("fleet-golden", "",
             "verify the committed fleet golden digests at shards "
             "1, 4 and 16 (CI pass 1c)");
    args.add("update", "0",
             "with --fleet-golden: regenerate the golden file from "
             "serial runs");
    args.add("fleet-scaling", "0",
             "scaling gate: require >= this 4-thread speedup on a "
             "1000-board fleet at 16 shards, and a 2-shard control "
             "below it, when >= 4 CPUs are usable (0 = off; digest "
             "always checked)");
    args.add("fleet-overhead", "0",
             "overhead gate: require shards=8/threads=1 to keep >= "
             "this fraction of the serial event rate on a 1000-board "
             "hierarchical fleet (0 = off; never self-skips)");
    args.add("json", "0",
             "with --fleet-scaling / --fleet-overhead: emit the "
             "verdict as one JSON object on stdout");
    if (!args.parse(argc, argv))
        return 2;

    if (!args.str("mc-replay").empty())
        return mcReplay(args.str("mc-replay"));
    if (!args.str("fleet-replay").empty())
        return fleetReplay(args.str("fleet-replay"));
    if (!args.str("fleet-golden").empty())
        return fleetGolden(args.str("fleet-golden"),
                           args.boolean("update"));
    const double scaling = args.dbl("fleet-scaling", 0);
    if (scaling > 0.0)
        return fleetScaling(scaling, args.boolean("json"));
    const double overhead = args.dbl("fleet-overhead", 0);
    if (overhead > 0.0)
        return fleetOverhead(overhead, args.boolean("json"));

    // Report-and-continue: this tool's job is to observe divergence,
    // not to abort on the first violation.
    check::Reporter::instance().setMode(check::Reporter::Mode::Log);

    core::ExperimentSpec spec;
    spec.device = args.choice("device", soc::deviceNames());
    spec.model = args.choice("model", models::allModelNames());
    spec.precision = args.enumval<soc::Precision>("precision");
    spec.batch = args.intval("batch", 1);
    spec.processes = args.intval("procs", 1);
    spec.phase = args.enumval<core::Phase>("phase");
    spec.warmup = sim::msec(args.intval("warmup", 0));
    // 1e9 s keeps every tick count far from int64 overflow.
    spec.duration = sim::sec(args.dbl("duration", 0, 1e9));

    const int runs = args.intval("runs", 2);
    const int threads = args.intval("threads", 0);
    const auto seeds = parseSeeds(args.str("seeds"));

    int failures = 0;
    if (!planRoundTripCheck(spec))
        ++failures;

    // The replays for one seed are identical specs, so running them
    // as a parallel Runner batch checks two invariants at once: the
    // simulator replays bit-identically, and the parallel path itself
    // introduces no divergence (cells race in wall time but must not
    // in simulated time). Never cache here — a cache hit would echo
    // run 0's result back instead of re-simulating.
    core::Runner runner(threads, "", /*env_cache=*/false);
    std::printf("replaying on %d worker thread(s)\n",
                runner.threads());
    for (const std::uint64_t seed : seeds) {
        spec.seed = seed;
        const std::vector<core::ExperimentSpec> batch(runs, spec);
        const auto results = runner.run(batch);
        std::uint64_t reference = 0;
        bool diverged = false;
        for (int i = 0; i < runs; ++i) {
            const auto digest = core::resultDigest(results[i]);
            if (i == 0) {
                reference = digest;
            } else if (digest != reference) {
                diverged = true;
                check::Reporter::instance().report(
                    check::Severity::Error,
                    check::Invariant::Determinism, "tools.simcheck",
                    check::kTimeUnknown,
                    "seed %llu run %d digest %016llx != reference "
                    "%016llx",
                    static_cast<unsigned long long>(seed), i,
                    static_cast<unsigned long long>(digest),
                    static_cast<unsigned long long>(reference));
            }
        }
        std::printf("seed %llu: %s (digest %016llx, %d runs)\n",
                    static_cast<unsigned long long>(seed),
                    diverged ? "DIVERGED" : "ok",
                    static_cast<unsigned long long>(reference), runs);
        if (diverged)
            ++failures;
    }

    if (failures) {
        std::fprintf(stderr,
                     "simcheck: %d of %zu checks failed to replay "
                     "bit-identically\n",
                     failures, seeds.size() + 1);
        return 1;
    }
    std::printf("simcheck: plan round trip and all %zu seed(s) "
                "replay bit-identically\n",
                seeds.size());
    return 0;
}
