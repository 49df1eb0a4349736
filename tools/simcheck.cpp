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
 * engine is serialized, deserialized and "run" through the
 * deterministic kernel cost model; the plan text and the timing
 * digest must be bit-identical on both sides, so a plan file can be
 * built once and deployed many times without drift.
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
 * With --fleet-scaling=<ratio> it times a large fleet serially and at
 * shards=4/threads=4 and requires the parallel epoch path to clear
 * <ratio>x the serial event rate (and, as always, the identical
 * digest). On hosts with fewer than 4 cores the comparison is
 * meaningless — the gate prints the skip reason with the detected
 * core count (also in --json) and passes.
 *
 * With --fleet-overhead=<ratio> it times a hierarchical fleet at
 * shards=8 on ONE thread against shards=1: pure epoch-protocol
 * overhead, no parallelism to hide behind. The sharded run must keep
 * >= <ratio>x of the serial event rate (CI pass 1c gates at 0.75).
 * Unlike --fleet-scaling this holds on any host, 1 core included.
 */

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
#include "core/json.hh"
#include "core/profiler.hh"
#include "core/runner.hh"
#include "gpu/cost_model.hh"
#include "mc/ce.hh"
#include "models/zoo.hh"
#include "sim/logging.hh"
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
                const auto seed = core::parseNumber<std::uint64_t>(cur);
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

/** Digest of a deterministic dry run: every kernel through the cost
 * model at full frequency with the jitter source disabled. */
std::uint64_t
dryRunDigest(const trt::Engine &e, const soc::DeviceSpec &spec)
{
    const gpu::KernelCostModel cost(spec);
    check::Digest d;
    for (const auto &k : e.kernels()) {
        const auto t = cost.timing(k, 1.0, nullptr);
        d.add(k.name);
        d.add(static_cast<std::int64_t>(t.duration));
        d.add(t.sm_active);
        d.add(t.issue_slot);
        d.add(t.tc_util);
        d.add(t.bw_util);
        d.add(t.compute_frac);
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
    const auto restored = trt::Engine::deserialize(plan);
    auto &rep = check::Reporter::instance();

    bool ok = true;
    if (restored.serialize() != plan) {
        ok = false;
        rep.report(check::Severity::Error,
                   check::Invariant::Determinism, "tools.simcheck",
                   check::kTimeUnknown,
                   "%s plan text not stable across a "
                   "serialize/deserialize round trip",
                   spec.model.c_str());
    }

    const auto before = dryRunDigest(built, dev);
    const auto after = dryRunDigest(restored, dev);
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
            return 2;
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

/**
 * Scaling smoke for CI pass 1c: a fleet wide enough to keep four
 * shards busy, timed serial vs shards=4/threads=4. Gates on both the
 * digest (always) and the speedup (only on >= 4-core hosts).
 */
int
fleetScaling(double min_ratio, bool json)
{
    const unsigned cores = std::thread::hardware_concurrency();

    // Big enough that the serial run takes a schedulable slice of
    // wall-clock (~10^5 events): timing two sub-10ms runs would gate
    // on noise, not on the epoch path.
    core::FleetSpec spec;
    for (int d = 0; d < 8; ++d)
        spec.devices.push_back({d % 2 ? "nano" : "orin-nano",
                                d % 4 < 2 ? "resnet18" : "mobilenet_v2",
                                soc::Precision::Int8, 1, 120.0});
    spec.balancer_rate = 800.0;
    spec.warmup = sim::msec(20);
    spec.duration = sim::msec(2000);
    spec.seed = 21;

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const auto serial = core::runFleet(spec, {});
    const auto t1 = clock::now();
    core::FleetOptions o;
    o.shards = 4;
    o.threads = 4;
    const auto sharded = core::runFleet(spec, o);
    const auto t2 = clock::now();

    const bool digest_match =
        core::resultDigest(serial) == core::resultDigest(sharded);
    const auto secs = [](clock::duration d) {
        return std::chrono::duration<double>(d).count();
    };
    const double serial_s = secs(t1 - t0);
    const double sharded_s = secs(t2 - t1);
    const double speedup = sharded_s > 0.0 ? serial_s / sharded_s : 0.0;
    const bool skipped = cores < 4;
    char skip_reason[96] = "";
    if (skipped)
        std::snprintf(skip_reason, sizeof(skip_reason),
                      "host has %u core(s) < 4: the comparison would "
                      "measure contention, not scaling",
                      cores);
    const bool gate_ok = skipped || speedup >= min_ratio;
    if (json) {
        std::printf("{\"check\": \"fleet-scaling\", "
                    "\"events\": %llu, \"cores\": %u, "
                    "\"serial_s\": %.6f, \"sharded_s\": %.6f, "
                    "\"speedup\": %.3f, \"gate\": %.2f, "
                    "\"digest_match\": %s, \"skipped\": %s, "
                    "\"skip_reason\": \"%s\", \"pass\": %s}\n",
                    static_cast<unsigned long long>(serial.events),
                    cores, serial_s, sharded_s, speedup, min_ratio,
                    digest_match ? "true" : "false",
                    skipped ? "true" : "false", skip_reason,
                    digest_match && gate_ok ? "true" : "false");
        return digest_match && gate_ok ? 0 : 1;
    }
    if (!digest_match) {
        std::fprintf(stderr, "simcheck: scaling fleet DIVERGED "
                             "(serial vs shards=4)\n");
        return 1;
    }
    std::printf("fleet-scaling: %llu events; serial %.3fs, "
                "shards=4/threads=4 %.3fs, speedup %.2fx\n",
                static_cast<unsigned long long>(serial.events),
                serial_s, sharded_s, speedup);
    if (skipped) {
        std::printf("simcheck: speedup gate skipped: %s (digest "
                    "still checked)\n",
                    skip_reason);
        return 0;
    }
    if (speedup < min_ratio) {
        std::fprintf(stderr,
                     "simcheck: sharded speedup %.2fx below the "
                     "%.2fx gate on a %u-core host\n",
                     speedup, min_ratio, cores);
        return 1;
    }
    std::printf("simcheck: sharded scaling gate passed "
                "(%.2fx >= %.2fx on %u cores)\n",
                speedup, min_ratio, cores);
    return 0;
}

/**
 * Overhead gate for CI pass 1c: the epoch protocol itself — barrier,
 * reduction, message path — measured with parallelism taken away.
 * A 1000-board hierarchical fleet runs at shards=8 on ONE thread and
 * at shards=1; the ratio of event rates is pure per-epoch/per-message
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
    const auto timeOnce = [&spec](int shards, std::uint64_t &digest,
                                  std::uint64_t &events) {
        core::FleetOptions o;
        o.shards = shards;
        o.threads = 1;
        const auto t0 = clock::now();
        const auto r = core::runFleet(spec, o);
        const auto t1 = clock::now();
        digest = core::resultDigest(r);
        events = r.events;
        return std::chrono::duration<double>(t1 - t0).count();
    };

    constexpr int kReps = 3;
    double serial_s = 1e300, sharded_s = 1e300, ratio = 0.0;
    std::uint64_t want = 0, got = 0, events = 0;
    bool digest_match = true;
    for (int r = 0; r < kReps; ++r) {
        std::uint64_t ev = 0;
        const double a = timeOnce(1, want, events);
        const double b = timeOnce(8, got, ev);
        digest_match = digest_match && want == got && ev == events;
        serial_s = std::min(serial_s, a);
        sharded_s = std::min(sharded_s, b);
        if (b > 0.0)
            ratio = std::max(ratio, a / b);
    }
    const bool gate_ok = digest_match && ratio >= min_ratio;
    if (json) {
        std::printf("{\"check\": \"fleet-overhead\", "
                    "\"events\": %llu, "
                    "\"serial_s\": %.6f, \"sharded1t_s\": %.6f, "
                    "\"ratio\": %.3f, \"gate\": %.2f, "
                    "\"digest_match\": %s, \"pass\": %s}\n",
                    static_cast<unsigned long long>(events), serial_s,
                    sharded_s, ratio,
                    min_ratio, digest_match ? "true" : "false",
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
                "ratio %.2fx\n",
                static_cast<unsigned long long>(events), serial_s,
                sharded_s, ratio);
    if (ratio < min_ratio) {
        std::fprintf(stderr,
                     "simcheck: single-thread sharded overhead "
                     "%.2fx below the %.2fx floor (epoch protocol "
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
             "scaling smoke: require >= this speedup at shards=4 on "
             ">= 4-core hosts (0 = off; digest always checked)");
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
    if (args.dbl("fleet-scaling") > 0.0)
        return fleetScaling(args.dbl("fleet-scaling"),
                            args.boolean("json"));
    if (args.dbl("fleet-overhead") > 0.0)
        return fleetOverhead(args.dbl("fleet-overhead"),
                             args.boolean("json"));

    // Report-and-continue: this tool's job is to observe divergence,
    // not to abort on the first violation.
    check::Reporter::instance().setMode(check::Reporter::Mode::Log);

    core::ExperimentSpec spec;
    spec.device = args.choice("device", soc::deviceNames());
    spec.model = args.choice("model", models::allModelNames());
    spec.precision = args.precision("precision");
    spec.batch = args.intval("batch", 1);
    spec.processes = args.intval("procs", 1);
    spec.phase = args.choice("phase", {"light", "deep"}) == "deep"
                     ? core::Phase::Deep
                     : core::Phase::Light;
    spec.warmup = sim::msec(args.intval("warmup", 0));
    // 1e9 s keeps every tick count far from int64 overflow.
    spec.duration = sim::sec(args.dbl("duration", 0, 1e9));

    const int runs = std::max(2, args.intval("runs"));
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
    core::Runner runner(args.intval("threads"), "",
                        /*env_cache=*/false);
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
