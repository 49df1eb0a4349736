/**
 * @file
 * jetbench: one repetition of a benchmark workload.
 *
 *   jetbench --workload <cell_deep|paper_grid|fleet_1000> --seed <n>
 *            [--trace 0|1] [--serial]
 *
 * Generates the workload's specs from the seed (set-up), makes the
 * workload's one timed call into the library, and prints one JSON
 * line: host wall and CPU time of the call, peak RSS, the host speed
 * probe's time (host.hh), simulated board-seconds, one result digest
 * per operation, and the
 * CLOCK_MONOTONIC instant the timed call started (so a parent can
 * measure set-up from process start). --trace 1 adds the traced
 * per-layer split (traced.hh). --serial runs the same inputs on the
 * library's serial path: the reference topology for digests.
 *
 * Malformed arguments print a message and exit 1. perfbench/run.py
 * repeats this binary for a time budget and reports medians.
 */

#include <time.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <string>

#include "host.hh"
#include "traced.hh"
#include "workloads.hh"

namespace {

using namespace jetbench;

struct Args
{
    Workload workload = Workload::CellDeep;
    std::uint64_t seed = 0;
    bool trace = false;
    bool serial = false;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "jetbench: %s\n"
                 "usage: jetbench --workload <cell_deep|paper_grid|"
                 "fleet_1000> --seed <n> [--trace 0|1] [--serial]\n",
                 msg.c_str());
    std::exit(1);
}

/** Whole-string unsigned decimal; false on anything else. */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data(), end, out);
    return !s.empty() && ec == std::errc() && p == end;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--serial") {
            a.serial = true;
            continue;
        }
        if (flag != "--workload" && flag != "--seed" && flag != "--trace")
            usageError("unknown argument '" + flag + "'");
        if (i + 1 >= argc)
            usageError(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (!parseWorkload(value, a.workload))
                usageError("unknown workload '" + value + "'");
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseU64(value, a.seed))
                usageError("--seed must be a non-negative integer, got '" +
                           value + "'");
            have_seed = true;
        } else {
            if (value != "0" && value != "1")
                usageError("--trace must be 0 or 1, got '" + value + "'");
            a.trace = value == "1";
        }
    }
    if (!have_workload)
        usageError("--workload is required");
    if (!have_seed)
        usageError("--seed is required");
    return a;
}

double
monotonicSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
traceJson(const TraceReport &rep)
{
    std::string s = "{\"metrics\": {";
    const auto &defs = perLayerMetrics();
    for (std::size_t i = 0; i < defs.size(); ++i)
        s += (i ? ", " : "") + jsonString(defs[i].name) +
             ": {\"value\": " + num(rep.metrics[i]) +
             ", \"unit\": " + jsonString(defs[i].unit) + "}";
    s += "}, \"checks\": " + std::to_string(rep.checks) +
         ", \"mismatches\": " + std::to_string(rep.mismatches) +
         ", \"notes\": [";
    for (std::size_t i = 0; i < rep.notes.size(); ++i)
        s += (i ? ", " : "") + jsonString(rep.notes[i]);
    s += "], \"spans\": [";
    const auto &spans = rep.spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &sp = spans[i];
        s += std::string(i ? ", " : "") + "{\"id\": " +
             std::to_string(sp.id) +
             ", \"parent\": " + std::to_string(sp.parent) +
             ", \"name\": " + jsonString(sp.name) +
             ", \"start_us\": " + num(sp.start_us) +
             ", \"end_us\": " + num(sp.end_us) +
             ", \"allocs\": " + std::to_string(sp.allocs) +
             ", \"thread\": " + std::to_string(sp.thread) + "}";
    }
    return s + "]}";
}

int
run(const Args &a)
{
    const Inputs in = makeInputs(a.workload, a.seed);

    const double timed_start = monotonicSeconds();
    const double cpu0 = processCpuSeconds();
    const Outcome out = runWorkload(in, a.serial);
    const double wall_s = monotonicSeconds() - timed_start;
    const double cpu_s = processCpuSeconds() - cpu0;
    const double peak_rss_mb = peakRssMiB();
    // The host speed probe, after the call's own figures are taken, on
    // as many threads as the call used.
    const double ref_s = referenceSeconds(
        a.serial || a.workload == Workload::CellDeep ? 1 : benchThreads());

    const auto ops = opDigests(in, out);
    std::string line = "{\"workload\": " +
                       jsonString(workloadName(a.workload)) +
                       ", \"seed\": " + std::to_string(a.seed) +
                       ", \"serial\": " + (a.serial ? "true" : "false") +
                       ", \"timed_start\": " + num(timed_start) +
                       ", \"wall_s\": " + num(wall_s) +
                       ", \"cpu_s\": " + num(cpu_s) +
                       ", \"peak_rss_mb\": " + num(peak_rss_mb) +
                       ", \"ref_s\": " + num(ref_s) +
                       ", \"board_s\": " + num(nominalBoardSeconds(in)) +
                       ", \"ops\": [";
    for (std::size_t i = 0; i < ops.size(); ++i)
        line += std::string(i ? ", " : "") + "\"" + hex(ops[i]) + "\"";
    line += "], \"host\": " + hostFactsJson();
    if (a.trace)
        line += ", \"trace\": " + traceJson(traceWorkload(in, out, ops));
    line += "}\n";
    std::fputs(line.c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "jetbench: error: %s\n", e.what());
        return 1;
    }
}
