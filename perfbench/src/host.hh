/**
 * @file
 * Detected host facts and process resource usage.
 */

#ifndef JETBENCH_HOST_HH
#define JETBENCH_HOST_HH

#include <string>

namespace jetbench {

/** Cores, CPU model (/proc/cpuinfo), compiler and build type, as a
 * JSON object. */
std::string hostFactsJson();

/** User + system CPU seconds of this process, every thread. */
double processCpuSeconds();

/** Peak resident set of this process in MiB. */
double peakRssMiB();

/**
 * Host speed probe: wall seconds of a fixed reference job run once on
 * each of @p threads threads at the same time. The job is the
 * benchmark's own code (an event-queue loop with heap traffic and
 * scattered reads, the simulator's kind of work), so no library change
 * moves it; only the host's speed does.
 */
double referenceSeconds(int threads);

/** JSON string literal for @p s (quotes included). */
std::string jsonString(const std::string &s);

} // namespace jetbench

#endif // JETBENCH_HOST_HH
