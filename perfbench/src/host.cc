#include "host.hh"

#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace jetbench {

namespace {

/** Where the reference job's result goes, so it is not optimised out. */
std::atomic<std::uint64_t> g_reference_sink{0};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        const auto begin = line.find_first_not_of(" \t", colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
    }
    return "unknown";
}

/** CPUs this process may run on (the container's share). */
int
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

} // namespace

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
hostFactsJson()
{
    return "{\"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"usable_cores\": " + std::to_string(usableCores()) +
           ", \"cpu_model\": " + jsonString(cpuModel()) +
           ", \"compiler\": " + jsonString(JETBENCH_COMPILER) +
           ", \"build_type\": " + jsonString(JETBENCH_BUILD_TYPE) + "}";
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMiB()
{
    // VmHWM is the high-water mark of this program's own address
    // space. ru_maxrss is not: Linux carries it across exec, so it
    // would report the launching process's size when that is larger.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
referenceSeconds(int threads)
{
    // One thread's share: a fixed event loop over a priority queue,
    // with a heap allocation per event and reads scattered over 512 KiB.
    const auto job = [] {
        constexpr std::size_t kSlots = std::size_t{1} << 16;
        constexpr int kEvents = 1000000;
        using Event = std::pair<std::uint64_t, std::uint32_t>;
        std::priority_queue<Event, std::vector<Event>, std::greater<>> q;
        std::vector<std::uint64_t> state(kSlots);
        for (std::uint32_t i = 0; i < 1024; ++i)
            q.emplace(i, i);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (int n = 0; n < kEvents; ++n) {
            const auto [when, id] = q.top();
            q.pop();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t &slot = state[(x >> 16) & (kSlots - 1)];
            const auto payload = std::make_unique<std::uint64_t[]>(4);
            payload[0] = slot += when ^ id;
            q.emplace(when + 1 + (x & 1023) + (payload[0] & 1), id);
        }
        std::uint64_t sum = 0;
        for (const std::uint64_t v : state)
            sum += v;
        return sum;
    };
    std::vector<std::thread> pool;
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&] { g_reference_sink += job(); });
    for (auto &t : pool)
        t.join();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count();
}

} // namespace jetbench
