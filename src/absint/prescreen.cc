#include "absint/prescreen.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace jetsim::absint {

namespace {

std::string
fmt(const char *pattern, double a, double b)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), pattern, a, b);
    return buf;
}

} // namespace

ScreenResult
screen(const core::ExperimentSpec &spec, const Slo &slo)
{
    ScreenResult r;
    r.bounds = analyze(spec);
    const DeploymentBounds &b = r.bounds;
    if (!b.ok) {
        r.reason = "not analyzable: " + b.error;
        return r; // Unknown: let the simulator decide
    }

    // --- Infeasibility proofs (lower bounds beat the SLO) ----------
    if (b.oom) {
        r.verdict = Verdict::ProvedInfeasible;
        r.reason = fmt("memory high-water %.1f MiB exceeds the "
                       "%.1f MiB budget: deployment must fail",
                       b.mem_mib, b.available_mib);
        return r;
    }
    double lat_lo = std::numeric_limits<double>::max();
    double lat_hi = 0.0;
    double tput_lo_min = std::numeric_limits<double>::max();
    double tput_hi_avg = 0.0;
    for (const auto &p : b.procs) {
        lat_lo = std::min(lat_lo, p.latency_ms.lo);
        lat_hi = std::max(lat_hi, p.latency_ms.hi);
        tput_lo_min = std::min(tput_lo_min, p.throughput_fps.lo);
        tput_hi_avg += p.throughput_fps.hi;
    }
    tput_hi_avg /= static_cast<double>(b.procs.size());
    // The mean per-process rate is capped both by the mean of the
    // per-process upper bounds and by the aggregate GPU-serial cap.
    const double mean_fps_hi =
        std::min(tput_hi_avg, b.mean_throughput_hi_fps);

    if (slo.max_latency_ms > 0 && lat_lo > slo.max_latency_ms) {
        r.verdict = Verdict::ProvedInfeasible;
        r.reason = fmt("latency lower bound %.2f ms exceeds the "
                       "%.2f ms SLO in every schedule",
                       lat_lo, slo.max_latency_ms);
        return r;
    }
    if (slo.min_fps > 0 && mean_fps_hi < slo.min_fps) {
        r.verdict = Verdict::ProvedInfeasible;
        r.reason = fmt("throughput upper bound %.2f fps cannot reach "
                       "the %.2f fps floor in any schedule",
                       mean_fps_hi, slo.min_fps);
        return r;
    }

    // --- Feasibility proofs (upper bounds meet the SLO) ------------
    const bool lat_ok =
        slo.max_latency_ms <= 0 || lat_hi <= slo.max_latency_ms;
    const bool fps_ok =
        slo.min_fps <= 0 || tput_lo_min >= slo.min_fps;
    if (lat_ok && fps_ok) {
        r.verdict = Verdict::ProvedFeasible;
        r.reason = fmt("upper bounds meet the SLO (latency <= %.2f "
                       "ms, throughput >= %.2f fps) in every "
                       "schedule",
                       lat_hi, tput_lo_min);
        return r;
    }

    r.reason = "bounds do not decide the cell";
    return r;
}

} // namespace jetsim::absint
