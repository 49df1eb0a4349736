#include "soc/network_link.hh"

#include <algorithm>

namespace jetsim::soc {

double
NetworkLink::wireThroughput() const
{
    return uplink_mbps * 1e6 / 8.0 / per_image_bytes;
}

double
NetworkLink::effectiveThroughput(double device_fps) const
{
    return std::min(device_fps, wireThroughput());
}

double
NetworkLink::endToEndLatencyMs(double device_fps, int batch) const
{
    const double up_ms =
        1e3 * batch * per_image_bytes * 8.0 / (uplink_mbps * 1e6);
    const double down_ms =
        1e3 * batch * result_bytes * 8.0 / (downlink_mbps * 1e6);
    const double compute_ms =
        device_fps > 0 ? 1e3 * batch / device_fps : 0.0;
    return rtt_ms + up_ms + down_ms + compute_ms;
}

} // namespace jetsim::soc
