/**
 * @file
 * Network-link model for edge-vs-cloud offloading analysis.
 *
 * The paper's introduction and conclusion frame the deployment
 * question around network-related delays: "a single YoloV8n model is
 * capable of processing over 1000 images per second [on an A40] —
 * however, network delays including transmission, propagation and
 * processing diminish the effective throughput." This model folds an
 * uplink budget and round-trip latency into the numbers a remote
 * accelerator can actually deliver to an edge client.
 */

#ifndef JETSIM_SOC_NETWORK_LINK_HH
#define JETSIM_SOC_NETWORK_LINK_HH

#include "sim/types.hh"

namespace jetsim::soc {

/** A point-to-point link between the edge client and a remote GPU. */
struct NetworkLink
{
    double uplink_mbps = 50.0;   ///< client to cloud bandwidth
    double downlink_mbps = 100.0;///< result path (results are small)
    double rtt_ms = 40.0;        ///< propagation round trip
    double per_image_bytes = 180e3; ///< compressed frame on the wire
    double result_bytes = 4e3;      ///< detections/logits coming back

    /** Images/s the uplink can carry, independent of the GPU. */
    double wireThroughput() const;

    /**
     * Effective throughput of a remote accelerator: the min of what
     * the device sustains and what the wire admits.
     */
    double effectiveThroughput(double device_fps) const;

    /**
     * End-to-end latency of one image batch: serialisation both
     * ways, propagation, and the device-side batch completion time.
     * @param device_fps  the remote device's sustained rate
     * @param batch       images per inference invocation
     */
    double endToEndLatencyMs(double device_fps, int batch) const;
};

} // namespace jetsim::soc

#endif // JETSIM_SOC_NETWORK_LINK_HH
