/**
 * @file
 * The engine builder (TensorRT Builder analogue).
 *
 * Compiles a network for one device, batch size and requested weight
 * precision:
 *  1. run the fusion pass;
 *  2. assign each fused op its compute precision, falling back to the
 *     fp32 path when the device lacks a native kernel at the request
 *     (coverage tables in DeviceSpec — the Jetson Nano mechanism);
 *  3. select tactics: tensor-core vs CUDA-core path, launch grid and
 *     the shape-dependent efficiency/issue parameters of the kernel
 *     cost model;
 *  4. size the engine's device-memory footprint;
 *  5. settle each kernel's device-static timing terms on this GPU
 *     (gpu::KernelStatics, tagged with the GpuSpec's digest).
 */

#ifndef JETSIM_TRT_BUILDER_HH
#define JETSIM_TRT_BUILDER_HH

#include <memory>

#include "graph/network.hh"
#include "soc/device_spec.hh"
#include "trt/engine.hh"
#include "trt/fusion.hh"

namespace jetsim::trt {

/** Build-time options (a slim TensorRT BuilderConfig). An op the
 * device has no native kernel for at the requested precision always
 * falls back to fp32, as under TensorRT's default. */
struct BuilderConfig
{
    soc::Precision precision = soc::Precision::Fp16;
    int batch = 1;
};

/** Per-device compiler from Network to Engine. */
class Builder
{
  public:
    explicit Builder(const soc::DeviceSpec &spec);

    /** Compile @p net under @p cfg. Deterministic. */
    Engine build(const graph::Network &net,
                 const BuilderConfig &cfg) const;

  private:
    /** Does the device have a native kernel for this op at @p p? */
    bool supported(const FusedOp &op, soc::Precision p) const;

    gpu::KernelDesc makeKernel(const FusedOp &op, soc::Precision p,
                               const BuilderConfig &cfg) const;

    soc::DeviceSpec spec_;
};

/**
 * The engine Builder(spec).build(net, cfg) returns, built once per
 * process for each distinct builder input and shared from then on
 * (build once, deploy many). The key is exactly what build() reads:
 * the network's digest, the precision and batch, the device's
 * precision-coverage table and whether it has tensor cores. Two GPUs
 * that agree on those share the engine, whose kernels' statics blocks
 * carry the tag of the GPU that built it; the other GPU's cost model
 * computes the same terms per call instead. Thread-safe; the engine lives as long as the process or its last
 * holder, whichever is longer.
 */
std::shared_ptr<const Engine> sharedEngine(const soc::DeviceSpec &spec,
                                           const graph::Network &net,
                                           const BuilderConfig &cfg);

} // namespace jetsim::trt

#endif // JETSIM_TRT_BUILDER_HH
