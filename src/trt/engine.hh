/**
 * @file
 * A compiled inference engine (the TensorRT Engine analogue).
 *
 * An Engine is immutable after building: a list of GPU kernels in
 * execution order plus the device-memory footprint the deployment
 * will pin (weights, activation workspace, pre-enqueued I/O buffers,
 * and builder scratch). Engines are compiled for a fixed batch size,
 * matching the paper's methodology (dynamic batching disabled).
 */

#ifndef JETSIM_TRT_ENGINE_HH
#define JETSIM_TRT_ENGINE_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/kernel.hh"
#include "sim/fields.hh"
#include "sim/types.hh"
#include "soc/precision.hh"

namespace jetsim::trt {

class Builder;

/** Immutable compiled plan. Move-only (kernels hold stable storage). */
class Engine
{
  public:
    Engine(Engine &&) = default;
    Engine &operator=(Engine &&) = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const std::string &model() const { return model_; }
    soc::Precision requestedPrecision() const { return requested_; }
    int batch() const { return batch_; }

    /** Kernels in execution order; addresses stable for the engine's
     * lifetime (streams keep pointers while executing). */
    const std::vector<gpu::KernelDesc> &kernels() const
    {
        return kernels_;
    }

    /** Ops that lacked a native kernel at the requested precision and
     * fell back to the fp32 path (paper S6.1.1, Jetson Nano). */
    int fallbackOps() const { return fallback_ops_; }

    /** @name Device-memory footprint
     * @{ */
    sim::Bytes weightBytes() const { return weight_bytes_; }
    sim::Bytes activationBytes() const { return activation_bytes_; }
    sim::Bytes ioBytes() const { return io_bytes_; }
    sim::Bytes workspaceBytes() const { return workspace_bytes_; }

    /** Total bytes the deployment pins (excluding the per-process
     * CUDA runtime overhead, which MemorySpec carries). */
    sim::Bytes
    deviceBytes() const
    {
        return weight_bytes_ + activation_bytes_ + io_bytes_ +
               workspace_bytes_;
    }
    /** @} */

    /** Total numeric work per EC invocation (FLOPs at `batch`). */
    double totalFlops() const { return total_flops_; }

    /** Total DRAM traffic per EC invocation (bytes). */
    double totalBytes() const { return total_bytes_; }

    /**
     * Serialise the compiled plan (the TensorRT plan-file analogue:
     * build once, deploy many times without re-running the builder)
     * as a `"jetsim_plan": 2` document of the JSON codec
     * (sim/json.hh).
     */
    std::string serialize() const;

    /** Reconstruct an engine from serialize() output. On a malformed
     * or other-version plan returns nullopt and sets @p err to
     * "<field>: <reason>". */
    static std::optional<Engine> deserialize(std::string_view plan,
                                             std::string &err);

    /** The plan's fields; the totals and kernel name ids are derived
     * from them. */
    template <class V, sim::FieldsOf<Engine> S>
    friend void
    visitFields(V &v, S &e)
    {
        v("model", e.model_);
        v("precision", e.requested_);
        v("batch", e.batch_);
        v("fallback_ops", e.fallback_ops_);
        v("weight_bytes", e.weight_bytes_);
        v("activation_bytes", e.activation_bytes_);
        v("io_bytes", e.io_bytes_);
        v("workspace_bytes", e.workspace_bytes_);
        v("kernels", e.kernels_);
    }

  private:
    friend class Builder;
    Engine() = default;

    std::string model_;
    soc::Precision requested_ = soc::Precision::Fp16;
    int batch_ = 1;
    std::vector<gpu::KernelDesc> kernels_;
    int fallback_ops_ = 0;
    sim::Bytes weight_bytes_ = 0;
    sim::Bytes activation_bytes_ = 0;
    sim::Bytes io_bytes_ = 0;
    sim::Bytes workspace_bytes_ = 0;
    double total_flops_ = 0;
    double total_bytes_ = 0;
};

} // namespace jetsim::trt

#endif // JETSIM_TRT_ENGINE_HH
