/**
 * @file
 * RAII allocation handle over the board's unified memory.
 *
 * Mirrors cudaMalloc/cudaFree semantics on an integrated-memory
 * device: there is no host/device copy, only accounting against the
 * shared pool. Allocation failure is recoverable (the caller decides
 * whether a failed deployment is fatal), matching the paper's
 * observation that over-deploying FCN_ResNet50 on the Nano exhausts
 * memory.
 */

#ifndef JETSIM_CUDA_DEVICE_BUFFER_HH
#define JETSIM_CUDA_DEVICE_BUFFER_HH

#include <optional>
#include <string>

#include "soc/unified_memory.hh"

namespace jetsim::cuda {

/** Owning handle to a unified-memory allocation. Move-only. */
class DeviceBuffer
{
  public:
    /**
     * Attempt an allocation.
     * @return nullopt when the pool cannot satisfy the request.
     */
    static std::optional<DeviceBuffer>
    tryAlloc(soc::UnifiedMemory &mem, const std::string &owner,
             sim::Bytes size);

    DeviceBuffer(DeviceBuffer &&other) noexcept;
    DeviceBuffer &operator=(DeviceBuffer &&other) noexcept;
    DeviceBuffer(const DeviceBuffer &) = delete;
    DeviceBuffer &operator=(const DeviceBuffer &) = delete;
    ~DeviceBuffer();

  private:
    DeviceBuffer(soc::UnifiedMemory &mem, soc::UnifiedMemory::AllocId id)
        : mem_(&mem), id_(id)
    {}

    void release();

    soc::UnifiedMemory *mem_ = nullptr;
    soc::UnifiedMemory::AllocId id_ = soc::UnifiedMemory::kBadAlloc;
};

} // namespace jetsim::cuda

#endif // JETSIM_CUDA_DEVICE_BUFFER_HH
