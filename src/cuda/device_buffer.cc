#include "cuda/device_buffer.hh"

namespace jetsim::cuda {

std::optional<DeviceBuffer>
DeviceBuffer::tryAlloc(soc::UnifiedMemory &mem, const std::string &owner,
                       sim::Bytes size)
{
    const auto id = mem.allocate(owner, size);
    if (id == soc::UnifiedMemory::kBadAlloc)
        return std::nullopt;
    return DeviceBuffer(mem, id);
}

DeviceBuffer::DeviceBuffer(DeviceBuffer &&other) noexcept
    : mem_(other.mem_), id_(other.id_)
{
    other.mem_ = nullptr;
    other.id_ = soc::UnifiedMemory::kBadAlloc;
}

DeviceBuffer &
DeviceBuffer::operator=(DeviceBuffer &&other) noexcept
{
    if (this != &other) {
        release();
        mem_ = other.mem_;
        id_ = other.id_;
        other.mem_ = nullptr;
        other.id_ = soc::UnifiedMemory::kBadAlloc;
    }
    return *this;
}

DeviceBuffer::~DeviceBuffer()
{
    release();
}

void
DeviceBuffer::release()
{
    if (mem_ && id_ != soc::UnifiedMemory::kBadAlloc) {
        mem_->release(id_);
        mem_ = nullptr;
        id_ = soc::UnifiedMemory::kBadAlloc;
    }
}

} // namespace jetsim::cuda
