#include "reno/physregs.hpp"

#include "common/log.hpp"

namespace reno
{

PhysRegFile::PhysRegFile(unsigned num_pregs,
                         std::function<void(PhysReg)> on_free)
    : counts_(num_pregs, 0), values_(num_pregs, 0), numFree_(num_pregs),
      onFree_(std::move(on_free))
{
    freeQueue_.reserve(num_pregs * 2);
    for (unsigned p = 0; p < num_pregs; ++p)
        freeQueue_.push_back(static_cast<PhysReg>(p));
}

PhysReg
PhysRegFile::alloc()
{
    // Skip queue entries that were re-allocated before being popped
    // (cannot happen with the current discipline, but keeps the pop
    // robust) and compact the queue when the dead prefix grows.
    while (freeHead_ < freeQueue_.size()) {
        const PhysReg p = freeQueue_[freeHead_++];
        if (counts_[p] == 0) {
            counts_[p] = 1;
            --numFree_;
            if (freeHead_ > 4096) {
                freeQueue_.erase(freeQueue_.begin(),
                                 freeQueue_.begin() +
                                     static_cast<long>(freeHead_));
                freeHead_ = 0;
            }
            return p;
        }
    }
    panic("PhysRegFile::alloc with no free registers");
}

void
PhysRegFile::incRef(PhysReg preg)
{
    if (counts_.at(preg) == 0)
        panic("incRef on free preg %u", static_cast<unsigned>(preg));
    ++counts_[preg];
}

void
PhysRegFile::decRef(PhysReg preg)
{
    if (counts_.at(preg) == 0)
        panic("decRef on free preg %u", static_cast<unsigned>(preg));
    ++decRefs_;
    if (--counts_[preg] == 0) {
        ++numFree_;
        freeQueue_.push_back(preg);
        if (onFree_)
            onFree_(preg);
    }
}

std::uint64_t
PhysRegFile::totalRefs() const
{
    std::uint64_t sum = 0;
    for (const auto c : counts_)
        sum += c;
    return sum;
}

} // namespace reno
