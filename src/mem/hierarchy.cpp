#include "mem/hierarchy.hpp"

#include "coherence/mesi.hpp"
#include "common/log.hpp"

namespace reno
{

MemHierarchy::MemHierarchy(const Params &params, const Attach *attach)
    : params_(params)
{
    if (!attach) {
        // Assemble back to front: memory, then the shared stack
        // deepest first, then the split L1s. The bus moves one block
        // of the deepest cache level per request.
        std::vector<CacheParams> stack;
        stack.push_back(params_.l2);
        for (const CacheParams &extra : params_.extraLevels)
            stack.push_back(extra);
        if (params_.modelWritebacks) {
            for (CacheParams &level : stack)
                level.writebackTraffic = true;
        }

        memory_ = std::make_unique<MainMemory>(params_.memory,
                                               stack.back().blockBytes);
        shared_.resize(stack.size());
        for (std::size_t i = stack.size(); i-- > 0;) {
            MemLevel *next = i + 1 < stack.size()
                                 ? static_cast<MemLevel *>(
                                       shared_[i + 1].get())
                                 : static_cast<MemLevel *>(memory_.get());
            shared_[i] = std::make_unique<Cache>(stack[i], next);
        }
        for (const auto &level : shared_)
            sharedView_.push_back(level.get());
    } else {
        // Attached mode: the shared stack (and main memory) belong to
        // the System; this hierarchy builds only the private L1s on
        // top of the borrowed backend, and wires its D$ into the
        // coherence bus.
        if (!attach->backend || attach->shared.empty())
            fatal("memory hierarchy: attach without a shared stack");
        attach_ = *attach;
        sharedView_ = attach_.shared;
    }

    MemLevel *const l1_next =
        attach ? attach_.backend
               : static_cast<MemLevel *>(shared_[0].get());
    CacheParams icache_params = params_.icache;
    CacheParams dcache_params = params_.dcache;
    if (params_.modelWritebacks)
        dcache_params.writebackTraffic = true;
    icache_ = std::make_unique<Cache>(icache_params, l1_next);
    dcache_ = std::make_unique<Cache>(dcache_params, l1_next);

    if (attach_.bus) {
        attach_.bus->attachCore(attach_.coreId, dcache_.get());
        CoherenceBus *const bus = attach_.bus;
        const unsigned core = attach_.coreId;
        dcache_->setEvictionListener(
            [bus, core](Addr addr, bool dirty) {
                bus->onEviction(core, addr, dirty);
            });
    }
}

std::vector<Cache *>
MemHierarchy::levelsMutable()
{
    std::vector<Cache *> out;
    out.reserve(2 + shared_.size());
    out.push_back(icache_.get());
    out.push_back(dcache_.get());
    for (const auto &level : shared_)
        out.push_back(level.get());
    return out;
}

std::vector<const Cache *>
MemHierarchy::levels() const
{
    const std::vector<Cache *> mut =
        const_cast<MemHierarchy *>(this)->levelsMutable();
    return {mut.begin(), mut.end()};
}

Cycle
MemHierarchy::fetchAccess(Addr pc, Cycle now)
{
    return icache_->access(pc, now, MemAccessKind::Read);
}

Cycle
MemHierarchy::dataAccess(Addr addr, Cycle now, bool is_write)
{
    lastCohPenalty_ = 0;
    if (attach_.bus) {
        lastCohPenalty_ = attach_.bus->beforeDataAccess(
            attach_.coreId, addr, is_write, now);
        now += lastCohPenalty_;
    }
    return dcache_->access(addr, now,
                           is_write ? MemAccessKind::Write
                                    : MemAccessKind::Read);
}

void
MemHierarchy::flush()
{
    for (Cache *level : levelsMutable())
        level->flush();
    if (memory_)
        memory_->flush();
}

void
MemHierarchy::copyStateFrom(const MemHierarchy &other)
{
    if (!attached() && shared_.size() != other.shared_.size())
        fatal("memory hierarchy: copyStateFrom depth mismatch "
              "(%zu shared levels vs %zu)",
              shared_.size(), other.shared_.size());
    icache_->copyStateFrom(*other.icache_);
    dcache_->copyStateFrom(*other.dcache_);
    for (std::size_t i = 0; i < shared_.size(); ++i)
        shared_[i]->copyStateFrom(*other.shared_[i]);
    if (memory_)
        memory_->copyStateFrom(*other.memory_);
}

void
MemHierarchy::settle()
{
    for (Cache *level : levelsMutable())
        level->settle();
    if (memory_)
        memory_->settle();
}

MemHierarchy::State
MemHierarchy::exportState() const
{
    State state;
    for (const Cache *level : levels())
        state.caches.push_back(level->exportState());
    return state;
}

bool
MemHierarchy::importState(const State &state)
{
    std::vector<Cache *> levels = levelsMutable();
    if (state.caches.size() != levels.size())
        return false;
    if (memory_)
        memory_->settle();
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (!levels[i]->importState(state.caches[i]))
            return false;
    }
    return true;
}

} // namespace reno
