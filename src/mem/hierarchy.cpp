#include "mem/hierarchy.hpp"

#include "coherence/mesi.hpp"
#include "common/log.hpp"

namespace reno
{

SharedStack::SharedStack(const MemParams &params)
{
    // Assemble back to front: memory, then the levels deepest first.
    // The bus moves one block of the deepest cache level per request.
    std::vector<CacheParams> stack;
    stack.push_back(params.l2);
    for (const CacheParams &extra : params.extraLevels)
        stack.push_back(extra);
    if (params.modelWritebacks) {
        for (CacheParams &level : stack)
            level.writebackTraffic = true;
    }

    memory_ = std::make_unique<MainMemory>(params.memory,
                                           stack.back().blockBytes);
    levels_.resize(stack.size());
    for (std::size_t i = stack.size(); i-- > 0;) {
        MemLevel *next = i + 1 < stack.size()
                             ? static_cast<MemLevel *>(levels_[i + 1].get())
                             : static_cast<MemLevel *>(memory_.get());
        levels_[i] = std::make_unique<Cache>(stack[i], next);
    }
}

void
SharedStack::copyStateFrom(const SharedStack &other)
{
    if (levels_.size() != other.levels_.size())
        fatal("shared stack: copyStateFrom depth mismatch "
              "(%zu levels vs %zu)",
              levels_.size(), other.levels_.size());
    for (std::size_t i = 0; i < levels_.size(); ++i)
        levels_[i]->copyStateFrom(*other.levels_[i]);
    memory_->copyStateFrom(*other.memory_);
}

void
SharedStack::settle()
{
    for (const auto &level : levels_)
        level->settle();
    memory_->settle();
}

void
SharedStack::flush()
{
    for (const auto &level : levels_)
        level->flush();
    memory_->flush();
}

MemHierarchy::MemHierarchy(const Params &params, const Attach *attach)
    : params_(params)
{
    if (attach) {
        // Attached mode: the shared stack belongs to the System (or
        // its warming twin); this hierarchy builds only the private
        // L1s on top of it, and wires its D$ into the coherence bus.
        if (!attach->stack)
            fatal("memory hierarchy: attach without a shared stack");
        attach_ = *attach;
    } else {
        owned_ = std::make_unique<SharedStack>(params_);
        attach_.stack = owned_.get();
    }

    MemLevel *const l1_next = &attach_.stack->level(0);
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
    std::vector<Cache *> out{icache_.get(), dcache_.get()};
    if (owned_) {
        for (std::size_t i = 0; i < owned_->numLevels(); ++i)
            out.push_back(&owned_->level(i));
    }
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
    icache_->flush();
    dcache_->flush();
    if (owned_)
        owned_->flush();
}

void
MemHierarchy::copyStateFrom(const MemHierarchy &other)
{
    icache_->copyStateFrom(*other.icache_);
    dcache_->copyStateFrom(*other.dcache_);
    if (owned_)
        owned_->copyStateFrom(other.sharedStack());
}

void
MemHierarchy::settle()
{
    icache_->settle();
    dcache_->settle();
    if (owned_)
        owned_->settle();
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
    if (owned_)
        owned_->settle();
    for (std::size_t i = 0; i < levels.size(); ++i) {
        if (!levels[i]->importState(state.caches[i]))
            return false;
    }
    return true;
}

} // namespace reno
