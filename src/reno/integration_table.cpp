#include "reno/integration_table.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace reno
{

IntegrationTable::IntegrationTable(const ItParams &params)
    : params_(params)
{
    if (params_.assoc == 0 || params_.entries % params_.assoc != 0)
        fatal("integration table: entries must be a multiple of assoc");
    numSets_ = params_.entries / params_.assoc;
    slots_.resize(params_.entries);
}

void
IntegrationTable::attachRegFile(PhysRegFile *prf)
{
    prf_ = prf;
    pregSlots_.assign(prf->numPregs(), {});
    outPins_.assign(prf->numPregs(), {});
}

unsigned
IntegrationTable::setIndex(Opcode op, std::int32_t imm, const MapEntry &in1,
                           const MapEntry &in2) const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(op));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(imm)));
    mix(in1.preg);
    mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(in1.disp)));
    mix(in2.preg);
    mix(static_cast<std::uint64_t>(static_cast<std::uint16_t>(in2.disp)));
    return static_cast<unsigned>(h % numSets_);
}

ItSlot
IntegrationTable::lookup(Opcode op, std::int32_t imm, const MapEntry &in1,
                         const MapEntry &in2)
{
    ++accesses_;
    const unsigned set = setIndex(op, imm, in1, in2);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const ItSlot slot = set * params_.assoc + w;
        ItEntry &e = slots_[slot];
        if (e.valid && e.op == op && e.imm == imm && e.in1 == in1 &&
            e.in2 == in2) {
            e.lruStamp = ++lruClock_;
            ++hits_;
            return slot;
        }
    }
    return InvalidItSlot;
}

const ItEntry &
IntegrationTable::entry(ItSlot slot) const
{
    const ItEntry &e = slots_.at(slot);
    if (!e.valid)
        panic("IT entry(%u) on invalid slot", slot);
    return e;
}

void
IntegrationTable::trackPregs(ItSlot slot, const ItEntry &tuple)
{
    // Only inputs: the output register cannot be freed while the
    // entry holds a reference to it.
    auto track = [&](PhysReg p) {
        if (p == InvalidPhysReg)
            return;
        if (p >= pregSlots_.size())
            pregSlots_.resize(p + 1);  // no file attached: grow on use
        pregSlots_[p].push_back(slot);
    };
    track(tuple.in1.preg);
    track(tuple.in2.preg);
}

void
IntegrationTable::release(ItSlot slot)
{
    ItEntry &e = slots_[slot];
    if (!e.valid)
        return;
    e.valid = false;
    ++invalidations_;
    if (prf_ && e.out.preg != InvalidPhysReg) {
        std::vector<ItSlot> &pins = outPins_[e.out.preg];
        *std::find(pins.begin(), pins.end(), slot) = pins.back();
        pins.pop_back();
        prf_->decRef(e.out.preg);
    }
}

ItSlot
IntegrationTable::insert(const ItEntry &tuple)
{
    ++accesses_;
    ++insertions_;
    const unsigned set = setIndex(tuple.op, tuple.imm, tuple.in1,
                                  tuple.in2);
    // Replace an entry with an identical signature if one exists (the
    // lookup that detects it shares the insertion port); otherwise
    // evict LRU. Without signature replacement, a stale duplicate
    // could shadow the fresh tuple and cause needless misintegrations.
    ItSlot victim = InvalidItSlot;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const ItSlot slot = set * params_.assoc + w;
        const ItEntry &e = slots_[slot];
        if (e.valid && e.op == tuple.op && e.imm == tuple.imm &&
            e.in1 == tuple.in1 && e.in2 == tuple.in2) {
            victim = slot;
            break;
        }
    }
    if (victim == InvalidItSlot) {
        victim = set * params_.assoc;
        for (unsigned w = 0; w < params_.assoc; ++w) {
            const ItSlot slot = set * params_.assoc + w;
            const ItEntry &e = slots_[slot];
            if (!e.valid) {
                victim = slot;
                break;
            }
            if (e.lruStamp < slots_[victim].lruStamp)
                victim = slot;
        }
    }
    release(victim);  // drop any evicted entry's reference
    if (prf_ && tuple.out.preg != InvalidPhysReg) {
        prf_->incRef(tuple.out.preg);
        outPins_[tuple.out.preg].push_back(victim);
    }
    slots_[victim] = tuple;
    slots_[victim].valid = true;
    slots_[victim].lruStamp = ++lruClock_;
    trackPregs(victim, slots_[victim]);
    return victim;
}

void
IntegrationTable::invalidateSlot(ItSlot slot)
{
    if (slot < slots_.size())
        release(slot);
}

void
IntegrationTable::invalidatePreg(PhysReg preg)
{
    if (preg >= pregSlots_.size())
        return;
    // Walk the list in place and keep its capacity for the next
    // insert that names this register. release() can cascade --
    // freeing an output register re-enters here for that register's
    // own input uses -- but never for preg: a register is freed only
    // when no valid entry still names it as an output, and release()
    // never inserts, so the cascade leaves this list alone.
    std::vector<ItSlot> &list = pregSlots_[preg];
    for (const ItSlot slot : list) {
        const ItEntry &e = slots_[slot];
        if (e.valid && (e.in1.preg == preg || e.in2.preg == preg))
            release(slot);
    }
    list.clear();
}

bool
IntegrationTable::reclaimLru()
{
    if (!prf_ || reclaimFailedAt_ == prf_->decRefs())
        return false;
    // A register is reclaimable when the table holds ALL of its
    // references (it is neither architecturally mapped nor in flight).
    // One register can be pinned by several tuples (e.g. a forward and
    // a reverse entry), so compare against the per-register pin count,
    // not against 1 -- and release every pinning entry so the register
    // actually returns to the free pool.
    ItSlot victim = InvalidItSlot;
    for (PhysReg p = 0; p < outPins_.size(); ++p) {
        const std::vector<ItSlot> &pins = outPins_[p];
        if (pins.empty() || prf_->refCount(p) != pins.size())
            continue;  // still architecturally mapped or in flight
        for (const ItSlot slot : pins) {
            if (victim == InvalidItSlot ||
                slots_[slot].lruStamp < slots_[victim].lruStamp)
                victim = slot;
        }
    }
    if (victim == InvalidItSlot) {
        reclaimFailedAt_ = prf_->decRefs();
        return false;
    }
    // Release order does not matter: the register is freed (and its
    // input uses invalidated) only when its last pin goes.
    std::vector<ItSlot> &pins = outPins_[slots_[victim].out.preg];
    while (!pins.empty())
        release(pins.back());
    return true;
}

void
IntegrationTable::reset()
{
    for (ItSlot slot = 0; slot < slots_.size(); ++slot)
        release(slot);
    for (auto &list : pregSlots_)
        list.clear();
}

} // namespace reno
