#include "bpred/btb.hpp"

#include "common/log.hpp"

namespace reno
{

Btb::Btb(const BtbParams &params)
    : params_(params), entries_(params.entries)
{
    if (params.entries == 0 ||
        (params.entries & (params.entries - 1)) != 0)
        fatal("BTB: entry count must be a non-zero power of two "
              "(got %u)", params.entries);
    if (params.assoc == 0)
        fatal("BTB: associativity must be non-zero");
    if (params.entries % params.assoc != 0)
        fatal("BTB: associativity %u does not divide %u entries",
              params.assoc, params.entries);
    setMask_ = params.entries / params.assoc - 1;
}

bool
Btb::lookup(Addr pc, Addr *target) const
{
    const unsigned set = setIndex(pc);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Entry &e = entries_[set * params_.assoc + w];
        if (e.valid && e.tag == pc) {
            *target = e.target;
            return true;
        }
    }
    return false;
}

void
Btb::insert(Addr pc, Addr target)
{
    const unsigned set = setIndex(pc);
    Entry *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Entry &e = entries_[set * params_.assoc + w];
        if (e.valid && e.tag == pc) {
            e.target = target;
            e.lruStamp = ++lruClock_;
            return;
        }
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim || e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    victim->valid = true;
    victim->tag = pc;
    victim->target = target;
    victim->lruStamp = ++lruClock_;
}

BtbState
Btb::exportState() const
{
    BtbState state;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].valid)
            continue;
        state.entries.push_back({static_cast<std::uint32_t>(i),
                                 entries_[i].tag, entries_[i].target,
                                 entries_[i].lruStamp});
    }
    state.lruClock = lruClock_;
    return state;
}

bool
Btb::importState(const BtbState &state)
{
    for (Entry &e : entries_)
        e.valid = false;
    for (const BtbState::Entry &e : state.entries) {
        if (e.index >= entries_.size())
            return false;
        entries_[e.index] = {true, e.tag, e.target, e.lruStamp};
    }
    lruClock_ = state.lruClock;
    return true;
}

} // namespace reno
