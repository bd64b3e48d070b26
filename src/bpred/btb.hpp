/**
 * @file
 * Parameterized branch target buffer: a set-associative, LRU-stamped
 * table mapping a branch PC to its last resolved target. One
 * component of the composable prediction stack (bpred/predictor.hpp);
 * holds the targets of indirect calls and register-indirect jumps
 * (direct branches compute their target from the instruction, and
 * returns prefer the return-address stack).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace reno
{

/** Geometry of the BTB. */
struct BtbParams {
    unsigned entries = 2048;
    unsigned assoc = 4;
};

/** Snapshot of the BTB for functional warming (valid entries only). */
struct BtbState {
    struct Entry {
        std::uint32_t index = 0;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lruStamp = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t lruClock = 0;
};

/** Set-associative LRU branch target buffer. */
class Btb
{
  public:
    /** fatal() on a zero-entry or non-power-of-two geometry, zero
     *  associativity, or an associativity that does not divide the
     *  entry count. */
    explicit Btb(const BtbParams &params);

    /** Look up @p pc; true (and @p target set) on a hit. */
    bool lookup(Addr pc, Addr *target) const;

    /** Insert or retrain the target of @p pc (LRU victim choice). */
    void insert(Addr pc, Addr target);

    /** Export / import the table (checkpoint persistence).
     *  importState returns false on any out-of-range index. */
    BtbState exportState() const;
    bool importState(const BtbState &state);

  private:
    struct Entry {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lruStamp = 0;
    };

    unsigned
    setIndex(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 2) & setMask_);
    }

    BtbParams params_;
    /** Sets - 1: the set count divides a power of two, so it is one,
     *  and the index is a mask, not a division. */
    unsigned setMask_;
    std::vector<Entry> entries_;
    std::uint64_t lruClock_ = 0;
};

} // namespace reno
