/**
 * @file
 * Physical register file state with reference counting (paper
 * section 3.1).
 *
 * There is no explicit free list: a register is free iff its reference
 * count is zero. Allocations and RENO sharing operations increment the
 * count; retirement of an overwriting instruction and squash rollback
 * decrement it. Counters are sized so overflow is impossible (max
 * sharing degree = architectural registers + in-flight instructions).
 *
 * The file also tracks an *oracle value* per physical register. The
 * hardware RENO never reads values; the oracle values exist purely so
 * the simulator can assert the register-sharing invariant:
 *     value(preg) + disp == value the eliminated instruction computes.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace reno
{

/** Reference-counted physical register file. */
class PhysRegFile
{
  public:
    /**
     * @param num_pregs total physical registers
     * @param on_free   invoked when a register's count drops to zero
     *                  (used to invalidate integration table entries)
     */
    explicit PhysRegFile(unsigned num_pregs,
                         std::function<void(PhysReg)> on_free = {});

    unsigned numPregs() const { return static_cast<unsigned>(
        counts_.size()); }

    /** Number of currently free registers (count == 0). */
    unsigned numFree() const { return numFree_; }

    bool hasFree() const { return numFree_ > 0; }

    /** Allocate a free register: its count becomes 1. */
    PhysReg alloc();

    /** RENO sharing operation: one more reference to @p preg. */
    void incRef(PhysReg preg);

    /** Drop one reference; frees the register when it reaches zero. */
    void decRef(PhysReg preg);

    unsigned refCount(PhysReg preg) const { return counts_.at(preg); }

    /** Number of decRef() calls so far: a generation that advances
     *  whenever any reference drops. */
    std::uint64_t decRefs() const { return decRefs_; }

    /** Sum of all reference counts (tested conservation invariant). */
    std::uint64_t totalRefs() const;

    // --- oracle values (simulation-only; RENO never reads these) -----
    std::uint64_t value(PhysReg preg) const { return values_.at(preg); }
    void setValue(PhysReg preg, std::uint64_t v) { values_.at(preg) = v; }

    void setOnFree(std::function<void(PhysReg)> cb)
    {
        onFree_ = std::move(cb);
    }

  private:
    std::vector<std::uint32_t> counts_;
    std::vector<std::uint64_t> values_;
    std::vector<PhysReg> freeQueue_;   //!< FIFO recycling order
    size_t freeHead_ = 0;
    unsigned numFree_;
    std::uint64_t decRefs_ = 0;
    std::function<void(PhysReg)> onFree_;
};

} // namespace reno
