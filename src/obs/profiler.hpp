/**
 * @file
 * Bounded per-PC hotspot profiler.
 *
 * A fixed-size open-addressing hash table keyed by pc accumulates two
 * series per static instruction: retired-instruction counts (where the
 * work is) and commit-blocked stall cycles attributed to the ROB head
 * (where the time goes). The table never allocates after construction
 * and never grows: once full, new pcs land in a `dropped` counter, so
 * profiling a pathological workload degrades gracefully instead of
 * eating memory. Off by default (HotspotProfile::topN() == 0);
 * nothing on the simulated path changes when disabled.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace reno::obs
{

class HotspotProfile
{
  public:
    /** One profiled static instruction. */
    struct Entry {
        Addr pc = 0;
        std::uint64_t retired = 0;
        std::uint64_t stallCycles = 0;
    };

    explicit HotspotProfile(std::size_t slots = 8192);

    /** Process-wide `--profile-hot` top-N, 0 = off (the Tracer idiom:
     *  a relaxed atomic). Cores read it once at construction, so a
     *  change applies to cores built afterwards. */
    static unsigned
    topN()
    {
        return topN_.load(std::memory_order_relaxed);
    }
    static void
    setTopN(unsigned n)
    {
        topN_.store(n, std::memory_order_relaxed);
    }

    /** Count one retirement of @p pc. */
    void
    retire(Addr pc)
    {
        if (Slot *s = find(pc))
            ++s->retired;
    }

    /** Charge one commit-blocked cycle to the ROB head @p pc. */
    void
    stall(Addr pc)
    {
        if (Slot *s = find(pc))
            ++s->stallCycles;
    }

    /** Top @p n entries by retired count (desc, pc-asc tiebreak). */
    std::vector<Entry> topByRetired(std::size_t n) const;
    /** Top @p n entries by stall cycles (desc, pc-asc tiebreak). */
    std::vector<Entry> topByStall(std::size_t n) const;

    /** Events lost because the table was full. */
    std::uint64_t dropped() const { return dropped_; }
    /** Distinct pcs currently tracked. */
    std::size_t occupied() const { return occupied_; }

  private:
    struct Slot {
        Addr pc = 0;
        bool used = false;
        std::uint64_t retired = 0;
        std::uint64_t stallCycles = 0;
    };

    Slot *find(Addr pc);
    std::vector<Entry> top(std::size_t n, bool by_stall) const;

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t occupied_ = 0;
    std::uint64_t dropped_ = 0;

    inline static std::atomic<unsigned> topN_{0};
};

/** A run's hotspot tables, merged over its cores: the top-N of each
 *  ranking. Empty when profiling was off. */
struct HotspotReport {
    std::vector<HotspotProfile::Entry> retired;
    std::vector<HotspotProfile::Entry> stall;
    std::uint64_t dropped = 0;
};

} // namespace reno::obs
