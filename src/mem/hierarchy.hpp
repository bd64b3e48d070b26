/**
 * @file
 * The full memory hierarchy used by the core, assembled declaratively
 * from MemLevel nodes: split L1s (I$ and D$) backed by a stack of
 * shared levels (L2, then any number of deeper levels), terminated by
 * main memory over a contended bus.
 *
 * The default reproduces the paper's configuration (section 4.1):
 * 16KB 2-way 32B 1-cycle I$, 32KB 2-way 32B 2-cycle D$, 512KB 4-way
 * 64B 10-cycle L2, 100-cycle main memory reached over a 16B bus
 * clocked at one quarter of the core frequency, and a maximum of 16
 * outstanding misses (MSHRs). Deeper stacks (an L3), per-level
 * prefetchers and write-back traffic modeling are opt-in through
 * the parameters, so the paper-geometry outputs are bit-identical to
 * the fixed three-cache model this replaces.
 *
 * The shared part -- every level below the L1s plus main memory --
 * is one SharedStack, built in one place and owned by whatever the
 * L1s hang off: a System (one stack under every core), a
 * SysWarmState (its warming twin), or an owning-mode MemHierarchy
 * (single-core functional warming and unit tests).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/main_memory.hpp"

namespace reno
{

class CoherenceBus;

/** Geometry of the whole hierarchy (MemHierarchy::Params). */
struct MemParams {
    CacheParams icache{"icache", 16 * 1024, 2, 32, 1, 16, {}, false};
    CacheParams dcache{"dcache", 32 * 1024, 2, 32, 2, 16, {}, false};
    CacheParams l2{"l2", 512 * 1024, 4, 64, 10, 16, {}, false};
    /** Shared levels below the L2 (an L3, an L4...), nearest first.
     *  Empty = the paper's two-level stack. */
    std::vector<CacheParams> extraLevels;
    MemoryParams memory;
    /** Model dirty-victim write-back traffic on every level's bus
     *  (D$ and shared levels; the I$ never dirties lines). Off by
     *  default: the paper's model carries none. */
    bool modelWritebacks = false;
};

/**
 * The shared stack below the private L1s: the L2, any deeper levels
 * and main memory. Assembled back to front, with write-back modeling
 * propagated to every level and the memory bus moving one block of
 * the deepest level per transfer. Not copyable (each level points at
 * the next); copyStateFrom() clones state between same-geometry
 * stacks.
 */
class SharedStack
{
  public:
    explicit SharedStack(const MemParams &params);
    SharedStack(const SharedStack &) = delete;
    SharedStack &operator=(const SharedStack &) = delete;

    /** The cache levels, nearest (the L2) first. */
    std::size_t numLevels() const { return levels_.size(); }
    Cache &level(std::size_t i) { return *levels_[i]; }
    const Cache &level(std::size_t i) const { return *levels_[i]; }
    const MainMemory &memory() const { return *memory_; }

    /** Would @p addr hit in any level? */
    bool
    probe(Addr addr) const
    {
        for (const auto &level : levels_) {
            if (level->probe(addr))
                return true;
        }
        return false;
    }

    /** Adopt another same-geometry stack's state: every level (tags,
     *  LRU, counters, prefetcher training) and the memory bus.
     *  fatal()s on a depth mismatch. */
    void copyStateFrom(const SharedStack &other);

    /** Drop in-flight timing state (MSHRs, the memory bus). */
    void settle();

    void flush();

  private:
    std::unique_ptr<MainMemory> memory_;
    std::vector<std::unique_ptr<Cache>> levels_;  //!< L2 first
};

/** The hierarchy: I$ + D$ over a SharedStack. */
class MemHierarchy
{
  public:
    using Params = MemParams;

    /**
     * Attached mode: build only the private L1s over a shared stack
     * owned elsewhere (a System or SysWarmState), with every data
     * access snooped by the coherence bus first. The borrowed
     * pointers must outlive the hierarchy.
     */
    struct Attach {
        SharedStack *stack = nullptr;
        CoherenceBus *bus = nullptr;
        unsigned coreId = 0;
    };

    /** Owning mode (a SharedStack of its own) when @p attach is null,
     *  attached mode otherwise. */
    MemHierarchy(const Params &params, const Attach *attach);
    explicit MemHierarchy(const Params &params)
        : MemHierarchy(params, nullptr)
    {
    }
    MemHierarchy() : MemHierarchy(Params{}) {}

    /** Instruction fetch of the block containing @p pc. */
    Cycle fetchAccess(Addr pc, Cycle now);

    /** Data access. In attached mode the coherence bus snoops first
     *  and its penalty delays the D$ lookup. */
    Cycle dataAccess(Addr addr, Cycle now, bool is_write);

    /** Coherence-bus penalty the most recent dataAccess paid (cycles;
     *  always 0 in owning mode). CPI-stack attribution. */
    Cycle lastCohPenalty() const { return lastCohPenalty_; }

    /** Would a load of @p addr hit in the D$ right now? */
    bool dcacheProbe(Addr addr) const { return dcache_->probe(addr); }
    /** Would it hit in the first shared level (the L2)? */
    bool
    l2Probe(Addr addr) const
    {
        return attach_.stack->level(0).probe(addr);
    }

    /** Would it hit in ANY shared level? Load-latency classification
     *  (MemHitLevel): a hit anywhere on-chip is a cache hit, not a
     *  memory access, however deep the stack. Equals l2Probe() for
     *  the paper's two-level default. */
    bool sharedProbe(Addr addr) const { return attach_.stack->probe(addr); }

    void flush();

    /**
     * Adopt another same-geometry hierarchy's state (tags, LRU,
     * counters, prefetcher training, bus). MemHierarchy is
     * deliberately not copyable (the levels hold pointers into their
     * owner); this is the supported way to clone its state. An
     * attached hierarchy adopts only the L1s, from either mode: its
     * shared stack belongs to its owner, which injects it itself.
     */
    void copyStateFrom(const MemHierarchy &other);

    /** Drop in-flight timing state everywhere (MSHRs, bus). */
    void settle();

    /** Snapshot of every cache level, access order: I$, D$, then the
     *  shared stack nearest-first (persistence). */
    struct State {
        std::vector<CacheState> caches;
    };
    State exportState() const;
    bool importState(const State &state);

    const Cache &icache() const { return *icache_; }
    const Cache &dcache() const { return *dcache_; }

    /** The shared stack below the L1s (owned or borrowed). */
    const SharedStack &sharedStack() const { return *attach_.stack; }

    /**
     * Every cache level this hierarchy OWNS, in State order: I$, D$,
     * then the shared stack when owning. Attached hierarchies report
     * (and persist, via exportState) only their private L1s; the
     * stack's owner accounts the shared levels once.
     */
    std::vector<const Cache *> levels() const;

    const Params &params() const { return params_; }

  private:
    std::vector<Cache *> levelsMutable();

    Params params_;
    /** The shared stack in owning mode; null when attached. */
    std::unique_ptr<SharedStack> owned_;
    /** attach_.stack is owned_ in owning mode (never null). */
    Attach attach_;
    Cycle lastCohPenalty_ = 0;
    std::unique_ptr<Cache> icache_;
    std::unique_ptr<Cache> dcache_;
};

} // namespace reno
