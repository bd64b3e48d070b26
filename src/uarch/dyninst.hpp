/**
 * @file
 * Per-dynamic-instruction state carried through the timing pipeline.
 * A DynInst is created at fetch from the functional emulator's
 * ExecRecord (oracle values) and lives until retirement; on a squash
 * it is recycled into the fetch buffer for replay.
 *
 * Rename decodes the instruction once (class, latency, access size,
 * fused-operation cost) so no later stage consults the opcode table,
 * and hands it to the event-driven scheduler (MachineState): the
 * scheduling fields below record how many source producers it still
 * waits for, the cycle it becomes ready once they have all issued,
 * and its place in the ready list.
 */
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "emu/emulator.hpp"
#include "reno/renamer.hpp"

namespace reno
{

/** Critical-path dominator classes recorded for the analyzer. */
enum class IssueDom : std::uint8_t {
    Dispatch,   //!< front-end delivery determined issue time
    Src0,       //!< waiting on source 0's producer
    Src1,       //!< waiting on source 1's producer
    MemDep,     //!< waiting on a store (forwarding or store set)
    Contention, //!< ready but lost issue arbitration
};

enum class CommitDom : std::uint8_t {
    SelfComplete,  //!< retired as soon as it completed
    PrevCommit,    //!< waited for older instructions / commit width
    RetirePort,    //!< waited for the store retirement port
};

/** Which level serviced a load (for critical-path bucketing). */
enum class MemHitLevel : std::uint8_t { None, L1, L2, Memory, Forwarded };

/** One in-flight dynamic instruction. */
struct DynInst {
    ExecRecord rec;
    InstSeq seq = 0;

    // --- fetch state --------------------------------------------------
    Cycle fetchCycle = 0;
    Cycle fetchReady = 0;        //!< cycle it can enter rename
    bool mispredicted = false;   //!< fetch-time prediction was wrong
    bool stallsFetch = false;    //!< currently blocking new fetch
    /** Branch whose misprediction redirect this fetch followed
     *  (0 = none); used for the critical-path redirect edge. */
    InstSeq redirectFrom = 0;

    // --- rename state --------------------------------------------------
    bool renamed = false;
    Cycle renameCycle = InvalidCycle;
    Cycle readyEarliest = InvalidCycle;  //!< dispatch-done cycle
    RenameOut ren;
    bool inIq = false;
    bool inLq = false;
    bool inSq = false;
    unsigned storeSet = ~0U;     //!< store-set id for stores

    // --- decoded once at rename ------------------------------------------
    InstClass cls = InstClass::IntAlu;
    std::uint8_t latency = 0;    //!< execute latency (loads: agen only)
    std::uint8_t memSize = 0;    //!< access bytes for loads/stores
    std::uint8_t fuseExtra = 0;  //!< RENO_CF fused-operation cycles

    // --- scheduler state (MachineState's wakeup/select structures) -------
    /** Serial of the rename that made the current scheduler entries;
     *  0 until dispatched to the scheduler. Waiter and calendar
     *  entries carry it and are dropped when it no longer matches: a
     *  squashed instruction replays under its old seq, and the arena
     *  recycles slots. */
    std::uint64_t renameSerial = 0;
    unsigned pendingSrcs = 0;    //!< sources whose producer has not issued
    /** Issue-ready cycle, set once every source's producer has issued:
     *  max(readyEarliest, each source's ready cycle). */
    Cycle readyCycle = InvalidCycle;
    IssueDom readyDom = IssueDom::Dispatch;  //!< what set readyCycle
    InstSeq readyProducer = 0;               //!< ... and its producer

    // --- execute state --------------------------------------------------
    bool issued = false;
    Cycle issueCycle = InvalidCycle;
    Cycle completeCycle = InvalidCycle;
    MemHitLevel memLevel = MemHitLevel::None;
    bool cohDelayed = false;  //!< load paid a MESI coherence penalty
    IssueDom issueDom = IssueDom::Dispatch;
    InstSeq domProducer = 0;

    // --- retire state ---------------------------------------------------
    Cycle retireCycle = InvalidCycle;
    CommitDom commitDom = CommitDom::SelfComplete;

    // --- pipeline linkage -----------------------------------------------
    /** Intrusive ready list (MachineState::readyHead), in seq order:
     *  instructions whose readyCycle has come and that have not
     *  issued. The issue stage selects from these only. */
    DynInst *readyPrev = nullptr;
    DynInst *readyNext = nullptr;
    bool inReadyList = false;

    const Instruction &inst() const { return rec.inst; }
    bool isLoadInst() const { return isLoad(rec.inst.op); }
    bool isStoreInst() const { return isStore(rec.inst.op); }

    bool
    completed(Cycle now) const
    {
        return completeCycle != InvalidCycle && completeCycle <= now;
    }

    /** Does [effAddr, effAddr+size) overlap @p other's access? Both
     *  instructions must have been renamed (memSize is decoded then). */
    bool
    memOverlaps(const DynInst &other) const
    {
        const Addr a0 = rec.effAddr;
        const Addr a1 = a0 + memSize;
        const Addr b0 = other.rec.effAddr;
        const Addr b1 = b0 + other.memSize;
        return a0 < b1 && b0 < a1;
    }

    /**
     * Reset timing state for replay after a squash (also applied by
     * InstArena::acquire before reuse). The identity fields -- rec,
     * seq and the fetch-cycle group -- are left for the caller: a
     * squash keeps them, a fresh fetch overwrites them; the decoded
     * group is rewritten by the next rename. The caller must have
     * unlinked the instruction from the ready list first; the linkage
     * is cleared, not unlinked, here.
     */
    void
    resetForReplay()
    {
        readyPrev = readyNext = nullptr;
        inReadyList = false;
        renameSerial = 0;
        pendingSrcs = 0;
        readyCycle = InvalidCycle;
        readyDom = IssueDom::Dispatch;
        readyProducer = 0;
        mispredicted = false;
        stallsFetch = false;
        redirectFrom = 0;
        renamed = false;
        renameCycle = InvalidCycle;
        readyEarliest = InvalidCycle;
        ren = RenameOut{};
        inIq = inLq = inSq = false;
        storeSet = ~0U;
        issued = false;
        issueCycle = InvalidCycle;
        completeCycle = InvalidCycle;
        memLevel = MemHitLevel::None;
        cohDelayed = false;
        issueDom = IssueDom::Dispatch;
        domProducer = 0;
        retireCycle = InvalidCycle;
        commitDom = CommitDom::SelfComplete;
    }
};

} // namespace reno
