/**
 * @file
 * The explicit machine state shared by the pipeline stages: fetch
 * buffer, re-order buffer, physical-register scoreboard, queue
 * occupancies and redirect/drain bookkeeping, plus the instruction
 * arena that owns every in-flight DynInst.
 *
 * The state also holds the event-driven scheduler the issue stage
 * selects from (the idiom of the dependency graph in gem5 O3's
 * InstructionQueue), so no stage rescans waiting instructions:
 *
 *   - per-preg waiter lists: rename registers each issue-queue
 *     instruction on every source whose producer has not issued yet;
 *     when the producer issues, the issue stage walks its
 *     destination's list, and a consumer whose last source just
 *     became known computes its ready cycle exactly once;
 *   - the ready calendar, a min-heap of (ready cycle, instruction):
 *     each cycle its due entries drain into
 *   - the ready list (readyHead/readyTail), intrusive and in seq
 *     order, which select walks oldest first;
 *   - per-store-set waiter lists: loads the store-set predictor holds
 *     behind an older unissued store, woken when that store issues;
 *   - robStores / robLoads: the ROB's memory instructions in program
 *     order (store-to-load forwarding, store-set blocking and
 *     violation detection only ever inspect these).
 *
 * Waiter and calendar entries are dropped lazily: each carries the
 * serial of the rename it was made for (DynInst::renameSerial), and a
 * squash or a recycled arena slot invalidates it. squashFrom unlinks
 * squashed instructions from the ready list and the memory views.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "pipeline/inst_arena.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/params.hpp"

namespace reno
{

class RenoRenamer;
class StoreSets;

/** Why fetch last stopped delivering (CPI-stack attribution). */
enum class FetchWait : std::uint8_t {
    None,      //!< delivering normally (or never stalled yet)
    Icache,    //!< waiting out an instruction-cache miss
    Redirect,  //!< refilling behind a mispredict redirect
    Squash,    //!< refilling after a pipeline squash
};

/** Which resource rename last stalled on (CPI-stack attribution). */
enum class RenameStall : std::uint8_t { None, Rob, Iq, Lsq, Pregs };

/** A scheduler entry's reference to a renamed instruction: live while
 *  the instruction still carries the rename serial it was made for. */
struct SchedRef {
    DynInst *inst = nullptr;
    std::uint64_t serial = 0;

    bool live() const { return inst->renameSerial == serial; }
};

/** A load held back by the store-set predictor behind @c blocker. */
struct MemWaiter {
    SchedRef load;
    InstSeq blocker = 0;
};

struct MachineState {
    explicit MachineState(const CoreParams &params);

    InstArena arena;
    std::deque<DynInst *> fetchBuf;
    std::deque<DynInst *> rob;

    /** ROB memory instructions in program order (see file comment). */
    std::deque<DynInst *> robStores;
    std::deque<DynInst *> robLoads;

    // --- physical-register scoreboard ---------------------------------
    std::vector<Cycle> pregReady;
    std::vector<Cycle> pregIssue;
    std::vector<InstSeq> pregProducer;

    // --- scheduler (see file comment) ---------------------------------
    /** Ready list endpoints (intrusive, seq order). */
    DynInst *readyHead = nullptr;
    DynInst *readyTail = nullptr;
    /** preg -> instructions waiting for its producer to issue. */
    std::vector<std::vector<SchedRef>> pregWaiters;
    /** store set -> loads blocked behind one of its stores. */
    std::vector<std::vector<MemWaiter>> setWaiters;

    // --- queue occupancies --------------------------------------------
    unsigned iqCount = 0;
    unsigned lqCount = 0;
    unsigned sqCount = 0;
    /** Post-retirement port queue: stores and re-executing integrated
     *  loads drain at one per cycle; commit stalls only when full. */
    unsigned drainQueue = 0;

    // --- redirect / drain bookkeeping ---------------------------------
    Cycle now = 0;
    InstSeq seqCounter = 1;
    Addr lastFetchBlock = ~Addr{0};
    Cycle fetchResumeAt = 0;
    unsigned fetchBlocked = 0;  //!< unresolved mispredicted branches
    InstSeq pendingRedirectSeq = 0;  //!< branch behind the next fetch
    bool finished = false;

    // --- CPI-stack attribution hints ----------------------------------
    /** Why fetch last stopped (classifies empty-ROB cycles). */
    FetchWait fetchWait = FetchWait::None;
    /** Last rename stall reason and the cycle it was recorded; commit
     *  consults it only when `renameStallCycle + 1 == now` (rename runs
     *  after commit within a tick, so the fresh report is one cycle
     *  old when commit sees it). */
    RenameStall renameStall = RenameStall::None;
    Cycle renameStallCycle = InvalidCycle;

    /**
     * Rename hands an issue-queue instruction to the scheduler: it
     * waits on every source whose producer has not issued, or is
     * calendared at once when none is pending.
     */
    void dispatch(DynInst &d);

    /** The producer of @p preg issued (pregReady/pregIssue are set):
     *  calendar every waiter whose last pending source this was. */
    void wakeWaiters(PhysReg preg);

    /** Move every calendar entry due by `now` to the ready list. */
    void drainCalendar();

    /** Link @p d into the ready list at its seq position. */
    void readyInsert(DynInst *d);
    void readyRemove(DynInst *d);

    /** Index of the oldest ROB entry with seq >= @p seq (the ROB is
     *  seq-sorted). */
    std::size_t robIndexOf(InstSeq seq) const;

    /**
     * Squash ROB entries [idx, end): roll back RENO state in reverse
     * order and recycle the instructions into the fetch buffer for
     * replay starting at @p restart_cycle.
     */
    void squashFrom(std::size_t idx, Cycle restart_cycle,
                    RenoRenamer &renamer, StoreSets &ssets,
                    const CoreParams &params);

  private:
    /** A ready-calendar entry: @c ref becomes issue-ready at @c cycle. */
    struct CalendarEntry {
        Cycle cycle;
        SchedRef ref;
    };

    /** Heap order: the earliest cycle on top. */
    static bool
    later(const CalendarEntry &a, const CalendarEntry &b)
    {
        return a.cycle > b.cycle;
    }

    /** Source-operand ready cycle honoring the scheduling loop. */
    Cycle srcReadyCycle(const SrcOp &src) const;

    /** Every source is known: fix @p d's ready cycle and attribution
     *  and calendar it. */
    void schedule(DynInst &d);

    unsigned schedLoop_;
    std::uint64_t renameSerial_ = 0;
    /** The ready calendar: a min-heap on cycle. */
    std::vector<CalendarEntry> calendar_;
};

} // namespace reno
