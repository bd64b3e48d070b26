#include "pipeline/machine_state.hpp"

#include <algorithm>

#include "reno/renamer.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

MachineState::MachineState(const CoreParams &params)
    : pregReady(params.numPregs, 0),
      pregIssue(params.numPregs, InvalidCycle),
      pregProducer(params.numPregs, 0),
      pregWaiters(params.numPregs),
      setWaiters(params.numStoreSets),
      schedLoop_(params.schedLoop)
{
}

Cycle
MachineState::srcReadyCycle(const SrcOp &src) const
{
    const Cycle ready = pregReady[src.preg];
    if (ready == InvalidCycle)
        return InvalidCycle;
    const Cycle issue = pregIssue[src.preg];
    if (issue == InvalidCycle)
        return ready;
    return std::max(ready, issue + schedLoop_);
}

void
MachineState::dispatch(DynInst &d)
{
    d.renameSerial = ++renameSerial_;
    d.pendingSrcs = 0;
    for (unsigned s = 0; s < d.ren.numSrcs; ++s) {
        const PhysReg p = d.ren.src[s].preg;
        if (pregReady[p] == InvalidCycle) {
            pregWaiters[p].push_back(SchedRef{&d, d.renameSerial});
            ++d.pendingSrcs;
        }
    }
    if (d.pendingSrcs == 0)
        schedule(d);
}

void
MachineState::schedule(DynInst &d)
{
    // Readiness: dispatch pipe, then each source's producer. Every
    // input is final here -- a source's ready and issue cycles never
    // change while a consumer of it is in flight -- so this is the
    // one evaluation the instruction gets.
    Cycle earliest = d.readyEarliest;
    IssueDom dom = IssueDom::Dispatch;
    InstSeq dom_seq = 0;
    for (unsigned s = 0; s < d.ren.numSrcs; ++s) {
        const Cycle t = srcReadyCycle(d.ren.src[s]);
        if (t > earliest) {
            earliest = t;
            dom = s == 0 ? IssueDom::Src0 : IssueDom::Src1;
            dom_seq = pregProducer[d.ren.src[s].preg];
        }
    }
    d.readyCycle = earliest;
    d.readyDom = dom;
    d.readyProducer = dom_seq;
    calendar_.push_back(
        CalendarEntry{earliest, SchedRef{&d, d.renameSerial}});
    std::push_heap(calendar_.begin(), calendar_.end(), later);
}

void
MachineState::wakeWaiters(PhysReg preg)
{
    std::vector<SchedRef> &waiters = pregWaiters[preg];
    for (const SchedRef &w : waiters) {
        if (w.live() && --w.inst->pendingSrcs == 0)
            schedule(*w.inst);
    }
    waiters.clear();
}

void
MachineState::drainCalendar()
{
    while (!calendar_.empty() && calendar_.front().cycle <= now) {
        std::pop_heap(calendar_.begin(), calendar_.end(), later);
        const SchedRef ref = calendar_.back().ref;
        calendar_.pop_back();
        if (ref.live())
            readyInsert(ref.inst);
    }
}

void
MachineState::readyInsert(DynInst *d)
{
    // Newly ready instructions are usually the youngest: search from
    // the tail.
    DynInst *after = readyTail;
    while (after && after->seq > d->seq)
        after = after->readyPrev;
    d->readyPrev = after;
    d->readyNext = after ? after->readyNext : readyHead;
    if (d->readyNext)
        d->readyNext->readyPrev = d;
    else
        readyTail = d;
    if (after)
        after->readyNext = d;
    else
        readyHead = d;
    d->inReadyList = true;
}

void
MachineState::readyRemove(DynInst *d)
{
    if (d->readyPrev)
        d->readyPrev->readyNext = d->readyNext;
    else
        readyHead = d->readyNext;
    if (d->readyNext)
        d->readyNext->readyPrev = d->readyPrev;
    else
        readyTail = d->readyPrev;
    d->readyPrev = d->readyNext = nullptr;
    d->inReadyList = false;
}

std::size_t
MachineState::robIndexOf(InstSeq seq) const
{
    const auto it = std::lower_bound(
        rob.begin(), rob.end(), seq,
        [](const DynInst *d, InstSeq s) { return d->seq < s; });
    return static_cast<std::size_t>(it - rob.begin());
}

void
MachineState::squashFrom(std::size_t idx, Cycle restart_cycle,
                         RenoRenamer &renamer, StoreSets &ssets,
                         const CoreParams &params)
{
    // Roll back RENO state youngest-first. The squashed instructions
    // are the youngest suffix of every derived view, so the views
    // shrink from the back in lockstep. Their waiter and calendar
    // entries die with their rename serial (resetForReplay).
    for (std::size_t j = rob.size(); j-- > idx;) {
        DynInst &d = *rob[j];
        renamer.rollback(d.inst(), d.ren);
        if (d.inIq)
            --iqCount;
        if (d.inLq)
            --lqCount;
        if (d.inSq) {
            --sqCount;
            ssets.storeInactive(d.storeSet, d.seq);
        }
        if (d.stallsFetch)
            --fetchBlocked;
        if (d.inReadyList)
            readyRemove(&d);
        if (d.isStoreInst())
            robStores.pop_back();
        if (d.isLoadInst())
            robLoads.pop_back();
        d.resetForReplay();
        d.fetchCycle = restart_cycle;
        d.fetchReady = restart_cycle + params.frontDepth;
    }
    // Recycle into the fetch buffer, preserving program order.
    fetchBuf.insert(fetchBuf.begin(),
                    rob.begin() + static_cast<long>(idx), rob.end());
    rob.erase(rob.begin() + static_cast<long>(idx), rob.end());
    fetchWait = FetchWait::Squash;
}

} // namespace reno
