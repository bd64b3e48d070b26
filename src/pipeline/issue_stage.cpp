#include "pipeline/issue_stage.hpp"

#include <algorithm>

namespace reno
{

namespace
{

/** First entry of a seq-ordered view with seq >= @p seq. */
std::deque<DynInst *>::const_iterator
seqLowerBound(const std::deque<DynInst *> &view, InstSeq seq)
{
    return std::lower_bound(
        view.begin(), view.end(), seq,
        [](const DynInst *d, InstSeq s) { return d->seq < s; });
}

} // namespace

const DynInst *
IssueStage::storeSetBlocker(const DynInst &ld) const
{
    // A load whose pc maps to a store set waits until every older
    // in-flight store of that set has issued. The blocker is the
    // OLDEST such store: stores issue out of order, so the set's
    // youngest store (the one the LFST names) may already be gone
    // while older ones still wait.
    const unsigned set = ssets_.setOf(ld.rec.pc);
    if (set == StoreSets::InvalidSet)
        return nullptr;
    for (const DynInst *st : s_.robStores) {
        if (st->seq >= ld.seq)
            break;
        if (!st->issued && st->storeSet == set)
            return st;
    }
    return nullptr;
}

void
IssueStage::wakeBlockedLoads(const DynInst &st)
{
    if (st.storeSet == StoreSets::InvalidSet)
        return;
    // Woken loads are younger than the store, so they land behind it
    // in the ready list and select re-checks them this same cycle.
    std::vector<MemWaiter> &waiters = s_.setWaiters[st.storeSet];
    std::size_t kept = 0;
    for (const MemWaiter &w : waiters) {
        if (!w.load.live())
            continue;
        if (w.blocker == st.seq)
            s_.readyInsert(w.load.inst);
        else
            waiters[kept++] = w;
    }
    waiters.resize(kept);
}

void
IssueStage::requeueBlockedLoads()
{
    for (std::vector<MemWaiter> &waiters : s_.setWaiters) {
        for (const MemWaiter &w : waiters) {
            if (w.load.live())
                s_.readyInsert(w.load.inst);
        }
        waiters.clear();
    }
}

void
IssueStage::tick()
{
    s_.drainCalendar();

    unsigned used_int = 0, used_ld = 0, used_st = 0, used_total = 0;
    for (DynInst *d = s_.readyHead; d;) {
        if (used_total >= params_.issue.total)
            break;
        // The width test comes before the store-set test: a load is
        // marked MemDep only on cycles when load width remained.
        const bool is_ld = d->cls == InstClass::Load;
        const bool is_st = d->cls == InstClass::Store;
        if ((is_ld && used_ld >= params_.issue.loads) ||
            (is_st && used_st >= params_.issue.stores) ||
            (!is_ld && !is_st && used_int >= params_.issue.intOps)) {
            d = d->readyNext;
            continue;
        }

        // Aggressive load scheduling, gated by the store-set predictor:
        // a blocked load leaves the ready list until its blocker
        // issues.
        if (is_ld) {
            if (const DynInst *st = storeSetBlocker(*d)) {
                d->issueDom = IssueDom::MemDep;
                d->domProducer = st->seq;
                DynInst *next = d->readyNext;
                s_.readyRemove(d);
                s_.setWaiters[st->storeSet].push_back(
                    MemWaiter{SchedRef{d, d->renameSerial}, st->seq});
                d = next;
                continue;
            }
        }

        ++used_total;
        if (is_ld)
            ++used_ld;
        else if (is_st)
            ++used_st;
        else
            ++used_int;
        // Issuing can wake loads into the list behind d; resume from
        // d's predecessor so select reaches them this cycle.
        DynInst *prev = d->readyPrev;
        s_.readyRemove(d);
        if (issue(*d))
            return;  // violation squash: lists invalidated
        d = prev ? prev->readyNext : s_.readyHead;
    }
}

bool
IssueStage::issue(DynInst &d)
{
    d.issued = true;
    d.issueCycle = s_.now;
    d.issueDom =
        s_.now > d.readyCycle ? IssueDom::Contention : d.readyDom;
    if (d.issueDom != IssueDom::Contention)
        d.domProducer = d.readyProducer;
    if (d.inIq) {
        d.inIq = false;
        --s_.iqCount;
    }

    if (d.cls == InstClass::Load) {
        const Cycle agen = s_.now + 1 + d.fuseExtra;
        // Store-to-load forwarding / violation arming: find the
        // youngest older overlapping store, searching back from the
        // load's position.
        const DynInst *fwd = nullptr;
        for (auto it = seqLowerBound(s_.robStores, d.seq);
             it != s_.robStores.begin();) {
            const DynInst *st = *--it;
            if (st->memOverlaps(d)) {
                fwd = st;
                break;
            }
        }
        if (fwd && fwd->issued) {
            d.memLevel = MemHitLevel::Forwarded;
            d.completeCycle =
                std::max(agen, fwd->completeCycle) +
                params_.mem.dcache.latency;
        } else {
            // No forwarding source (or an unissued older store: the
            // aggressive issue proceeds and the store's execution
            // will catch the violation).
            if (mem_.dcacheProbe(d.rec.effAddr))
                d.memLevel = MemHitLevel::L1;
            else if (mem_.sharedProbe(d.rec.effAddr))
                // Any shared-level hit (L2, or an L3 in the deep
                // configs) classifies as an on-chip cache hit for
                // critical-path bucketing, not a memory access.
                d.memLevel = MemHitLevel::L2;
            else
                d.memLevel = MemHitLevel::Memory;
            d.completeCycle = mem_.dataAccess(d.rec.effAddr, agen, false);
            d.cohDelayed = mem_.lastCohPenalty() > 0;
        }
    } else if (d.cls == InstClass::Store) {
        // Address generation; data merges on the store-data path.
        d.completeCycle = s_.now + 1 + d.fuseExtra;
        ssets_.storeInactive(d.storeSet, d.seq);
    } else {
        d.completeCycle = s_.now + d.latency + d.fuseExtra;
    }

    if (d.ren.hasDest) {
        s_.pregReady[d.ren.destPreg] = d.completeCycle;
        s_.pregIssue[d.ren.destPreg] = d.issueCycle;
        s_.wakeWaiters(d.ren.destPreg);
    }

    // Resolve a fetch-blocking mispredicted branch.
    if (d.stallsFetch) {
        d.stallsFetch = false;
        --s_.fetchBlocked;
        s_.fetchResumeAt = std::max(
            s_.fetchResumeAt, d.completeCycle + params_.branchResolveExtra);
        s_.pendingRedirectSeq = d.seq;
        s_.fetchWait = FetchWait::Redirect;
    }

    if (d.cls != InstClass::Store)
        return false;
    wakeBlockedLoads(d);

    // A store's execution exposes memory-order violations: any
    // younger overlapping load that already issued read stale data.
    // The oldest such load is squashed.
    for (auto it = seqLowerBound(s_.robLoads, d.seq + 1);
         it != s_.robLoads.end(); ++it) {
        DynInst &ld = **it;
        if (ld.issued && !ld.ren.eliminated() && ld.memOverlaps(d)) {
            ssets_.trainViolation(ld.rec.pc, d.rec.pc);
            // Training can remap any load's store set: re-check every
            // blocked load from the ready list next cycle.
            requeueBlockedLoads();
            ++stats_.violationSquashes;
            s_.squashFrom(s_.robIndexOf(ld.seq), s_.now + 1, renamer_,
                          ssets_, params_);
            return true;
        }
    }
    return false;
}

} // namespace reno
