#include "pipeline/commit_stage.hpp"

namespace reno
{

void
CommitStage::tick()
{
    // One retirement port: retired stores and re-executing integrated
    // loads drain from a post-retirement queue at one per cycle.
    // Retirement itself stalls only when that queue is full (sustained
    // demand above one per cycle -- the "vortex" effect, section 4.3).
    if (s_.drainQueue > 0)
        --s_.drainQueue;

    unsigned committed = 0;
    bool retire_port_stall = false;
    while (committed < params_.commitWidth && !s_.rob.empty()) {
        DynInst &d = *s_.rob.front();
        if (!d.renamed || !d.completed(s_.now))
            break;

        const bool elim_load =
            d.isLoadInst() && (d.ren.elim == ElimKind::Cse ||
                               d.ren.elim == ElimKind::Ra);

        // Stores write the cache at retirement; integrated loads
        // re-execute for verification. Both share one retirement port.
        if (d.isStoreInst() || elim_load) {
            if (s_.drainQueue >= params_.sqEntries) {
                d.commitDom = CommitDom::RetirePort;
                retire_port_stall = true;
                break;
            }
            ++s_.drainQueue;
            mem_.dataAccess(d.rec.effAddr, s_.now, d.isStoreInst());
        }

        if (elim_load && d.ren.misintegrated) {
            // Re-execution caught a stale integration: flush this load
            // and everything younger, refetch. The stale IT tuple was
            // already invalidated, so the replay renames normally.
            ++stats_.misintegrationFlushes;
            s_.squashFrom(0, s_.now + 1, renamer_, ssets_, params_);
            break;
        }

        d.retireCycle = s_.now;
        if (d.commitDom != CommitDom::RetirePort) {
            d.commitDom = d.completeCycle == s_.now
                ? CommitDom::SelfComplete : CommitDom::PrevCommit;
        }

        renamer_.retire(d.ren);
        if (d.inLq)
            --s_.lqCount;
        if (d.inSq) {
            --s_.sqCount;
            ssets_.storeInactive(d.storeSet, d.seq);
        }

        ++stats_.retired;
        ++stats_.elim[static_cast<unsigned>(d.ren.elim)];
        if (d.isLoadInst())
            ++stats_.retiredLoads;
        if (d.isStoreInst())
            ++stats_.retiredStores;
        if (isControl(d.inst().op))
            ++stats_.retiredBranches;

        if (hot_)
            hot_->retire(d.rec.pc);
        if (listener_)
            listener_->onRetire(d);

        const bool exited = d.rec.exited;
        if (d.isLoadInst())
            s_.robLoads.pop_front();
        if (d.isStoreInst())
            s_.robStores.pop_front();
        s_.rob.pop_front();
        s_.arena.release(&d);
        ++committed;
        if (exited) {
            s_.finished = true;
            break;
        }
    }

    account(committed, retire_port_stall);
}

/**
 * One bucket per tick, counted in the core's slot 0 (System::result()
 * moves it to the core's own slot). Core::tick calls CommitStage::tick
 * exactly once per cycle, so the buckets sum to the cycle count by
 * construction; the tree below only decides WHICH bucket this cycle
 * lands in.
 *
 * Priority (first match wins):
 *   committed > 0                      -> base
 *   retire-port back-pressure          -> drain (the "vortex")
 *   ROB head pending                   -> a backend bucket from the
 *                                         head's own state
 *   ROB empty                          -> a frontend bucket from the
 *                                         fetch-wait hint, else drain
 */
void
CommitStage::account(unsigned committed, bool retire_port_stall)
{
    if (hot_ && committed == 0 && !s_.rob.empty())
        hot_->stall(s_.rob.front()->rec.pc);

    CpiBucket b = CpiBucket::Drain;
    if (committed > 0) {
        b = CpiBucket::Base;
    } else if (retire_port_stall) {
        b = CpiBucket::Drain;
    } else if (!s_.rob.empty()) {
        const DynInst &d = *s_.rob.front();
        if (d.issued) {
            // Executing: charge the head's own latency source.
            if (d.isLoadInst()) {
                if (d.cohDelayed)
                    b = CpiBucket::BackCoherence;
                else if (d.memLevel == MemHitLevel::Memory)
                    b = CpiBucket::BackDcacheMem;
                else if (d.memLevel == MemHitLevel::L2)
                    b = CpiBucket::BackDcacheL2;
                else
                    b = CpiBucket::BackDcacheL1;
            } else if (d.isStoreInst()) {
                b = CpiBucket::BackLsq;
            } else {
                b = CpiBucket::BackRob;
            }
        } else if (d.issueDom == IssueDom::MemDep) {
            // Store-set blocked load at the head.
            b = CpiBucket::BackLsq;
        } else if (s_.renameStall != RenameStall::None &&
                   s_.renameStallCycle != InvalidCycle &&
                   s_.renameStallCycle + 1 == s_.now) {
            // Rename reported a structural stall LAST cycle (rename
            // runs after commit within a tick): the machine is
            // resource-bound, not latency-bound.
            switch (s_.renameStall) {
              case RenameStall::Rob: b = CpiBucket::BackRob; break;
              case RenameStall::Iq: b = CpiBucket::BackIq; break;
              case RenameStall::Lsq: b = CpiBucket::BackLsq; break;
              case RenameStall::Pregs: b = CpiBucket::BackPregs; break;
              case RenameStall::None: break;
            }
        } else {
            // Head dispatched but not yet picked: scheduler latency.
            b = CpiBucket::BackIq;
        }
    } else if (s_.fetchBlocked > 0) {
        // Fetch is frozen behind an unresolved mispredicted branch.
        b = CpiBucket::FrontBpred;
    } else {
        switch (s_.fetchWait) {
          case FetchWait::Icache: b = CpiBucket::FrontIcache; break;
          case FetchWait::Redirect: b = CpiBucket::FrontBpred; break;
          case FetchWait::Squash:
          case FetchWait::None: b = CpiBucket::Drain; break;
        }
    }
    ++stats_.cpi[0][static_cast<unsigned>(b)];
}

} // namespace reno
