/**
 * @file
 * Issue stage: selects ready instructions oldest-first within the
 * per-class and total issue widths, computes completion times
 * (including RENO constant-fusion latency), schedules loads
 * aggressively under the store-set predictor, performs
 * store-to-load forwarding, and detects memory-order violations when
 * stores execute -- squashing and replaying the offending load and
 * everything younger.
 *
 * Scheduling is event-driven (see machine_state.hpp): select walks
 * only the ready list, which the ready calendar feeds at the start of
 * each cycle. Issuing an instruction wakes its destination's waiters
 * into the calendar; issuing a store wakes the loads the store-set
 * predictor held behind it straight into the ready list, so they are
 * re-checked in the same cycle. The memory scans walk
 * robStores/robLoads, order-preserving subsets of the ROB.
 */
#pragma once

#include "mem/hierarchy.hpp"
#include "pipeline/machine_state.hpp"
#include "uarch/sim_result.hpp"
#include "reno/renamer.hpp"
#include "uarch/params.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

class IssueStage
{
  public:
    IssueStage(const CoreParams &params, MemHierarchy &mem,
               StoreSets &ssets, RenoRenamer &renamer,
               MachineState &state, SimResult &stats)
        : params_(params), mem_(mem), ssets_(ssets), renamer_(renamer),
          s_(state), stats_(stats)
    {
    }

    void tick();

  private:
    /** Execute @p d (already off the ready list); true when a
     *  memory-order violation squashed, which ends the stage. */
    bool issue(DynInst &d);

    /** The oldest older unissued store of @p ld's store set now, or
     *  null when the predictor lets the load go. */
    const DynInst *storeSetBlocker(const DynInst &ld) const;

    /** Move the loads blocked behind store @p st to the ready list. */
    void wakeBlockedLoads(const DynInst &st);

    /** Move every blocked load to the ready list (store sets were
     *  retrained, so each must be re-checked). */
    void requeueBlockedLoads();

    const CoreParams &params_;
    MemHierarchy &mem_;
    StoreSets &ssets_;
    RenoRenamer &renamer_;
    MachineState &s_;
    SimResult &stats_;
};

} // namespace reno
