/**
 * @file
 * Rename stage: moves fetched instructions into the ROB through the
 * RENO renamer, enforcing structural limits (ROB, issue queue,
 * load/store queues, free physical registers) and attributing every
 * stalled cycle to the resource that caused it. Each renamed
 * instruction is decoded once (class, latency, access size, fusion
 * cost) and issue-queue instructions are handed to the event-driven
 * scheduler. Collapsed instructions bypass the issue queue entirely;
 * syscalls serialize the pipeline.
 */
#pragma once

#include "pipeline/machine_state.hpp"
#include "uarch/sim_result.hpp"
#include "reno/renamer.hpp"
#include "uarch/params.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

class RenameStage
{
  public:
    RenameStage(const CoreParams &params, RenoRenamer &renamer,
                StoreSets &ssets, MachineState &state,
                SimResult &stats)
        : params_(params), renamer_(renamer), ssets_(ssets), s_(state),
          stats_(stats)
    {
    }

    void tick();

  private:
    /** Extra fused-operation latency for deferred displacements. */
    unsigned fusionExtra(const DynInst &d) const;

    const CoreParams &params_;
    RenoRenamer &renamer_;
    StoreSets &ssets_;
    MachineState &s_;
    SimResult &stats_;
};

} // namespace reno
