/**
 * @file
 * Cycle-level out-of-order core with a RENO renamer.
 *
 * The model is functional-first (SimpleScalar style): a functional
 * emulator produces the correct-path dynamic instruction stream and
 * oracle values; this core models the timing of fetch, rename,
 * dispatch, issue, execution and retirement around that stream.
 * Wrong-path fetch contents are not simulated; a branch misprediction
 * stalls fetch until the branch resolves, charging the full redirect
 * and refill latency.
 *
 * Squashes that replay *correct-path* work are modeled exactly:
 * memory-order violations (store-sets misses) and load misintegration
 * (stale integration-table tuples, which real hardware catches by
 * retirement re-execution) flush the pipeline behind the offender and
 * refetch, rolling back RENO map-table, reference-count and IT state.
 *
 * Core itself is a thin facade: the machine state lives in
 * pipeline/machine_state.hpp and the four stage units in
 * src/pipeline/{fetch,rename,issue,commit}_stage.*. The stages count
 * straight into the core's SimResult counter block; result() adds
 * what the components own. Core wires them together and drives one
 * stage pass per tick().
 */
#pragma once

#include <cstdint>
#include <memory>

#include "bpred/predictor.hpp"
#include "emu/emulator.hpp"
#include "mem/hierarchy.hpp"
#include "obs/profiler.hpp"
#include "pipeline/commit_stage.hpp"
#include "pipeline/fetch_stage.hpp"
#include "pipeline/issue_stage.hpp"
#include "pipeline/machine_state.hpp"
#include "pipeline/rename_stage.hpp"
#include "reno/renamer.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/params.hpp"
#include "uarch/retire_listener.hpp"
#include "uarch/sim_result.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

/** The out-of-order core. */
class Core
{
  public:
    /**
     * A core of a System: it builds only its private L1s and bpred
     * stack, over the System's shared stack and coherence bus named
     * by @p attach. The System constructs its cores and drives them.
     */
    Core(const CoreParams &params, Emulator &emu,
         const MemHierarchy::Attach &attach);

    /** Advance one cycle. */
    void tick();

    bool finished() const { return state_.finished; }
    Cycle now() const { return state_.now; }
    std::uint64_t retiredCount() const { return counts_.retired; }

    RenoRenamer &renamer() { return renamer_; }
    const RenoRenamer &renamer() const { return renamer_; }
    MemHierarchy &memHierarchy() { return mem_; }
    BranchPredictor &branchPredictor() { return bp_; }

    void setRetireListener(RetireListener *listener)
    {
        commit_.setListener(listener);
    }

    /** This core's counters (valid mid-run too): its private L1s
     *  only, per-core totals in slot 0. System::result() remaps the
     *  slot and adds the shared stack and the bus. */
    SimResult result() const;

    /** The explicit machine state (tests, visualization). */
    const MachineState &machineState() const { return state_; }

    /** Hotspot profiler (null unless enabled at construction). */
    const obs::HotspotProfile *hotspots() const { return hot_.get(); }

    /** Emit `cycle` and every result() field, under its registry
     *  name, as one trace counter sample on this core's
     *  "core<i>.stats" lane. The System calls it on the
     *  --trace-sample interval. */
    void sampleStatsCounter();

  private:
    CoreParams params_;
    Emulator &emu_;
    RenoRenamer renamer_;
    MemHierarchy mem_;
    BranchPredictor bp_;
    StoreSets ssets_;

    MachineState state_;
    unsigned coreId_;
    /** The pipeline's counters; the stages increment its fields. */
    SimResult counts_;

    /** Hotspot profiler, allocated only when HotspotProfile::topN()
     *  is set at construction -- a disabled run never touches it. */
    std::unique_ptr<obs::HotspotProfile> hot_;

    FetchStage fetch_;
    RenameStage rename_;
    IssueStage issue_;
    CommitStage commit_;
};

} // namespace reno
