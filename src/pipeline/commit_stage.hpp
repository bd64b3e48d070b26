/**
 * @file
 * Commit stage: retires completed instructions in program order up to
 * the commit width, drains stores and re-executing integrated loads
 * through the single retirement port, flushes misintegrated loads
 * (stale integration-table tuples caught by retirement re-execution),
 * accounts the retirement statistics, and notifies the retire
 * listener. Retired instructions return to the arena.
 */
#pragma once

#include "mem/hierarchy.hpp"
#include "obs/profiler.hpp"
#include "pipeline/machine_state.hpp"
#include "uarch/sim_result.hpp"
#include "reno/renamer.hpp"
#include "uarch/params.hpp"
#include "uarch/retire_listener.hpp"
#include "uarch/store_sets.hpp"

namespace reno
{

class CommitStage
{
  public:
    CommitStage(const CoreParams &params, RenoRenamer &renamer,
                StoreSets &ssets, MemHierarchy &mem,
                MachineState &state, SimResult &stats)
        : params_(params), renamer_(renamer), ssets_(ssets), mem_(mem),
          s_(state), stats_(stats)
    {
    }

    void tick();

    void setListener(RetireListener *listener) { listener_ = listener; }
    RetireListener *listener() const { return listener_; }

    /** Attach the hotspot profiler (null = off). Core wires this
     *  once at construction when profiling is enabled. */
    void setHotspots(obs::HotspotProfile *hot) { hot_ = hot; }

  private:
    /** Count this tick in exactly one CPI bucket of stats_ (and
     *  charge the hotspot profiler). Called once per tick. */
    void account(unsigned committed, bool retire_port_stall);

    const CoreParams &params_;
    RenoRenamer &renamer_;
    StoreSets &ssets_;
    MemHierarchy &mem_;
    MachineState &s_;
    SimResult &stats_;
    RetireListener *listener_ = nullptr;
    obs::HotspotProfile *hot_ = nullptr;
};

} // namespace reno
