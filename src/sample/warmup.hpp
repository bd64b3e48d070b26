/**
 * @file
 * Functional warming for sampled simulation (the SMARTS insight): the
 * caches and the branch predictor accumulate state over the *entire*
 * run -- an L2 working set or a branch history cannot be reconstructed
 * by a short detailed warmup window. So the fast-forward between
 * intervals feeds every fetch, branch and data access into
 * timing-model instances at functional speed, and the warmed tables
 * are injected into the detailed core before each measured window.
 *
 * Warming is a pure function of the instruction stream: chopping it at
 * a checkpoint and resuming from the snapshot yields bit-identical
 * tables (tag fills are eager and cycle-independent; transient timing
 * state -- MSHRs, the memory bus -- is settled before measurement).
 * Warm state depends only on the memory-hierarchy and predictor
 * parameters, never on the RENO configuration, so one warming pass
 * serves every configuration of a sweep.
 *
 * Warming runs on the emulator's decoded-superblock engine: the
 * engine reports every fetch, data access and control outcome to an
 * AccessSink (emu/emulator.hpp) as it executes, and the sink turns
 * them into cycle-0 tag and predictor updates -- no per-instruction
 * step() or ExecRecord. The MSHR and prefetch-fill tables skip their
 * retire scan while nothing can have landed, so a cycle-0 access is a
 * few compares deep.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bpred/predictor.hpp"
#include "coherence/mesi.hpp"
#include "emu/emulator.hpp"
#include "mem/hierarchy.hpp"
#include "uarch/params.hpp"

namespace reno::sample
{

/** Digest of the parameters warm state depends on: the core count
 *  (a multi-core System shapes shared-level contents, so its warm
 *  state never aliases a single-core one), then every field
 *  visitMemParams() and visitBpredParams() name. */
std::uint64_t warmConfigDigest(const MemHierarchy::Params &mem_params,
                               const BranchPredParams &bp_params,
                               unsigned num_cores = 1);
std::uint64_t warmConfigDigest(const CoreParams &params);

/** Functionally warmed microarchitectural state. */
class WarmState
{
  public:
    WarmState(const MemHierarchy::Params &mem_params,
              const BranchPredParams &bp_params);

    /** Clone (MemHierarchy itself is not copyable). */
    WarmState(const WarmState &other);
    WarmState &operator=(const WarmState &) = delete;

    MemHierarchy mem;
    BranchPredictor bp;
    /** Last I$ block fed by warmStep (one access per block, matching
     *  the core's fetch; part of the state so warming composes across
     *  checkpoint boundaries). */
    Addr lastFetchBlock = ~Addr{0};

    const MemHierarchy::Params &memParams() const { return memParams_; }
    const BranchPredParams &bpParams() const { return bpParams_; }

  private:
    MemHierarchy::Params memParams_;
    BranchPredParams bpParams_;
};

/**
 * Run @p emu until at least @p inst_bound instructions have executed
 * (or the program exits; a no-op when it is already there), feeding
 * the fetch, branch and data streams into @p warm: one I$ access per
 * fetched block, every data access, every control outcome trained
 * into the predictor. One Emulator::runUntil() with an access sink,
 * so the decoded engine runs at full speed. All accesses are fed at
 * cycle 0: tag fills are eager, so the warmed tables are independent
 * of timing.
 */
void warmStep(Emulator &emu, WarmState &warm,
              std::uint64_t inst_bound);

/**
 * Functionally warmed state of an N-core System: per-core private
 * L1s and branch predictors over one shared L2/L3 stack, with a
 * warming-mode CoherenceBus keeping the MESI directory and the L1
 * tag arrays in lockstep. The shared stack is the System's own type
 * (SharedStack), and the per-core hierarchies attach to it the way
 * the System's cores do -- so injecting this state into a System of
 * the same geometry is a level-by-level copy.
 *
 * Warming is tag-pure: the bus's latency penalties are computed and
 * discarded (tag fills are eager and cycle-independent), so the warm
 * state depends only on the mem/bpred geometry and the core count,
 * never on the snoop latencies or the RENO configuration.
 */
class SysWarmState
{
  public:
    SysWarmState(const MemHierarchy::Params &mem_params,
                 const BranchPredParams &bp_params,
                 unsigned num_cores);

    /** Deep clone (the hierarchy graph is not copyable). */
    SysWarmState(const SysWarmState &other);
    SysWarmState &operator=(const SysWarmState &) = delete;

    unsigned numCores() const { return numCores_; }

    MemHierarchy &coreMem(unsigned i) { return *coreMem_[i]; }
    const MemHierarchy &coreMem(unsigned i) const
    {
        return *coreMem_[i];
    }
    BranchPredictor &coreBp(unsigned i) { return coreBps_[i]; }
    const BranchPredictor &coreBp(unsigned i) const
    {
        return coreBps_[i];
    }
    /** Last I$ block fed per core (see WarmState::lastFetchBlock). */
    Addr &lastFetchBlock(unsigned i) { return lastFetchBlock_[i]; }
    Addr lastFetchBlock(unsigned i) const
    {
        return lastFetchBlock_[i];
    }

    SharedStack &sharedStack() { return shared_; }
    const SharedStack &sharedStack() const { return shared_; }

    CoherenceBus &bus() { return *bus_; }
    const CoherenceBus &bus() const { return *bus_; }

    const MemHierarchy::Params &memParams() const { return memParams_; }
    const BranchPredParams &bpParams() const { return bpParams_; }

  private:
    MemHierarchy::Params memParams_;
    BranchPredParams bpParams_;
    unsigned numCores_;

    SharedStack shared_;
    std::unique_ptr<CoherenceBus> bus_;
    std::vector<std::unique_ptr<MemHierarchy>> coreMem_;
    std::vector<BranchPredictor> coreBps_;
    std::vector<Addr> lastFetchBlock_;
};

/**
 * Interleaved functional warming of an N-core System: advance the
 * emulators until their aggregate executed-instruction count reaches
 * @p aggregate_bound (or every program exits), feeding each core's
 * fetch/branch/data streams into its slice of @p warm through the
 * shared stack and the warming bus, each core through its own access
 * sink (see warmStep).
 *
 * The interleave rule is stateless -- always advance the live
 * emulator with the fewest executed instructions, ties to the lowest
 * core id -- which produces the canonical one-instruction round-robin
 * in core order and, crucially, resumes bit-exactly from a chop at
 * ANY aggregate bound: warming composes across checkpoint boundaries
 * exactly like the single-core warmStep. Each turn is a one-
 * instruction Emulator::runUntil(), which resumes from the engine's
 * mid-block cursor.
 */
void warmStepMulti(const std::vector<Emulator *> &emus,
                   SysWarmState &warm,
                   std::uint64_t aggregate_bound);

} // namespace reno::sample
