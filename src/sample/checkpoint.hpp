/**
 * @file
 * Checkpoints as cacheable artifacts. A sampled-simulation checkpoint
 * -- functional state plus functionally warmed cache/predictor tables
 * -- is fully determined by (kernel source, input seed, instruction
 * position, mem+bpred parameters), so it is keyed, like simulation
 * results, by a content digest of exactly those inputs, and optionally
 * persisted one text file per key (<key>.ckpt, common/textfile.hpp);
 * the sampler puts them in the ckpt/ subdirectory of --cache-dir.
 * Each persisted checkpoint carries a digest of its own contents, and
 * decoding is strict, so a corrupt, truncated or resealed-but-invalid
 * file is warned about, ignored and regenerated instead of being
 * restored.
 *
 * The store also keeps one tiny "functional profile" per (kernel,
 * seed, core count), <key>.prof: the program's dynamic instruction
 * count and final memory digest, which interval planning needs before
 * any checkpoint exists.
 *
 * A sampled campaign does not keep its checkpoints: a CheckpointFeed
 * captures each one when the first interval job needs it and drops it
 * when the last one has taken it, so a campaign's memory holds a
 * handful of checkpoints, not every workload's every interval.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/textfile.hpp"
#include "emu/emulator.hpp"
#include "sample/interval.hpp"
#include "sample/warmup.hpp"
#include "uarch/params.hpp"
#include "workloads/workloads.hpp"

namespace reno::sample
{

/** Result of a whole-program functional pass (planning input). */
struct FuncProfile {
    std::uint64_t totalInsts = 0;
    /** Final memory digest of the functional pass. Recorded and
     *  persisted for diagnostics (cross-checking a cached profile
     *  against a fresh runFunctional by hand); not verified
     *  automatically. */
    std::uint64_t memDigest = 0;
};

/** Content digest over every field of a functional checkpoint. */
std::uint64_t checkpointDigest(const EmuCheckpoint &ckpt);

/** Cache key of the checkpoint at @p start_inst of a workload under
 *  @p warm_digest (a warmConfigDigest value). */
std::uint64_t checkpointKey(const Workload &workload,
                            std::uint64_t start_inst,
                            std::uint64_t warm_digest);

/** Cache key of a workload's functional profile. A multi-core
 *  profile (aggregate SPMD instruction count over @p num_cores
 *  emulator streams) keys separately; single-core keys are unchanged
 *  from before multi-core sampling existed, so existing caches stay
 *  valid. */
std::uint64_t profileKey(const Workload &workload,
                         unsigned num_cores = 1);

/**
 * Thread-safe disk store of sampled-simulation checkpoints and
 * functional profiles, one text file per key, through the same
 * TextFileStore as sweep::ResultCache. It keeps nothing in memory:
 * a store without a directory persists nothing and misses every
 * lookup, and its store() calls only build the checkpoint they return.
 */
class CheckpointStore
{
  public:
    /** @param dir  persistence directory; empty = persist nothing. */
    explicit CheckpointStore(std::string dir = "");

    /**
     * Look up the checkpoint at (workload, start, warm params, core
     * count) on disk. Returns an unusable (empty) SampleCheckpoint on
     * a miss.
     */
    SampleCheckpoint lookup(const Workload &workload,
                            std::uint64_t start_inst,
                            const MemHierarchy::Params &mem_params,
                            const BranchPredParams &bp_params,
                            unsigned num_cores = 1) const;

    /** Build a single-core checkpoint (the warm state is cloned) and
     *  persist it when the store has a directory. */
    SampleCheckpoint
    store(const Workload &workload, std::uint64_t start_inst,
          EmuCheckpoint emu, const WarmState &warm) const;

    /** Build a multi-core checkpoint -- one functional snapshot per
     *  core (core order, warm.numCores() of them) plus the shared
     *  warmed system state, which is cloned -- and persist it when
     *  the store has a directory. */
    SampleCheckpoint
    storeMulti(const Workload &workload, std::uint64_t start_inst,
               std::vector<EmuCheckpoint> emus,
               const SysWarmState &warm) const;

    bool lookupProfile(std::uint64_t key, FuncProfile *out) const;
    void storeProfile(std::uint64_t key,
                      const FuncProfile &profile) const;

    /** Serialize / parse the checkpoint persistence format. decode()
     *  rebuilds the warm state onto models constructed from the given
     *  parameters and requires the file to snapshot exactly
     *  @p expected_cores cores; any mismatch or corruption returns
     *  false (and, when @p why is non-null, names the reason). */
    static std::string encode(const SampleCheckpoint &ckpt);
    static bool decode(const std::string &text,
                       const MemHierarchy::Params &mem_params,
                       const BranchPredParams &bp_params,
                       SampleCheckpoint *out,
                       unsigned expected_cores = 1,
                       std::string *why = nullptr);

    /** decode() that fatal()s with the rejection reason instead of
     *  returning false -- for callers (and tests) that treat a
     *  malformed checkpoint as a hard error. */
    static SampleCheckpoint
    decodeOrDie(const std::string &text,
                const MemHierarchy::Params &mem_params,
                const BranchPredParams &bp_params,
                unsigned expected_cores = 1);

    /** Serialize / parse the profile persistence format. */
    static std::string encodeProfile(const FuncProfile &profile);
    static bool decodeProfile(const std::string &text,
                              FuncProfile *out,
                              std::string *why = nullptr);

  private:
    /** Persist @p ckpt under (workload, start, warm digest) when the
     *  store has a directory; returns it. */
    SampleCheckpoint persist(const Workload &workload,
                             std::uint64_t start_inst,
                             std::uint64_t warm_digest,
                             SampleCheckpoint ckpt) const;

    TextFileStore files_;
};

/**
 * The checkpoints of one workload's interval plan under one warm
 * configuration, handed to a running campaign's interval jobs
 * (sweep::Job::checkpoints) so that each exists only from its capture
 * to the last job that resumes from it.
 *
 * The campaign engine announces every job it is about to execute with
 * expect(), before any starts; each job take()s its checkpoint when it
 * starts. The first take() at or past an interval resolves every
 * announced interval up to it, in ascending order: from the store's
 * disk tier when it holds the checkpoint, else by one forward warming
 * pass that snapshots (and persists) it. A resolved checkpoint is kept
 * until its last announced job has taken it; the warming pass is
 * dropped once no announced interval lies ahead of it. A take() that
 * no expect() announced gets an empty checkpoint, so its job warms
 * from the program start instead -- slower, same result.
 *
 * Thread-safe: one feed's jobs may run on several workers at once.
 * Taking a resolved checkpoint never waits for the warming pass.
 */
class CheckpointFeed
{
  public:
    /** @p params supplies the warm-state parameters and core count;
     *  @p windows is the interval plan (planIntervals order). */
    CheckpointFeed(const Workload &workload, const CoreParams &params,
                   const std::vector<PlannedInterval> &windows,
                   CheckpointStore store);
    ~CheckpointFeed();

    /** Announce one job that will take the checkpoint of @p window. */
    void expect(const IntervalWindow &window);

    /** The checkpoint at @p window's start (see the class comment). */
    SampleCheckpoint take(const IntervalWindow &window);

  private:
    struct Pass;

    /** Index of @p window's start in starts_, or starts_.size(). */
    std::size_t position(const IntervalWindow &window) const;
    /** starts_[i]'s checkpoint, from disk or the warming pass. */
    SampleCheckpoint resolve(std::size_t i);
    /** Hand out resolved position @p i to one announced job. */
    SampleCheckpoint handOut(std::size_t i);

    const Workload &workload_;
    const CoreParams params_;
    const CheckpointStore store_;
    /** Distinct window starts, ascending: one checkpoint each. */
    std::vector<std::uint64_t> starts_;

    std::mutex mu_;  //!< guards the three members below
    /** Announced jobs that have yet to take each position. */
    std::vector<unsigned> pending_;
    /** Resolved checkpoints some announced job has yet to take. */
    std::vector<SampleCheckpoint> held_;
    /** Positions [0, resolved_) are resolved. */
    std::size_t resolved_ = 0;

    /** Serializes resolution; guards pass_. */
    std::mutex passMu_;
    std::unique_ptr<Pass> pass_;
};

/**
 * Test hook: when set, every checkpoint a CheckpointFeed resolves
 * (captured or loaded from disk) is passed to @p observer before any
 * job takes it; an empty function unsets it. Set it only while no
 * campaign runs; the observer may be called from several workers at
 * once.
 */
void setCheckpointObserver(
    std::function<void(const SampleCheckpoint &)> observer);

} // namespace reno::sample
