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
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/textfile.hpp"
#include "emu/emulator.hpp"
#include "sample/interval.hpp"
#include "sample/warmup.hpp"
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
 * Thread-safe store of sampled-simulation checkpoints and functional
 * profiles, in memory and (when constructed with a directory) on
 * disk, one text file per key, through the same TextFileStore as
 * sweep::ResultCache.
 */
class CheckpointStore
{
  public:
    /** @param dir  persistence directory; empty = in-memory only. */
    explicit CheckpointStore(std::string dir = "");

    /**
     * Look up the checkpoint at (workload, start, warm params, core
     * count); memory first, then disk. Returns an unusable (empty)
     * SampleCheckpoint on a miss.
     */
    SampleCheckpoint lookup(const Workload &workload,
                            std::uint64_t start_inst,
                            const MemHierarchy::Params &mem_params,
                            const BranchPredParams &bp_params,
                            unsigned num_cores = 1);

    /** Insert a single-core checkpoint (memory, plus disk when
     *  persistent). */
    SampleCheckpoint
    store(const Workload &workload, std::uint64_t start_inst,
          EmuCheckpoint emu, const WarmState &warm);

    /** Insert a multi-core checkpoint: one functional snapshot per
     *  core (core order, warm.numCores() of them) plus the shared
     *  warmed system state, which is cloned. */
    SampleCheckpoint
    storeMulti(const Workload &workload, std::uint64_t start_inst,
               std::vector<EmuCheckpoint> emus,
               const SysWarmState &warm);

    bool lookupProfile(std::uint64_t key, FuncProfile *out);
    void storeProfile(std::uint64_t key, const FuncProfile &profile);

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
    /** Key @p ckpt by (workload, start, warm digest) into memory and,
     *  when persistent, disk. */
    SampleCheckpoint insert(const Workload &workload,
                            std::uint64_t start_inst,
                            std::uint64_t warm_digest,
                            SampleCheckpoint ckpt);

    std::mutex mu_;
    std::map<std::uint64_t, SampleCheckpoint> mem_;
    std::map<std::uint64_t, FuncProfile> profiles_;
    TextFileStore files_;
};

} // namespace reno::sample
