/**
 * @file
 * The interval engine of the sampled-simulation subsystem
 * (SimpleScalar-lineage fast-forward + interval sampling): fast-forward
 * functionally to an interval's start (optionally from a checkpoint),
 * run the detailed core through a warmup window (branch predictor,
 * caches and integration table warming; stats discarded) and then a
 * measured window, and aggregate per-interval measurements into a
 * whole-program estimate with error bars.
 *
 * All statistics in SimResult are monotonic counters, so "freezing"
 * stats during warmup is exact: a window's contribution is the
 * difference of two result() snapshots.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "emu/emulator.hpp"
#include "sample/warmup.hpp"
#include "uarch/core.hpp"
#include "uarch/params.hpp"
#include "workloads/workloads.hpp"

namespace reno::sample
{

/** Sampling knobs: how many intervals, how warm, how long. */
struct SamplePlan {
    std::uint64_t intervals = 10;     //!< measured windows per program
    std::uint64_t warmupInsts = 2000; //!< detailed warmup before each
    std::uint64_t measureInsts = 5000; //!< measured window length
    /**
     * Length of the exactly-measured cold stratum at the program
     * start; 0 (the default) means one tenth of the program. Program
     * startup -- compulsory misses, data-structure initialization,
     * gradual warm-in -- is transient, not stationary, so
     * extrapolating a sampled window across it biases the estimate;
     * instead the cold stratum is simulated in full with cold
     * caches, exactly as a full run executes it, and only the
     * remainder is sampled.
     */
    std::uint64_t coldInsts = 0;
};

/**
 * One interval of a sampled run: fast-forward to startInst, warm up
 * the detailed core for warmupInsts, measure measureInsts.
 * measureInsts == 0 means "not sampled" (a full detailed run).
 */
struct IntervalWindow {
    std::uint64_t startInst = 0;
    std::uint64_t warmupInsts = 0;
    std::uint64_t measureInsts = 0;

    bool operator==(const IntervalWindow &other) const = default;
};

/** One planned interval: the window plus aggregation metadata. */
struct PlannedInterval {
    IntervalWindow window;
    /** Dynamic instructions this interval represents (its stratum). */
    std::uint64_t repInsts = 0;
    /** Exactly measured stratum (measurement == representation); its
     *  per-interval IPC is excluded from the variance estimate. */
    bool exact = false;
};

/**
 * Stratified systematic placement. The first stratum -- the cold
 * program start -- is measured exactly (cold caches, no warmup;
 * plan.coldInsts instructions, or a tenth of the program when 0).
 * The remaining stream is divided into plan.intervals - 1 equal
 * strides with one warmup+measurement window centered in each. A
 * plan that would execute at least a third of the program (or a
 * single-interval plan) degenerates to one exact full-program
 * interval.
 */
std::vector<PlannedInterval> planIntervals(std::uint64_t total_insts,
                                           const SamplePlan &plan);

/** Field-wise difference of two monotonic result snapshots. */
SimResult deltaResult(const SimResult &post, const SimResult &pre);

/** Field-wise accumulation (for whole-program aggregation). */
void accumulateResult(SimResult &into, const SimResult &add);

/**
 * A sampled-simulation checkpoint: the functional state plus the
 * functionally warmed cache/predictor tables at the same instruction
 * position. Both halves are derived deterministically from (kernel,
 * seed, position[, mem+bpred params]), so a checkpoint accelerates a
 * job without being part of its content digest.
 */
struct SampleCheckpoint {
    std::shared_ptr<const EmuCheckpoint> emu;  //!< core 0
    /** Single-core warmed tables; null on multi-core checkpoints
     *  (which warm through sysWarm instead). */
    std::shared_ptr<const WarmState> warm;
    /** Remaining cores' functional checkpoints on a multi-core
     *  System (entry i is core i + 1): every core runs its own
     *  emulator, so each needs its own functional snapshot. Empty on
     *  a single-core checkpoint. */
    std::vector<std::shared_ptr<const EmuCheckpoint>> extraEmus;
    /** Multi-core warmed state: shared stack, MESI directory and the
     *  per-core L1/bpred slices. Null on single-core checkpoints. */
    std::shared_ptr<const SysWarmState> sysWarm;

    /** Cores this checkpoint snapshots. */
    unsigned
    numCores() const
    {
        return 1 + static_cast<unsigned>(extraEmus.size());
    }

    /** Aggregate instruction position (the sum over the cores). */
    std::uint64_t
    instCount() const
    {
        std::uint64_t total = emu ? emu->instCount : 0;
        for (const auto &extra : extraEmus)
            total += extra ? extra->instCount : 0;
        return total;
    }

    bool
    usable() const
    {
        if (emu == nullptr)
            return false;
        for (const auto &extra : extraEmus) {
            if (extra == nullptr)
                return false;
        }
        if (extraEmus.empty())
            return warm != nullptr;
        return sysWarm != nullptr &&
               sysWarm->numCores() == numCores();
    }
};

/**
 * Execute one interval on a System of params.sys.numCores cores (a
 * single-core window is a 1-core System). The interval's semantics
 * are fixed: caches and branch predictors functionally warmed over
 * the FULL history [0, startInst), then warmupInsts of detailed
 * warmup, then the measured window's stats delta. Positions and
 * lengths are AGGREGATE retired-instruction counts -- the sum over
 * the cores -- matching the deterministic interleave of warmStepMulti
 * and System::runUntilRetired. The warmed tables come from a
 * WarmState on one core and a SysWarmState (shared stack, MESI
 * directory, per-core L1s and predictors) on more.
 *
 * A usable checkpoint at or before startInst, of the same core count
 * and warm-state parameters, only accelerates the warming -- results
 * are bit-identical with or without it; any other checkpoint is
 * ignored. Returns an all-zero SimResult when every program ends
 * before the measured window begins.
 */
SimResult runIntervalDetailed(const Workload &workload,
                              const CoreParams &params,
                              const IntervalWindow &window,
                              const SampleCheckpoint *ckpt = nullptr);

/** Whole-program estimate aggregated from measured windows. */
struct SampledEstimate {
    std::uint64_t totalInsts = 0;   //!< full dynamic instruction count
    unsigned intervals = 0;         //!< windows planned
    unsigned measuredIntervals = 0; //!< windows that measured anything
    SimResult sum;                  //!< summed measured windows

    double ipc = 0.0;      //!< stratified whole-program estimate
    double ipcCi95 = 0.0;  //!< 95% confidence half-width on the mean
    std::uint64_t estCycles = 0;  //!< stratified cycle estimate

    /** Stratified per-core IPC estimates by CoreStatSlot (cores
     *  beyond the last slot aggregate into it, like SimResult's
     *  per-core arrays). Slots that measured nothing hold 0; on a
     *  single core, slot 0 equals the whole-machine estimate. */
    std::array<double, NumCoreStatSlots> coreIpcEst{};

    std::vector<double> intervalIpc;  //!< per sampled (non-exact) window

    /** Extrapolated whole-program CPI stack by CpiBucket, summed
     *  over the core slots (same stratified estimator as estCycles,
     *  so the buckets sum to estCycles up to rounding). */
    std::array<double, NumCpiBuckets> cpiEst{};
};

/**
 * Stratified aggregation: each interval's measured cycles are scaled
 * to the stratum it represents (estCycles = sum_i cycles_i *
 * repInsts_i / retired_i), so an exactly-measured cold stratum
 * contributes its true cost and sampled strata extrapolate theirs.
 * @p windows must align one-to-one with @p plan (planIntervals
 * order). The per-core slots and the CPI-stack buckets extrapolate
 * with the same stratum scale.
 */
SampledEstimate aggregateIntervals(std::uint64_t total_insts,
                                   const std::vector<PlannedInterval> &plan,
                                   const std::vector<SimResult> &windows);

} // namespace reno::sample
