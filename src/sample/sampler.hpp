/**
 * @file
 * The sampled-simulation driver: turns (workloads x configurations)
 * into per-interval campaign jobs, so intervals parallelize across the
 * worker pool and hit the content-addressed result cache exactly like
 * full simulations.
 *
 * Per workload the sampler (1) obtains a functional profile (dynamic
 * instruction count) -- from the checkpoint store when warm, else by
 * one functional pass, (2) plans systematically-spaced intervals, and
 * (3) submits one sweep::Job per (workload, config, interval), all in
 * one campaign. The jobs of a (workload, warm group) share a
 * CheckpointFeed: the campaign announces the jobs that miss the result
 * cache, the first of them to start at an interval has the workload's
 * single ascending warming pass capture that interval's checkpoint (or
 * loads it from `<cache-dir>/ckpt`), and the last of them frees it. So
 * a checkpoint is captured only when some job needs it, a warm rerun
 * does no emulation, and memory holds a few checkpoints per worker,
 * not every workload's every interval.
 *
 * Everything is deterministic: sampled reports are byte-identical
 * across --jobs 1 and --jobs N and across cold/warm caches.
 */
#pragma once

#include <string>
#include <vector>

#include "sample/checkpoint.hpp"
#include "sample/interval.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"

namespace reno::sample
{

/** Sampling plan plus the standard campaign-engine knobs. */
struct SampleOptions {
    SamplePlan plan;
    sweep::CampaignOptions campaign;
};

/** Whole-program estimate for one (workload, configuration). */
struct SampledRun {
    const Workload *workload = nullptr;
    std::string config;
    unsigned numCores = 1;  //!< cores the configuration runs
    SampledEstimate est;
};

/** All estimates of one sampled campaign, plus engine counters. */
struct SampledCampaign {
    std::vector<SampledRun> runs;
    sweep::CampaignStats stats;
};

/**
 * Sample every workload under every configuration. Results come back
 * in (workload-major, then configuration) order.
 */
SampledCampaign
runSampledCampaign(const std::vector<const Workload *> &workloads,
                   const std::vector<NamedConfig> &configs,
                   const SampleOptions &options);

/** One row of a sampled-vs-full validation. */
struct ValidationRow {
    const Workload *workload = nullptr;
    std::string config;
    unsigned numCores = 1;  //!< cores the configuration runs
    std::uint64_t totalInsts = 0;
    std::uint64_t sampledInsts = 0;  //!< detailed insts measured
    double fullIpc = 0.0;
    double sampledIpc = 0.0;
    double errorPct = 0.0;  //!< signed (sampled - full) / full * 100
    double ipcCi95 = 0.0;
    /** Signed per-core IPC error (%) by CoreStatSlot, one entry per
     *  occupied slot (min(numCores, NumCoreStatSlots)); empty on a
     *  single core, where the whole-machine error is the per-core
     *  error. Each entry folds into maxAbsErrorPct. */
    std::vector<double> coreErrPct;
};

/** Sampled-vs-full comparison over a workload/configuration set. */
struct ValidationReport {
    std::vector<ValidationRow> rows;
    double maxAbsErrorPct = 0.0;
    double fullSeconds = 0.0;     //!< wall clock, full campaign
    double sampledSeconds = 0.0;  //!< wall clock, sampled campaign
    sweep::CampaignStats fullStats;
    sweep::CampaignStats sampledStats;

    double
    speedup() const
    {
        return sampledSeconds > 0.0 ? fullSeconds / sampledSeconds
                                    : 0.0;
    }
};

/**
 * Run every (workload, config) both ways -- full detailed simulation
 * and sampled -- and report the per-workload IPC error. Timings are
 * wall clock and go to the report struct only (render them to stderr,
 * never into the deterministic report body).
 */
ValidationReport
validateSampling(const std::vector<const Workload *> &workloads,
                 const std::vector<NamedConfig> &configs,
                 const SampleOptions &options);

/** Render sampled estimates via the standard report emitters. */
std::string renderSampled(const SampledCampaign &campaign,
                          sweep::ReportFormat format);

/** Render a validation report (deterministic fields only). */
std::string renderValidation(const ValidationReport &report,
                             sweep::ReportFormat format);

} // namespace reno::sample
