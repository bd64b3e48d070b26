/**
 * @file
 * The simulation-campaign engine. A campaign is a declarative set of
 * jobs (workload x configuration [x CPA]); the engine
 *
 *   - content-digests every job and deduplicates identical work, so a
 *     figure that re-measures the same baseline dozens of times
 *     simulates it once,
 *   - satisfies jobs from the result cache (in-memory, optionally
 *     disk-persistent) before simulating anything,
 *   - executes the remaining unique jobs on a worker thread pool sized
 *     to the host (overridable via --jobs / RENO_JOBS), and
 *   - collects results in submission order, so parallel output is
 *     bit-identical to a serial run.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "sweep/job.hpp"
#include "sweep/result_cache.hpp"

namespace reno::sweep
{

/** Engine knobs; addCampaignFlags() reads them from the command line. */
struct CampaignOptions {
    /** Worker threads; 0 = RENO_JOBS env, else
     *  std::thread::hardware_concurrency(). 1 = run serially inline. */
    unsigned jobs = 0;
    /** Result-cache persistence directory ("" = in-memory only). */
    std::string cacheDir;
    /** Share a cache across several run() calls (overrides cacheDir). */
    ResultCache *cache = nullptr;
    /** Print an execution summary to stderr after the run. */
    bool stats = false;
};

/** Resolve a --jobs request against RENO_JOBS and the host. */
unsigned resolveJobCount(unsigned requested);

/** Register the engine's flags (--jobs, --cache-dir, --sweep-stats)
 *  into @p table, filling @p *opts. */
void addCampaignFlags(FlagTable &table, CampaignOptions *opts);

/** Execution counters of one run() call. */
struct CampaignStats {
    std::size_t jobs = 0;        //!< jobs submitted
    std::size_t unique = 0;      //!< distinct content digests
    std::size_t simulated = 0;   //!< actually executed simulations
    std::size_t cacheHits = 0;   //!< unique jobs satisfied by cache
    unsigned workers = 0;        //!< worker threads used
};

/** Jobs plus submission-ordered results, with keyed lookup. */
class CampaignResults
{
  public:
    std::size_t size() const { return results_.size(); }

    const Job &job(std::size_t i) const { return jobs_[i]; }
    const JobResult &at(std::size_t i) const { return results_[i]; }

    /** Lookup by (workload name, config name, tag); fatal() if the
     *  campaign contains no such job. */
    const JobResult &get(const std::string &workload,
                         const std::string &config,
                         const std::string &tag = "") const;

    const CampaignStats &stats() const { return stats_; }

  private:
    friend class Campaign;
    std::vector<Job> jobs_;
    std::vector<JobResult> results_;
    CampaignStats stats_;
};

/** A declarative set of simulation jobs. */
class Campaign
{
  public:
    /** Append a job; returns its submission index. */
    std::size_t add(Job job);

    /** Convenience: append (workload, config [, tag [, CPA]]). */
    std::size_t add(const Workload &workload, const NamedConfig &config,
                    const std::string &tag = "", bool want_cpa = false);

    /** Cross-product convenience: every workload under every config. */
    void addCross(const std::vector<const Workload *> &workloads,
                  const std::vector<NamedConfig> &configs,
                  const std::string &tag = "");

    std::size_t size() const { return jobs_.size(); }
    const std::vector<Job> &jobs() const { return jobs_; }

    /**
     * Execute every job and return results in submission order.
     * May be called repeatedly (e.g. with more jobs added); with a
     * shared ResultCache, later runs hit the earlier runs' results.
     */
    CampaignResults run(const CampaignOptions &options = {}) const;

  private:
    std::vector<Job> jobs_;
};

/** Execute one job immediately on the calling thread (no cache). */
JobResult executeJob(const Job &job);

} // namespace reno::sweep
