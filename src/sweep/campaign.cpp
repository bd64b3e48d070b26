#include "sweep/campaign.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "common/clock.hpp"
#include "common/digest.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "sweep/thread_pool.hpp"

namespace reno::sweep
{

namespace
{

/** Upper bound of --jobs / RENO_JOBS: anything an unsigned holds. */
constexpr std::uint64_t MaxJobs = std::numeric_limits<unsigned>::max();

} // namespace

unsigned
resolveJobCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("RENO_JOBS")) {
        if (const auto n = parseUnsigned(env, 1, MaxJobs))
            return unsigned(*n);
        warn("ignoring invalid RENO_JOBS='%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
addCampaignFlags(FlagTable &table, CampaignOptions *opts)
{
    table.section("execution");
    table.number("--jobs", "N",
                 "worker threads (default: RENO_JOBS env, else all "
                 "cores)",
                 &opts->jobs, 1, MaxJobs);
    table.value("--cache-dir", "DIR",
                "persistent result cache (sampling checkpoints go under "
                "DIR/ckpt); a warm rerun performs zero simulations",
                [opts](const std::string &v) {
                    if (v.empty())
                        fatal("--cache-dir expects a directory path");
                    opts->cacheDir = v;
                });
    table.flag("--sweep-stats", "execution summary on stderr",
               &opts->stats);
}

std::size_t
Campaign::add(Job job)
{
    if (!job.workload)
        fatal("campaign job has no workload");
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

std::size_t
Campaign::add(const Workload &workload, const NamedConfig &config,
              const std::string &tag, bool want_cpa)
{
    Job job;
    job.workload = &workload;
    job.config = config;
    job.tag = tag;
    job.wantCpa = want_cpa;
    return add(std::move(job));
}

void
Campaign::addCross(const std::vector<const Workload *> &workloads,
                   const std::vector<NamedConfig> &configs,
                   const std::string &tag)
{
    for (const Workload *w : workloads) {
        for (const NamedConfig &cfg : configs)
            add(*w, cfg, tag);
    }
}

JobResult
executeJob(const Job &job)
{
    JobResult r;
    if (job.sampled()) {
        if (job.wantCpa)
            fatal("critical-path analysis is not supported for "
                  "sampled jobs");
        const sample::SampleCheckpoint ckpt =
            job.checkpoints ? job.checkpoints->take(job.window)
                            : sample::SampleCheckpoint{};
        r.sim = sample::runIntervalDetailed(*job.workload,
                                            job.config.params,
                                            job.window, &ckpt);
        return r;
    }
    if (job.wantCpa) {
        CriticalPathAnalyzer cpa(CriticalPathAnalyzer::DefaultChunk,
                                 job.config.params.robEntries,
                                 job.config.params.iqEntries);
        RunOutput run =
            runWorkload(*job.workload, job.config.params, &cpa);
        r.sim = run.sim;
        r.hot = std::move(run.hot);
        r.hasCpa = true;
        r.cpaWeights = cpa.buckets();
    } else {
        RunOutput run = runWorkload(*job.workload, job.config.params);
        r.sim = run.sim;
        r.hot = std::move(run.hot);
    }
    return r;
}

CampaignResults
Campaign::run(const CampaignOptions &options) const
{
    const unsigned workers = resolveJobCount(options.jobs);

    ResultCache local_cache(options.cacheDir);
    ResultCache &cache = options.cache ? *options.cache : local_cache;

    // Deduplicate by content digest: one work slot per distinct job.
    struct Slot {
        const Job *job;
        std::uint64_t digest;
        JobResult result;
        bool ready = false;
    };
    std::vector<Slot> slots;
    std::map<std::uint64_t, std::size_t> slot_index;
    std::vector<std::size_t> job_slot(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const std::uint64_t digest = jobDigest(jobs_[i]);
        auto [it, inserted] =
            slot_index.emplace(digest, slots.size());
        if (inserted)
            slots.push_back(Slot{&jobs_[i], digest, {}, false});
        job_slot[i] = it->second;
    }

    CampaignResults out;
    out.jobs_ = jobs_;
    // Results outlive the run; the checkpoint feeds must not.
    for (Job &job : out.jobs_)
        job.checkpoints.reset();
    out.stats_.jobs = jobs_.size();
    out.stats_.unique = slots.size();
    out.stats_.workers = workers;

    auto &metrics = obs::MetricsRegistry::instance();
    auto &progress = obs::ProgressMeter::instance();
    auto &tracer = obs::Tracer::instance();
    progress.addTotal(slots.size());

    // Satisfy from the cache first.
    std::vector<Slot *> misses;
    for (Slot &slot : slots) {
        if (cache.lookup(slot.digest, &slot.result)) {
            slot.ready = true;
            ++out.stats_.cacheHits;
            if (tracer.enabled()) {
                tracer.instant("cache-hit:" +
                                   slot.job->workload->name + "/" +
                                   slot.job->config.name,
                               "cache",
                               obs::TraceArgs()
                                   .add("digest",
                                        digestHex(slot.digest))
                                   .str());
            }
            progress.jobDone(0, true);
        } else {
            misses.push_back(&slot);
        }
    }

    // Announce every sampled job about to execute to its checkpoint
    // feed, so each checkpoint lives only until its last job takes it.
    for (const Slot *slot : misses) {
        if (slot->job->checkpoints)
            slot->job->checkpoints->expect(slot->job->window);
    }

    // Simulate the misses: inline when serial, else on the pool. The
    // results land in pre-allocated slots, so collection order (and
    // therefore all downstream output) is independent of scheduling.
    out.stats_.simulated = misses.size();

    // Host-side engine telemetry only: timing never feeds back into
    // the simulated results, which stay byte-identical with obs off.
    std::atomic<std::uint64_t> busy_micros{0};
    auto run_slot = [&](Slot *slot, std::uint64_t enqueue_us) {
        const std::uint64_t start_us = steadyClock().nowMicros();
        metrics.histogram("sweep.job.queue_wait_ms")
            .record(static_cast<double>(start_us - enqueue_us) / 1e3);
        {
            obs::TraceSpan span(
                "job:" + slot->job->workload->name + "/" +
                    slot->job->config.name,
                "job",
                obs::TraceArgs()
                    .add("workload", slot->job->workload->name)
                    .add("config", slot->job->config.name)
                    .add("tag", slot->job->tag)
                    .add("digest", digestHex(slot->digest))
                    .add("sampled",
                         std::uint64_t(slot->job->sampled() ? 1 : 0))
                    .add("cache", "miss")
                    .str());
            slot->result = executeJob(*slot->job);
        }
        const std::uint64_t end_us = steadyClock().nowMicros();
        busy_micros.fetch_add(end_us - start_us,
                              std::memory_order_relaxed);
        metrics.histogram("sweep.job.latency_ms")
            .record(static_cast<double>(end_us - start_us) / 1e3);
        progress.jobDone(slot->result.sim.retired, false);
        slot->ready = true;
    };

    const std::uint64_t exec_start_us = steadyClock().nowMicros();
    unsigned used_workers = 1;
    if (workers <= 1 || misses.size() <= 1) {
        for (Slot *slot : misses)
            run_slot(slot, steadyClock().nowMicros());
    } else {
        ThreadPool pool(
            unsigned(std::min<std::size_t>(workers, misses.size())));
        used_workers = pool.numWorkers();
        for (Slot *slot : misses) {
            const std::uint64_t enqueue_us = steadyClock().nowMicros();
            pool.submit([&run_slot, slot, enqueue_us] {
                run_slot(slot, enqueue_us);
            });
        }
        pool.waitIdle();
    }
    const std::uint64_t exec_wall_us =
        steadyClock().nowMicros() - exec_start_us;

    for (Slot *slot : misses)
        cache.store(slot->digest, slot->result);

    metrics.counter("sweep.jobs.submitted").inc(out.stats_.jobs);
    metrics.counter("sweep.jobs.unique").inc(out.stats_.unique);
    metrics.counter("sweep.jobs.simulated").inc(out.stats_.simulated);
    metrics.counter("sweep.jobs.cache_hits").inc(out.stats_.cacheHits);
    metrics.gauge("sweep.pool.workers")
        .set(static_cast<double>(used_workers));
    if (!misses.empty() && exec_wall_us) {
        metrics.gauge("sweep.pool.utilization")
            .set(static_cast<double>(
                     busy_micros.load(std::memory_order_relaxed)) /
                 (static_cast<double>(used_workers) *
                  static_cast<double>(exec_wall_us)));
    }
    metrics.gauge("sweep.cache.hit_ratio").set(cache.hitRatio());
    metrics.gauge("sweep.cache.memory_hits")
        .set(static_cast<double>(cache.memoryHits()));
    metrics.gauge("sweep.cache.disk_hits")
        .set(static_cast<double>(cache.diskHits()));
    metrics.gauge("sweep.cache.misses")
        .set(static_cast<double>(cache.misses()));
    metrics.gauge("sweep.cache.stores")
        .set(static_cast<double>(cache.stores()));

    out.results_.reserve(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const Slot &slot = slots[job_slot[i]];
        if (!slot.ready)
            panic("campaign slot %zu never completed", job_slot[i]);
        out.results_.push_back(slot.result);
    }

    if (options.stats) {
        std::fprintf(stderr,
                     "[sweep] %zu jobs, %zu unique, %zu simulated, "
                     "%zu cache hits, %u workers\n",
                     out.stats_.jobs, out.stats_.unique,
                     out.stats_.simulated, out.stats_.cacheHits,
                     workers);
        std::fprintf(
            stderr,
            "[sweep] cache: %llu memory hits, %llu disk hits, "
            "%llu misses, %llu stores\n",
            static_cast<unsigned long long>(cache.memoryHits()),
            static_cast<unsigned long long>(cache.diskHits()),
            static_cast<unsigned long long>(cache.misses()),
            static_cast<unsigned long long>(cache.stores()));
        const auto &latency =
            metrics.histogram("sweep.job.latency_ms");
        if (latency.count() > 0) {
            std::fprintf(stderr,
                         "[sweep] job latency ms: p50 %.1f p95 %.1f "
                         "p99 %.1f\n",
                         latency.percentile(50.0),
                         latency.percentile(95.0),
                         latency.percentile(99.0));
        }
    }
    return out;
}

const JobResult &
CampaignResults::get(const std::string &workload,
                     const std::string &config,
                     const std::string &tag) const
{
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const Job &j = jobs_[i];
        if (j.workload->name == workload && j.config.name == config &&
            j.tag == tag)
            return results_[i];
    }
    fatal("campaign has no job (workload='%s', config='%s', tag='%s')",
          workload.c_str(), config.c_str(), tag.c_str());
}

} // namespace reno::sweep
