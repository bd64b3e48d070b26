/**
 * @file
 * Sampled-simulation subsystem tests: interval planning (stratified,
 * cold-exact first stratum), window measurement equal to the full
 * simulation over the same region, checkpoint acceleration that never
 * changes results, encode/decode and disk round-trips of combined
 * functional+warm checkpoints, campaign integration (parallel ==
 * serial, warm cache = zero simulations), and end-to-end estimate
 * accuracy against full detailed simulation. Multi-core sampling is
 * covered at the same depth: checkpoint chop/resume of the
 * interleaved warming (shared stack + MESI directory) is bit-exact at
 * 2 and 4 cores, multi-core checkpoints only accelerate, validation
 * reports per-core errors, the single-core report format is
 * untouched, and malformed checkpoint files die with a named reason.
 * Warming through the decoded engine's access sink is held against
 * the per-step reference loops it replaced, and a stored checkpoint
 * resealed with an impossible functional state is recaptured, not
 * resumed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "asm/assembler.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "sample/checkpoint.hpp"
#include "sample/interval.hpp"
#include "sample/sampler.hpp"
#include "sample/warmup.hpp"
#include "sweep/campaign.hpp"
#include "sweep/result_cache.hpp"
#include "sys/system.hpp"
#include "smc_program.hpp"

using namespace reno;
using namespace reno::sample;

namespace
{

CoreParams
baseParams()
{
    CoreParams p = CoreParams::fourWide();
    p.reno = RenoConfig::baseline();
    return p;
}

/** baseParams() over the l3/pf-stride/wb memory variant: a
 *  three-level shared stack with a stride prefetcher and write-back
 *  traffic. */
CoreParams
deepStackParams()
{
    CoreParams p = baseParams();
    for (const char *token : {"l3", "pf-stride", "wb"})
        EXPECT_TRUE(applyVariant(token, &p)) << token;
    return p;
}

std::vector<const Workload *>
oneWorkload(const char *name)
{
    return {&workloadByName(name)};
}

bool
sameSim(const SimResult &a, const SimResult &b)
{
    return a.cycles == b.cycles && a.retired == b.retired &&
           a.bpMispredicts == b.bpMispredicts &&
           a.dcacheMisses == b.dcacheMisses &&
           a.l2Misses == b.l2Misses &&
           a.violationSquashes == b.violationSquashes &&
           a.eliminatedTotal() == b.eliminatedTotal();
}

} // namespace

// ---- planning -------------------------------------------------------

TEST(Plan, StratifiedShape)
{
    SamplePlan plan;
    plan.intervals = 10;
    plan.warmupInsts = 500;
    plan.measureInsts = 5000;

    const auto planned = planIntervals(1'000'000, plan);
    ASSERT_EQ(planned.size(), 10u);

    // First stratum: exact, cold, from instruction 0.
    EXPECT_TRUE(planned[0].exact);
    EXPECT_EQ(planned[0].window.startInst, 0u);
    EXPECT_EQ(planned[0].window.warmupInsts, 0u);
    EXPECT_EQ(planned[0].window.measureInsts, 100'000u);
    EXPECT_EQ(planned[0].repInsts, 100'000u);

    // Sampled strata: ascending, within bounds, representation
    // covering the remainder exactly.
    std::uint64_t rep = planned[0].repInsts;
    for (std::size_t i = 1; i < planned.size(); ++i) {
        EXPECT_FALSE(planned[i].exact);
        EXPECT_GT(planned[i].window.startInst,
                  planned[i - 1].window.startInst);
        EXPECT_LT(planned[i].window.startInst, 1'000'000u);
        EXPECT_EQ(planned[i].window.measureInsts, 5000u);
        EXPECT_EQ(planned[i].window.warmupInsts, 500u);
        rep += planned[i].repInsts;
    }
    EXPECT_EQ(rep, 1'000'000u);
}

TEST(Plan, TinyProgramDegeneratesToExactFullRun)
{
    SamplePlan plan;  // default 10 x (2000 + 5000) against 120k insts
    const auto planned = planIntervals(120'000, plan);
    ASSERT_EQ(planned.size(), 1u);
    EXPECT_TRUE(planned[0].exact);
    EXPECT_EQ(planned[0].window.measureInsts, 120'000u);
    EXPECT_EQ(planned[0].repInsts, 120'000u);
}

TEST(Plan, MeasuredRegionIndependentOfWarmup)
{
    SamplePlan a, b;
    a.measureInsts = b.measureInsts = 4000;
    a.warmupInsts = 500;
    b.warmupInsts = 4000;
    const auto pa = planIntervals(2'000'000, a);
    const auto pb = planIntervals(2'000'000, b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 1; i < pa.size(); ++i) {
        // Measured window begins at startInst + warmup: anchored.
        EXPECT_EQ(pa[i].window.startInst + pa[i].window.warmupInsts,
                  pb[i].window.startInst + pb[i].window.warmupInsts);
    }
}

TEST(Plan, DeltaAndAccumulateAreInverse)
{
    SimResult a;
    a.cycles = 100;
    a.retired = 70;
    a.dcacheMisses = 5;
    a.elim[1] = 3;
    SimResult b = a;
    b.cycles = 250;
    b.retired = 200;
    b.dcacheMisses = 9;
    b.elim[1] = 11;

    const SimResult d = deltaResult(b, a);
    EXPECT_EQ(d.cycles, 150u);
    EXPECT_EQ(d.retired, 130u);
    EXPECT_EQ(d.dcacheMisses, 4u);
    EXPECT_EQ(d.elim[1], 8u);

    SimResult sum = a;
    accumulateResult(sum, d);
    EXPECT_TRUE(sameSim(sum, b));
}

// ---- interval measurement vs. full simulation -----------------------

TEST(Interval, WindowEqualsFullSimulationOverSameRegion)
{
    // The strongest correctness property of the interval engine: a
    // fully warmed window must reproduce the full simulation's
    // behavior over the same retired-instruction range exactly.
    const Workload &w = workloadByName("gzip");
    const CoreParams params = baseParams();

    const SpmdEmulators emus(w, 1);
    System sys(params, emus.cores());
    const SimResult pre = sys.runUntilRetired(300'000);
    const SimResult full_delta =
        deltaResult(sys.runUntilRetired(305'000), pre);
    const std::uint64_t start = pre.retired;

    IntervalWindow win;
    win.startInst = start - 1000;
    win.warmupInsts = 1000;
    win.measureInsts = full_delta.retired;
    const SimResult sampled = runIntervalDetailed(w, params, win);
    EXPECT_TRUE(sameSim(sampled, full_delta))
        << "sampled " << sampled.cycles << " cycles vs full "
        << full_delta.cycles;
}

TEST(Interval, CheckpointAcceleratesWithoutChangingResults)
{
    const Workload &w = workloadByName("adpcm.dec");
    const CoreParams params = baseParams();
    IntervalWindow win;
    win.startInst = 200'000;
    win.warmupInsts = 500;
    win.measureInsts = 4000;

    // Reference: no checkpoint (warm from the program start).
    const SimResult plain = runIntervalDetailed(w, params, win);

    // Checkpoint exactly at the window start.
    const CheckpointStore store;
    SampleCheckpoint at_start;
    {
        const Program &prog = assembleWorkload(w);
        Emulator::Options opts;
        opts.randSeed = w.seed;
        Emulator emu(prog, opts);
        WarmState warm(params.mem, params.bpred);
        warmStep(emu, warm, win.startInst);
        at_start = store.store(w, win.startInst, emu.checkpoint(), warm);
    }
    ASSERT_TRUE(at_start.usable());
    EXPECT_TRUE(
        sameSim(runIntervalDetailed(w, params, win, &at_start),
                plain));

    // Checkpoint BEFORE the window start (warm-steps the gap).
    SampleCheckpoint before;
    {
        const Program &prog = assembleWorkload(w);
        Emulator::Options opts;
        opts.randSeed = w.seed;
        Emulator emu(prog, opts);
        WarmState warm(params.mem, params.bpred);
        warmStep(emu, warm, 120'000);
        before = store.store(w, 120'000, emu.checkpoint(), warm);
    }
    ASSERT_TRUE(before.usable());
    EXPECT_TRUE(sameSim(runIntervalDetailed(w, params, win, &before),
                        plain));

    // Mismatched warm-state parameters: checkpoint ignored, results
    // still identical (recomputed from scratch).
    CoreParams other = params;
    other.mem.dcache.sizeBytes *= 2;
    const SimResult recomputed =
        runIntervalDetailed(w, other, win, &at_start);
    EXPECT_TRUE(sameSim(recomputed,
                        runIntervalDetailed(w, other, win)));
}

TEST(Interval, SingleCoreWindowsMatchFrozenGolden)
{
    // Every registry field of two 1-core windows, frozen from the
    // dedicated single-core engine that ran before every window became
    // a System: the paper's hierarchy, and a deep one (L3, stride
    // prefetchers, write-back traffic) whose every shared level
    // carries warmed state into the System. The c0Cpi* stack fields
    // were added with the registry's CPI block; they equal the window
    // stacks the earlier side-channel accounting reported. Unlisted
    // fields are zero.
    struct Golden {
        const char *workload;
        const char *config;
        std::uint64_t startInst;
        std::map<std::string, std::uint64_t> nonzero;
    };
    const Golden goldens[] = {
        {"gzip", "RENO", 200'000,
         {{"cycles", 2057}, {"retired", 5000}, {"retiredLoads", 1002},
          {"retiredStores", 120}, {"retiredBranches", 1014},
          {"itAccesses", 2036}, {"itHits", 96}, {"bpLookups", 1020},
          {"bpMispredicts", 72}, {"dcacheMisses", 3}, {"l2Misses", 1},
          {"elim0", 3426}, {"elim1", 168}, {"elim2", 1310}, {"elim4", 96},
          {"icacheHits", 1032}, {"dcacheHits", 1118}, {"l2Hits", 2},
          {"bpDirMispredicts", 72}, {"c0Cycles", 2057},
          {"c0Retired", 5000}, {"c0CpiBase", 1577},
          {"c0CpiFrontendBpred", 132}, {"c0CpiBackendRob", 36},
          {"c0CpiBackendIq", 144}, {"c0CpiBackendDcacheL1", 168}}},
        {"mem.stream.1m", "RENO/l3/pf-stride/wb", 300'000,
         {{"cycles", 10430}, {"retired", 5000}, {"retiredLoads", 714},
          {"retiredStores", 714}, {"retiredBranches", 714},
          {"itAccesses", 2144}, {"bpLookups", 714}, {"dcacheMisses", 176},
          {"l2Misses", 3}, {"stallRob", 9270}, {"elim0", 2856},
          {"elim2", 2144}, {"l3Misses", 90}, {"icacheHits", 1428},
          {"dcacheHits", 714}, {"dcacheMshrMerges", 539},
          {"l2MshrMerges", 176}, {"dcacheWritebacks", 179},
          {"dcachePrefetchIssued", 3}, {"l2PrefetchIssued", 87},
          {"dcachePrefetchUseful", 3}, {"l2PrefetchUseful", 86},
          {"c0Cycles", 10430}, {"c0Retired", 5000},
          {"c0CpiBase", 1430}, {"c0CpiBackendDcacheL1", 200},
          {"c0CpiBackendDcacheL2", 8500},
          {"c0CpiBackendDcacheMem", 300}}},
    };
    for (const Golden &g : goldens) {
        NamedConfig cfg;
        ASSERT_TRUE(configByName(g.config, CoreParams::fourWide(), &cfg));
        IntervalWindow win;
        win.startInst = g.startInst;
        win.warmupInsts = 2000;
        win.measureInsts = 5000;
        const SimResult got =
            runIntervalDetailed(workloadByName(g.workload), cfg.params,
                                win);
        for (const SimStatField &f : simResultFields()) {
            const auto it = g.nonzero.find(f.name);
            EXPECT_EQ(statValue(got, f),
                      it == g.nonzero.end() ? 0u : it->second)
                << g.workload << " " << g.config << ": field '"
                << f.name << "'";
        }
    }
}

// ---- checkpoint store -----------------------------------------------

TEST(Checkpointing, EncodeDecodeRoundTrip)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    opts.randSeed = w.seed;
    Emulator emu(prog, opts);
    WarmState warm(params.mem, params.bpred);
    warmStep(emu, warm, 50'000);

    CheckpointStore store;
    const SampleCheckpoint ckpt =
        store.store(w, 50'000, emu.checkpoint(), warm);

    const std::string text = CheckpointStore::encode(ckpt);
    SampleCheckpoint decoded;
    ASSERT_TRUE(CheckpointStore::decode(text, params.mem,
                                        params.bpred, &decoded));
    EXPECT_EQ(checkpointDigest(*decoded.emu),
              checkpointDigest(*ckpt.emu));
    EXPECT_EQ(CheckpointStore::encode(decoded), text)
        << "decode followed by encode must be the identity";

    // Corruption is detected.
    std::string bad = text;
    bad[text.find("regs") + 6] ^= 1;
    EXPECT_FALSE(CheckpointStore::decode(bad, params.mem,
                                         params.bpred, &decoded));

    // Wrong warm-state parameters are rejected.
    CoreParams other = params;
    other.bpred.dir.historyBits = 9;
    EXPECT_FALSE(CheckpointStore::decode(text, other.mem,
                                         other.bpred, &decoded));
}

TEST(Checkpointing, DiskPersistenceRoundTrip)
{
    const std::string dir = ::testing::TempDir() + "reno_ckpt_test";
    std::filesystem::remove_all(dir);

    const Workload &w = workloadByName("gsm.dec");
    const CoreParams params = baseParams();
    std::uint64_t digest = 0;
    {
        CheckpointStore store(dir);
        const Program &prog = assembleWorkload(w);
        Emulator::Options opts;
        opts.randSeed = w.seed;
        Emulator emu(prog, opts);
        WarmState warm(params.mem, params.bpred);
        warmStep(emu, warm, 30'000);
        digest = checkpointDigest(
            *store.store(w, 30'000, emu.checkpoint(), warm).emu);

        FuncProfile profile{123456, 42};
        store.storeProfile(profileKey(w), profile);
    }

    // A fresh store instance reads both back from disk.
    CheckpointStore fresh(dir);
    const SampleCheckpoint loaded =
        fresh.lookup(w, 30'000, params.mem, params.bpred);
    ASSERT_TRUE(loaded.usable());
    EXPECT_EQ(checkpointDigest(*loaded.emu), digest);
    EXPECT_EQ(loaded.emu->instCount, 30'000u);

    FuncProfile profile;
    ASSERT_TRUE(fresh.lookupProfile(profileKey(w), &profile));
    EXPECT_EQ(profile.totalInsts, 123456u);
    EXPECT_EQ(profile.memDigest, 42u);

    // Misses stay misses: different position, different warm params.
    EXPECT_FALSE(
        fresh.lookup(w, 30'001, params.mem, params.bpred).usable());
    CoreParams other = params;
    other.mem.l2.assoc = 8;
    EXPECT_FALSE(
        fresh.lookup(w, 30'000, other.mem, other.bpred).usable());

    std::filesystem::remove_all(dir);
}

TEST(Checkpointing, KeysSeparatePositionsAndConfigs)
{
    const Workload &a = workloadByName("gzip");
    const Workload &b = workloadByName("mcf");
    EXPECT_NE(checkpointKey(a, 1000, 7), checkpointKey(b, 1000, 7));
    EXPECT_NE(checkpointKey(a, 1000, 7), checkpointKey(a, 2000, 7));
    EXPECT_NE(checkpointKey(a, 1000, 7), checkpointKey(a, 1000, 8));
    EXPECT_NE(profileKey(a), profileKey(b));
}

// ---- sampled jobs in the campaign engine ----------------------------

TEST(SampledJob, DigestCoversWindowButNotCheckpoint)
{
    sweep::Job job;
    job.workload = &workloadByName("gzip");
    job.config = {"BASE", baseParams()};
    const std::uint64_t full_digest = sweep::jobDigest(job);

    job.window = IntervalWindow{1000, 500, 4000};
    const std::uint64_t sampled_digest = sweep::jobDigest(job);
    EXPECT_NE(full_digest, sampled_digest)
        << "a sampled job must not collide with the full run";

    sweep::Job other = job;
    other.window.startInst = 2000;
    EXPECT_NE(sweep::jobDigest(other), sampled_digest);

    // The checkpoint feed is an accelerator, not an input.
    sweep::Job with_ckpt = job;
    with_ckpt.checkpoints = std::make_shared<CheckpointFeed>(
        *job.workload, job.config.params,
        std::vector<PlannedInterval>{{job.window, 4000, false}},
        CheckpointStore());
    EXPECT_EQ(sweep::jobDigest(with_ckpt), sampled_digest);
}

TEST(SampledCampaign, ParallelMatchesSerialByteForByte)
{
    const std::vector<const Workload *> workloads = {
        &workloadByName("gzip"), &workloadByName("adpcm.dec")};
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()},
        {"RENO", withReno(CoreParams::fourWide(),
                          RenoConfig::full())}};

    SampleOptions serial;
    serial.campaign.jobs = 1;
    SampleOptions parallel;
    parallel.campaign.jobs = 4;

    const SampledCampaign s =
        runSampledCampaign(workloads, configs, serial);
    const SampledCampaign p =
        runSampledCampaign(workloads, configs, parallel);
    EXPECT_EQ(renderSampled(s, sweep::ReportFormat::Json),
              renderSampled(p, sweep::ReportFormat::Json));
}

TEST(SampledCampaign, WarmCacheRerunSimulatesNothing)
{
    sweep::ResultCache cache;
    SampleOptions options;
    options.campaign.jobs = 1;
    options.campaign.cache = &cache;

    const auto workloads = oneWorkload("g721.dec");
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()}};

    const SampledCampaign cold =
        runSampledCampaign(workloads, configs, options);
    EXPECT_GT(cold.stats.simulated, 0u);

    const SampledCampaign warm =
        runSampledCampaign(workloads, configs, options);
    EXPECT_EQ(warm.stats.simulated, 0u);
    EXPECT_EQ(warm.stats.cacheHits, warm.stats.unique);
    EXPECT_EQ(renderSampled(cold, sweep::ReportFormat::Csv),
              renderSampled(warm, sweep::ReportFormat::Csv));
}

TEST(SampledCampaign, CacheCountsEachIntervalJobOnce)
{
    // The campaign looks each interval job up once, and the counters
    // and gauges count exactly those lookups. Each run gets a fresh
    // cache over one directory, so the warm run's hits all come from
    // disk.
    const std::string dir =
        ::testing::TempDir() + "reno_sample_cache_count_test";
    std::filesystem::remove_all(dir);
    const auto workloads = oneWorkload("g721.dec");
    const std::vector<NamedConfig> configs = {{"BASE", baseParams()}};
    const auto gauge = [](const char *name) {
        return obs::MetricsRegistry::instance().gauge(name).value();
    };
    for (const bool warm : {false, true}) {
        sweep::ResultCache cache(dir);
        SampleOptions options;
        options.campaign.jobs = 1;
        options.campaign.cache = &cache;
        const SampledCampaign run =
            runSampledCampaign(workloads, configs, options);
        const std::uint64_t jobs = run.stats.jobs;
        ASSERT_GT(jobs, 0u);
        EXPECT_EQ(cache.memoryHits(), 0u) << warm;
        EXPECT_EQ(cache.diskHits(), warm ? jobs : 0) << warm;
        EXPECT_EQ(cache.misses(), warm ? 0 : jobs) << warm;
        EXPECT_EQ(cache.stores(), warm ? 0 : jobs) << warm;
        EXPECT_EQ(gauge("sweep.cache.memory_hits"), 0.0) << warm;
        EXPECT_EQ(gauge("sweep.cache.disk_hits"),
                  double(cache.diskHits())) << warm;
        EXPECT_EQ(gauge("sweep.cache.misses"), double(cache.misses()))
            << warm;
        EXPECT_EQ(gauge("sweep.cache.stores"), double(cache.stores()))
            << warm;
        EXPECT_EQ(gauge("sweep.cache.hit_ratio"), warm ? 1.0 : 0.0)
            << warm;
    }
    std::filesystem::remove_all(dir);
}

TEST(SampledCampaign, MalformedResultFileIsReadAndWarnedOnce)
{
    // The campaign reads an interval result file once: a malformed
    // file is warned about once, counted as one miss and simulated
    // again.
    const std::string dir =
        ::testing::TempDir() + "reno_sample_bad_result_test";
    std::filesystem::remove_all(dir);
    const auto workloads = oneWorkload("g721.dec");
    const std::vector<NamedConfig> configs = {{"BASE", baseParams()}};
    SampleOptions options;
    options.campaign.jobs = 1;
    options.campaign.cacheDir = dir;
    runSampledCampaign(workloads, configs, options);

    std::filesystem::path bad;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".result") {
            bad = entry.path();
            break;
        }
    }
    ASSERT_FALSE(bad.empty());
    std::ofstream(bad) << "garbage\n";

    sweep::ResultCache cache(dir);
    options.campaign.cache = &cache;
    ::testing::internal::CaptureStderr();
    const SampledCampaign run =
        runSampledCampaign(workloads, configs, options);
    const std::string err = ::testing::internal::GetCapturedStderr();
    std::size_t warnings = 0;
    for (std::size_t at = err.find("ignoring malformed entry");
         at != std::string::npos;
         at = err.find("ignoring malformed entry", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.diskHits(), run.stats.jobs - 1);
    EXPECT_EQ(cache.stores(), 1u);
    std::filesystem::remove_all(dir);
}

/**
 * Counts the checkpoints a sampled campaign resolves that are still
 * alive, through weak references to their functional halves: the
 * observer records the peak at every capture or disk load.
 */
class LiveCheckpoints
{
  public:
    LiveCheckpoints()
    {
        setCheckpointObserver([this](const SampleCheckpoint &ckpt) {
            std::lock_guard<std::mutex> lock(mu_);
            seen_.push_back(ckpt.emu);
            peak_ = std::max(peak_, liveLocked());
        });
    }
    ~LiveCheckpoints() { setCheckpointObserver({}); }

    std::size_t
    resolved()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return seen_.size();
    }
    std::size_t
    live()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return liveLocked();
    }
    std::size_t
    peak()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return peak_;
    }

  private:
    std::size_t
    liveLocked() const
    {
        return static_cast<std::size_t>(std::ranges::count_if(
            seen_, [](const auto &w) { return !w.expired(); }));
    }

    std::mutex mu_;
    std::vector<std::weak_ptr<const EmuCheckpoint>> seen_;
    std::size_t peak_ = 0;
};

TEST(SampledCampaign, CheckpointsLiveOnlyUntilTheirLastJob)
{
    // Six workloads of four intervals each: holding every checkpoint
    // until the campaign ends would keep 24 alive. Streamed, at most
    // one workload's checkpoints are pending per worker, and a serial
    // campaign drops each checkpoint before it captures the next.
    std::vector<const Workload *> workloads;
    for (const Workload &w : multiWorkloads())
        workloads.push_back(&w);
    workloads.push_back(&workloadByName("g721.dec"));
    ASSERT_EQ(workloads.size(), 6u);
    const std::string dir =
        ::testing::TempDir() + "reno_sample_live_ckpt_test";

    for (const unsigned cores : {1u, 2u}) {
        NamedConfig base{"BASE", baseParams()};
        NamedConfig me{"ME", withReno(CoreParams::fourWide(),
                                      RenoConfig::meOnly())};
        NamedConfig reno{"RENO", withReno(CoreParams::fourWide(),
                                          RenoConfig::full())};
        for (NamedConfig *cfg : {&base, &me, &reno})
            cfg->params.sys.numCores = cores;
        for (const unsigned jobs : {1u, 4u}) {
            for (const bool disk : {false, true}) {
                SCOPED_TRACE(strprintf("%u cores, --jobs %u, %s",
                                       cores, jobs,
                                       disk ? "--cache-dir" : "no cache"));
                std::filesystem::remove_all(dir);
                SampleOptions options;
                options.plan.intervals = 4;
                options.plan.warmupInsts = 500;
                options.plan.measureInsts = 1000;
                options.plan.coldInsts = 2000;
                options.campaign.jobs = jobs;
                if (disk)
                    options.campaign.cacheDir = dir;
                // With a cache directory, a second campaign of other
                // configurations in the same warm group misses every
                // result and resumes from the checkpoints on disk.
                std::vector<std::vector<NamedConfig>> runs = {{base}};
                if (disk)
                    runs.push_back({me, reno});
                for (const std::vector<NamedConfig> &configs : runs) {
                    LiveCheckpoints live;
                    const SampledCampaign run =
                        runSampledCampaign(workloads, configs, options);
                    ASSERT_EQ(run.stats.simulated, run.stats.jobs);
                    EXPECT_GE(live.resolved(), workloads.size());
                    EXPECT_EQ(live.live(), 0u)
                        << "a checkpoint outlived the campaign";
                    EXPECT_LE(live.peak(), jobs * options.plan.intervals);
                    if (jobs == 1)
                        EXPECT_EQ(live.peak(), 1u);
                }
            }
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(SampledCampaign, EstimateWithinBoundOfFullSimulation)
{
    // End-to-end accuracy: the sampled IPC estimate must track the
    // full detailed simulation. (gzip's error is ~2% at default
    // settings; 5% is the subsystem's advertised bound.)
    const auto workloads = oneWorkload("gzip");
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()},
        {"RENO", withReno(CoreParams::fourWide(),
                          RenoConfig::full())}};

    SampleOptions options;
    options.campaign.jobs = 1;
    const ValidationReport report =
        validateSampling(workloads, configs, options);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_LE(report.maxAbsErrorPct, 5.0);
    for (const ValidationRow &row : report.rows) {
        EXPECT_GT(row.sampledIpc, 0.0);
        EXPECT_GT(row.fullIpc, 0.0);
        EXPECT_EQ(row.totalInsts, 762088u);
    }
}

TEST(SampledCampaign, ValidationReportRendersAllFormats)
{
    const auto workloads = oneWorkload("jpeg.dec");
    const std::vector<NamedConfig> configs = {
        {"BASE", baseParams()}};
    SampleOptions options;
    options.campaign.jobs = 1;
    const ValidationReport report =
        validateSampling(workloads, configs, options);

    const std::string csv =
        renderValidation(report, sweep::ReportFormat::Csv);
    EXPECT_NE(csv.find("ipc_err_pct"), std::string::npos);
    EXPECT_NE(csv.find("jpeg.dec"), std::string::npos);
    const std::string json =
        renderValidation(report, sweep::ReportFormat::Json);
    EXPECT_NE(json.find("\"ipc_full\""), std::string::npos);
}

// ---- functional warming ---------------------------------------------

TEST(Warming, ChoppedWarmingComposesExactly)
{
    // Warming [0, 200k) in one go must leave bit-identical tables to
    // warming [0, 120k), snapshotting, and continuing to 200k -- the
    // property that makes checkpoints pure accelerators.
    const Workload &w = workloadByName("gcc");
    const CoreParams params = baseParams();
    const Program &prog = assembleWorkload(w);
    Emulator::Options opts;
    opts.randSeed = w.seed;

    Emulator straight(prog, opts);
    WarmState whole(params.mem, params.bpred);
    warmStep(straight, whole, 200'000);

    Emulator chopped(prog, opts);
    WarmState first(params.mem, params.bpred);
    warmStep(chopped, first, 120'000);
    WarmState resumed(first);  // snapshot copy
    warmStep(chopped, resumed, 200'000);

    EXPECT_EQ(CheckpointStore::encode(
                  {std::make_shared<EmuCheckpoint>(
                       straight.checkpoint()),
                   std::make_shared<WarmState>(whole)}),
              CheckpointStore::encode(
                  {std::make_shared<EmuCheckpoint>(
                       chopped.checkpoint()),
                   std::make_shared<WarmState>(resumed)}));
}

TEST(Warming, WarmConfigDigestTracksMemAndBpredOnly)
{
    CoreParams a = baseParams();
    CoreParams b = a;
    b.reno = RenoConfig::full();
    b.robEntries = 256;
    EXPECT_EQ(warmConfigDigest(a), warmConfigDigest(b))
        << "RENO/core knobs must not split the warm-state space";

    CoreParams c = a;
    c.mem.dcache.sizeBytes *= 2;
    EXPECT_NE(warmConfigDigest(a), warmConfigDigest(c));
    CoreParams d = a;
    d.bpred.dir.gshareEntries *= 2;
    EXPECT_NE(warmConfigDigest(a), warmConfigDigest(d));
}

TEST(Warming, SnapshotRoundTripAcrossHierarchyDepths)
{
    // For every memory-system variant (L3 stack, prefetchers,
    // write-back modeling): a warm snapshot taken mid-stream must
    // survive encode -> decode and reproduce the measurement window
    // byte-identically, including the prefetcher training state.
    const Workload &w = workloadByName("g721.enc");
    IntervalWindow win;
    win.startInst = 150'000;
    win.warmupInsts = 500;
    win.measureInsts = 3000;

    for (const char *variant :
         {"l3", "pf-next", "pf-stride", "wb", "l3/pf-stride/wb"}) {
        CoreParams params = baseParams();
        std::string tokens = variant;
        std::size_t pos = 0;
        while (pos != std::string::npos) {
            const std::size_t next = tokens.find('/', pos);
            ASSERT_TRUE(applyVariant(
                tokens.substr(pos, next == std::string::npos
                                       ? std::string::npos
                                       : next - pos),
                &params))
                << variant;
            pos = next == std::string::npos ? next : next + 1;
        }

        const SimResult plain = runIntervalDetailed(w, params, win);

        // Checkpoint BEFORE the window start so the decoded warm
        // state must also compose with continued warming.
        SampleCheckpoint stored;
        {
            const Program &prog = assembleWorkload(w);
            Emulator::Options opts;
            opts.randSeed = w.seed;
            Emulator emu(prog, opts);
            WarmState warm(params.mem, params.bpred);
            warmStep(emu, warm, 100'000);
            stored = CheckpointStore().store(w, 100'000, emu.checkpoint(),
                                             warm);
        }
        ASSERT_TRUE(stored.usable()) << variant;

        const std::string text = CheckpointStore::encode(stored);
        SampleCheckpoint decoded;
        ASSERT_TRUE(CheckpointStore::decode(text, params.mem,
                                            params.bpred, &decoded))
            << variant;
        EXPECT_EQ(CheckpointStore::encode(decoded), text)
            << variant << ": decode->encode must be the identity";

        const SimResult via_ckpt =
            runIntervalDetailed(w, params, win, &decoded);
        for (const SimStatField &f : simResultFields()) {
            EXPECT_EQ(statValue(via_ckpt, f), statValue(plain, f))
                << variant << ": window stat '" << f.name
                << "' diverged through the snapshot round-trip";
        }
    }
}

TEST(Warming, WarmConfigDigestTracksMemoryVariants)
{
    const CoreParams base = baseParams();
    for (const ConfigVariant &v : configVariants()) {
        if (v.group != VariantGroup::Memory)
            continue;
        CoreParams varied = base;
        ASSERT_TRUE(applyVariant(v.spelling, &varied));
        EXPECT_NE(warmConfigDigest(base), warmConfigDigest(varied))
            << v.spelling << " must split the warm-state space";
    }
}

TEST(Warming, SnapshotRoundTripAcrossBpredVariants)
{
    // For every branch-prediction variant (direction engines, shallow
    // RAS, small BTB, indirect-target table): a warm snapshot taken
    // mid-stream must survive encode -> decode and reproduce the
    // measurement window byte-identically, including the predictor's
    // tables and history registers. branch.ind exercises every
    // component: conditional loop branches, indirect calls (RAS
    // pushes + BTB/ITT targets) and returns (RAS pops).
    const Workload &w = workloadByName("branch.ind");
    IntervalWindow win;
    win.startInst = 150'000;
    win.warmupInsts = 500;
    win.measureInsts = 3000;

    for (const char *variant :
         {"bimodal", "gshare", "tage", "perceptron", "ras16/btb256",
          "tage/itt"}) {
        CoreParams params = baseParams();
        std::string tokens = variant;
        std::size_t pos = 0;
        while (pos != std::string::npos) {
            const std::size_t next = tokens.find('/', pos);
            ASSERT_TRUE(applyVariant(
                tokens.substr(pos, next == std::string::npos
                                       ? std::string::npos
                                       : next - pos),
                &params))
                << variant;
            pos = next == std::string::npos ? next : next + 1;
        }

        const SimResult plain = runIntervalDetailed(w, params, win);

        // Checkpoint BEFORE the window start so the decoded warm
        // state must also compose with continued warming.
        SampleCheckpoint stored;
        {
            const Program &prog = assembleWorkload(w);
            Emulator::Options opts;
            opts.randSeed = w.seed;
            Emulator emu(prog, opts);
            WarmState warm(params.mem, params.bpred);
            warmStep(emu, warm, 100'000);
            stored = CheckpointStore().store(w, 100'000, emu.checkpoint(),
                                             warm);
        }
        ASSERT_TRUE(stored.usable()) << variant;

        const std::string text = CheckpointStore::encode(stored);
        SampleCheckpoint decoded;
        ASSERT_TRUE(CheckpointStore::decode(text, params.mem,
                                            params.bpred, &decoded))
            << variant;
        EXPECT_EQ(CheckpointStore::encode(decoded), text)
            << variant << ": decode->encode must be the identity";

        const SimResult via_ckpt =
            runIntervalDetailed(w, params, win, &decoded);
        for (const SimStatField &f : simResultFields()) {
            EXPECT_EQ(statValue(via_ckpt, f), statValue(plain, f))
                << variant << ": window stat '" << f.name
                << "' diverged through the snapshot round-trip";
        }
    }
}

TEST(Warming, WarmConfigDigestTracksBpredVariants)
{
    const CoreParams base = baseParams();
    for (const char *token : {"bimodal", "gshare", "tage",
                              "perceptron", "ras16", "btb256", "itt"}) {
        CoreParams varied = base;
        ASSERT_TRUE(applyVariant(token, &varied));
        EXPECT_NE(warmConfigDigest(base), warmConfigDigest(varied))
            << token << " must split the warm-state space";
    }
    // The default spelled explicitly is the same warm space.
    CoreParams tournament = base;
    ASSERT_TRUE(applyVariant("tournament", &tournament));
    EXPECT_EQ(warmConfigDigest(base), warmConfigDigest(tournament));
}

// ---- multi-core sampling --------------------------------------------

namespace
{

/** Snapshot N warmed emulators + the system warm state into one
 *  checkpoint (the multi-core persistence unit). */
SampleCheckpoint
multiCkpt(const SpmdEmulators &emus, const SysWarmState &warm)
{
    SampleCheckpoint ckpt;
    ckpt.emu = std::make_shared<const EmuCheckpoint>(
        emus.cores()[0]->checkpoint());
    for (std::size_t i = 1; i < emus.cores().size(); ++i)
        ckpt.extraEmus.push_back(std::make_shared<const EmuCheckpoint>(
            emus.cores()[i]->checkpoint()));
    ckpt.sysWarm = std::make_shared<const SysWarmState>(warm);
    return ckpt;
}

/** Warm @p cores SPMD streams to aggregate position @p pos and put
 *  the snapshot in @p store; returns it. */
SampleCheckpoint
storeMultiCkpt(const CheckpointStore &store, const Workload &w,
               const CoreParams &params, unsigned cores,
               std::uint64_t pos)
{
    const SpmdEmulators emus(w, cores);
    SysWarmState warm(params.mem, params.bpred, cores);
    warmStepMulti(emus.cores(), warm, pos);
    std::vector<EmuCheckpoint> snaps;
    for (const Emulator *e : emus.cores())
        snaps.push_back(e->checkpoint());
    return store.storeMulti(w, pos, std::move(snaps), warm);
}

/** Recompute the trailing integrity digest after mutating the body,
 *  so structural corruption reaches the structural checks instead of
 *  tripping the digest check. */
std::string
redigest(const std::string &text)
{
    const std::size_t digest_pos = text.rfind("digest ");
    std::string body = text.substr(0, digest_pos);
    Fnv64 h;
    h.update(body);
    body += strprintf("digest %llu\n",
                      static_cast<unsigned long long>(h.value()));
    return body;
}

} // namespace

TEST(MultiWarming, ChopResumeThroughSerializationIsBitExact)
{
    // The acceptance property of interleaved warming: chopping the
    // N-core warm at an arbitrary AGGREGATE position -- including mid
    // round-robin, so the emulators sit at uneven per-core counts --
    // serializing, decoding, and resuming must reproduce the straight
    // run's final state byte for byte: functional cursors, L1 tags,
    // shared stack and the MESI directory all ride the encoding. Over
    // the default two-level stack and a three-level one with
    // prefetching and write-back traffic.
    const Workload &w = workloadByName("gzip");
    for (const CoreParams &params : {baseParams(), deepStackParams()}) {
        for (const unsigned cores : {2u, 4u}) {
            SCOPED_TRACE(strprintf("%zu shared levels",
                                   1 + params.mem.extraLevels.size()));
            const std::uint64_t final_bound = 900 * cores;
            const std::uint64_t chop = 350 * cores + 1;  // mid-interleave

            const SpmdEmulators straight(w, cores);
            SysWarmState whole(params.mem, params.bpred, cores);
            warmStepMulti(straight.cores(), whole, final_bound);
            const std::string want =
                CheckpointStore::encode(multiCkpt(straight, whole));

            const SpmdEmulators chopped(w, cores);
            SysWarmState first(params.mem, params.bpred, cores);
            warmStepMulti(chopped.cores(), first, chop);
            const std::string mid =
                CheckpointStore::encode(multiCkpt(chopped, first));

            SampleCheckpoint decoded;
            ASSERT_TRUE(CheckpointStore::decode(mid, params.mem,
                                                params.bpred, &decoded,
                                                cores))
                << cores << " cores";

            const SpmdEmulators resumed(w, cores);
            resumed.cores()[0]->restore(*decoded.emu);
            for (unsigned c = 1; c < cores; ++c)
                resumed.cores()[c]->restore(*decoded.extraEmus[c - 1]);
            SysWarmState warm(*decoded.sysWarm);
            warmStepMulti(resumed.cores(), warm, final_bound);

            EXPECT_EQ(CheckpointStore::encode(multiCkpt(resumed, warm)),
                      want)
                << cores << " cores: chop/resume diverged";
        }
    }
}

TEST(MultiWarming, CheckpointAcceleratesMultiWithoutChangingResults)
{
    // Same contract as the single-core interval engine: a multi-core
    // checkpoint before the window start is a pure accelerator --
    // every registry stat of the measured window is identical with
    // and without it.
    // Over the default two-level stack and a three-level one with
    // prefetching and write-back traffic.
    const Workload &w = workloadByName("adpcm.dec");
    IntervalWindow win;
    win.startInst = 40'000;  // aggregate position over both cores
    win.warmupInsts = 1000;
    win.measureInsts = 4000;

    for (CoreParams params : {baseParams(), deepStackParams()}) {
        SCOPED_TRACE(strprintf("%zu shared levels",
                               1 + params.mem.extraLevels.size()));
        params.sys.numCores = 2;
        const SimResult plain = runIntervalDetailed(w, params, win);

        const SampleCheckpoint ckpt =
            storeMultiCkpt(CheckpointStore(), w, params, 2, 30'000);
        ASSERT_TRUE(ckpt.usable());
        ASSERT_EQ(ckpt.numCores(), 2u);

        const SimResult via_ckpt =
            runIntervalDetailed(w, params, win, &ckpt);
        for (const SimStatField &f : simResultFields()) {
            EXPECT_EQ(statValue(via_ckpt, f), statValue(plain, f))
                << "window stat '" << f.name
                << "' changed under the checkpoint";
        }
    }
}

TEST(MultiWarming, CheckpointOfAnotherCoreCountIsIgnored)
{
    // A checkpoint carries the warm half of its own core count only.
    // Handed to a window of another core count it must be ignored --
    // never read as the missing half -- in both directions, leaving
    // every registry stat equal to the uncheckpointed window's.
    const Workload &w = workloadByName("adpcm.dec");
    const CoreParams one = baseParams();
    CoreParams two = one;
    two.sys.numCores = 2;
    IntervalWindow win;
    win.startInst = 40'000;
    win.warmupInsts = 1000;
    win.measureInsts = 4000;

    const CheckpointStore store;
    SampleCheckpoint ckpt1;
    {
        const SpmdEmulators emus(w, 1);
        WarmState warm(one.mem, one.bpred);
        warmStep(*emus.cores()[0], warm, 30'000);
        ckpt1 = store.store(w, 30'000, emus.cores()[0]->checkpoint(), warm);
    }
    const SampleCheckpoint ckpt2 = storeMultiCkpt(store, w, two, 2, 30'000);
    ASSERT_TRUE(ckpt1.usable());
    ASSERT_TRUE(ckpt2.usable());
    ASSERT_EQ(ckpt2.numCores(), 2u);

    const struct {
        const char *label;
        const CoreParams &params;
        const SampleCheckpoint &ckpt;
    } crossings[] = {
        {"1-core window, 2-core checkpoint", one, ckpt2},
        {"2-core window, 1-core checkpoint", two, ckpt1},
    };
    for (const auto &c : crossings) {
        const SimResult plain = runIntervalDetailed(w, c.params, win);
        const SimResult crossed =
            runIntervalDetailed(w, c.params, win, &c.ckpt);
        EXPECT_GT(plain.retired, 0u) << c.label;
        for (const SimStatField &f : simResultFields())
            EXPECT_EQ(statValue(crossed, f), statValue(plain, f))
                << c.label << ": field '" << f.name << "'";
    }
}

// ---- warming oracle: sink-driven engine vs per-step loops ----------

namespace
{

/** Feed one step()'s ExecRecord into a core's warm tables: the
 *  per-record event mapping warming used before it ran on the
 *  decoded engine's access sink. */
void
referenceFeed(MemHierarchy &mem, BranchPredictor &bp,
              Addr &last_fetch_block, Addr iblock_bytes,
              const ExecRecord &rec)
{
    const Addr block = rec.pc / iblock_bytes;
    if (block != last_fetch_block) {
        mem.fetchAccess(rec.pc, 0);
        last_fetch_block = block;
    }
    const InstClass cls = rec.inst.info().cls;
    if (cls == InstClass::Load) {
        mem.dataAccess(rec.effAddr, 0, false);
    } else if (cls == InstClass::Store) {
        mem.dataAccess(rec.effAddr, 0, true);
    } else if (isControl(rec.inst.op)) {
        bp.predict(rec.pc, rec.inst);
        bp.update(rec.pc, rec.inst, rec.taken, rec.npc);
    }
}

/** Reference single-core warming: one step() per instruction. */
void
referenceWarmStep(Emulator &emu, WarmState &warm,
                  std::uint64_t inst_bound)
{
    const Addr iblock_bytes = warm.memParams().icache.blockBytes;
    while (!emu.done() && emu.instCount() < inst_bound)
        referenceFeed(warm.mem, warm.bp, warm.lastFetchBlock,
                      iblock_bytes, emu.step());
}

/** Reference interleaved warming: one step() of the live emulator
 *  with the fewest executed instructions (ties to the lowest core)
 *  at a time. */
void
referenceWarmStepMulti(const std::vector<Emulator *> &emus,
                       SysWarmState &warm,
                       std::uint64_t aggregate_bound)
{
    const Addr iblock_bytes = warm.memParams().icache.blockBytes;
    std::uint64_t total = 0;
    for (const Emulator *emu : emus)
        total += emu->instCount();
    while (total < aggregate_bound) {
        int next = -1;
        for (unsigned i = 0; i < emus.size(); ++i) {
            if (!emus[i]->done() &&
                (next < 0 ||
                 emus[i]->instCount() < emus[next]->instCount()))
                next = static_cast<int>(i);
        }
        if (next < 0)
            break;
        const unsigned c = static_cast<unsigned>(next);
        referenceFeed(warm.coreMem(c), warm.coreBp(c),
                      warm.lastFetchBlock(c), iblock_bytes,
                      emus[c]->step());
        ++total;
    }
}

/** Positions 7919 + k * 102947 below @p cap, then @p cap itself: the
 *  prime offsets land mid-superblock, and a cap past a short
 *  program's end compares the exited state too. */
std::vector<std::uint64_t>
chopPoints(std::uint64_t cap)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t p = 7919; p < cap; p += 102947)
        out.push_back(p);
    out.push_back(cap);
    return out;
}

std::string
encodeWarm(const Emulator &emu, const WarmState &warm)
{
    SampleCheckpoint ckpt;
    ckpt.emu = std::make_shared<const EmuCheckpoint>(emu.checkpoint());
    ckpt.warm = std::make_shared<const WarmState>(warm);
    return CheckpointStore::encode(ckpt);
}

/** Every emulator retired each instruction through exactly one of
 *  the two engines. */
void
expectInstsAccounted(const std::vector<Emulator *> &emus,
                     const std::string &label)
{
    for (const Emulator *emu : emus)
        EXPECT_EQ(emu->decodedInsts() + emu->interpInsts(),
                  emu->instCount())
            << label;
}

/** Warm @p fast with warmStep and @p ref with the reference loop to
 *  each of @p points, comparing the encoded state at every one.
 *  Returns the number of comparisons. */
unsigned
compareSingle(Emulator &fast, Emulator &ref, const CoreParams &params,
              const std::vector<std::uint64_t> &points,
              const std::string &label)
{
    WarmState fast_warm(params.mem, params.bpred);
    WarmState ref_warm(params.mem, params.bpred);
    unsigned compared = 0;
    for (const std::uint64_t pos : points) {
        warmStep(fast, fast_warm, pos);
        referenceWarmStep(ref, ref_warm, pos);
        ++compared;
        if (encodeWarm(fast, fast_warm) != encodeWarm(ref, ref_warm)) {
            ADD_FAILURE() << label << ": diverged at " << pos;
            break;
        }
    }
    expectInstsAccounted({&fast}, label);
    return compared;
}

/** compareSingle() for the interleaved N-core warming. */
unsigned
compareMulti(const std::vector<Emulator *> &fast,
             const std::vector<Emulator *> &ref,
             const CoreParams &params,
             const std::vector<std::uint64_t> &points,
             const std::string &label)
{
    const auto cores = static_cast<unsigned>(fast.size());
    SysWarmState fast_warm(params.mem, params.bpred, cores);
    SysWarmState ref_warm(params.mem, params.bpred, cores);
    const auto encode = [](const std::vector<Emulator *> &emus,
                           const SysWarmState &warm) {
        SampleCheckpoint ckpt;
        ckpt.emu = std::make_shared<const EmuCheckpoint>(
            emus[0]->checkpoint());
        for (std::size_t i = 1; i < emus.size(); ++i)
            ckpt.extraEmus.push_back(
                std::make_shared<const EmuCheckpoint>(
                    emus[i]->checkpoint()));
        ckpt.sysWarm = std::make_shared<const SysWarmState>(warm);
        return CheckpointStore::encode(ckpt);
    };
    unsigned compared = 0;
    for (const std::uint64_t pos : points) {
        warmStepMulti(fast, fast_warm, pos);
        referenceWarmStepMulti(ref, ref_warm, pos);
        ++compared;
        if (encode(fast, fast_warm) != encode(ref, ref_warm)) {
            ADD_FAILURE() << label << ": diverged at " << pos;
            break;
        }
    }
    expectInstsAccounted(fast, label);
    return compared;
}

/** The warm-geometry spread of the oracle: default tables, a deep
 *  write-back stack with stride prefetchers, next-line prefetch, and
 *  a TAGE + indirect-target predictor. */
std::vector<CoreParams>
oracleConfigs()
{
    std::vector<CoreParams> out;
    for (const char *name : {"RENO", "RENO/l3/pf-stride/wb",
                             "BASE/pf-next", "RENO/tage/itt"}) {
        NamedConfig cfg;
        if (!configByName(name, CoreParams::fourWide(), &cfg))
            ADD_FAILURE() << "unknown config " << name;
        out.push_back(cfg.params);
    }
    return out;
}

} // namespace

TEST(WarmingOracle, SinkEngineMatchesPerStepLoopOnEverySuite)
{
    // warmStep runs the decoded engine with an access sink; the
    // reference steps the interpreter oracle one ExecRecord at a
    // time. Emulator and warm tables must encode identically at
    // every chop point, for every generated workload and every warm
    // geometry. Streams are capped to keep the test quick.
    unsigned compared = 0;
    for (const CoreParams &params : oracleConfigs()) {
        for (const char *suite : {"synth", "mem", "branch", "multi"}) {
            for (const Workload *w : suiteWorkloads(suite)) {
                const SpmdEmulators fast(*w, 1);
                const SpmdEmulators ref(*w, 1);
                compared += compareSingle(
                    *fast.cores()[0], *ref.cores()[0], params,
                    chopPoints(230'000), w->name);
            }
        }
    }
    EXPECT_GE(compared, 4u * 22u * 3u);
}

TEST(WarmingOracle, InterleavedEngineMatchesPerStepLoop)
{
    // The same oracle for warmStepMulti at 2 and 4 cores: the chop
    // points are aggregate positions, so most fall mid-round-robin.
    unsigned compared = 0;
    for (const CoreParams &params : oracleConfigs()) {
        for (const Workload *w : suiteWorkloads("multi")) {
            for (const unsigned cores : {2u, 4u}) {
                const SpmdEmulators fast(*w, cores);
                const SpmdEmulators ref(*w, cores);
                compared += compareMulti(
                    fast.cores(), ref.cores(), params,
                    chopPoints(120'000),
                    w->name + "/" + std::to_string(cores) + "c");
            }
        }
    }
    EXPECT_GE(compared, 4u * 5u * 2u * 2u);
}

TEST(WarmingOracle, SelfModifyingCodeMatchesPerStepLoop)
{
    // The patch-loop program rewrites its own text mid-run: the sink
    // must report the store that invalidates the running block, and
    // the re-decoded block's stream after it. Chop every 37
    // instructions, with the decoded engine (superblocks promoted
    // early) and with the interpreter, on one core and interleaved.
    const Program prog = assemble(smcSource());
    const CoreParams params = baseParams();
    std::vector<std::uint64_t> points;
    for (std::uint64_t p = 1; p < 700; p += 37)
        points.push_back(p);
    points.push_back(2000);  // past the exit

    for (const bool decoded : {true, false}) {
        Emulator::Options opts;
        opts.decodedExec = decoded;
        opts.hotThreshold = 4;
        const std::string label = decoded ? "decoded" : "interp";

        Emulator fast(prog, opts);
        Emulator ref(prog, opts);
        compareSingle(fast, ref, params, points, label);
        EXPECT_EQ(fast.output(), "150") << label;

        std::vector<std::unique_ptr<Emulator>> owned;
        std::vector<Emulator *> fast2, ref2;
        for (unsigned c = 0; c < 2; ++c) {
            opts.coreId = c;
            owned.push_back(std::make_unique<Emulator>(prog, opts));
            fast2.push_back(owned.back().get());
            owned.push_back(std::make_unique<Emulator>(prog, opts));
            ref2.push_back(owned.back().get());
        }
        compareMulti(fast2, ref2, params, points, label + "/2c");
    }
}

TEST(MultiSampling, ValidationReportsPerCoreErrors)
{
    // A 2-core validation row carries one signed error per occupied
    // core slot, each folded into the whole-report worst case, and
    // the rendered report grows per-core columns.
    const auto workloads = oneWorkload("gzip");
    NamedConfig cfg{"BASE/2c", baseParams()};
    cfg.params.sys.numCores = 2;

    SampleOptions options;
    options.campaign.jobs = 1;
    options.plan.intervals = 6;
    options.plan.warmupInsts = 2000;
    options.plan.measureInsts = 4000;
    options.plan.coldInsts = 60'000;

    const ValidationReport report =
        validateSampling(workloads, {cfg}, options);
    ASSERT_EQ(report.rows.size(), 1u);
    const ValidationRow &row = report.rows[0];
    EXPECT_EQ(row.numCores, 2u);
    ASSERT_EQ(row.coreErrPct.size(), 2u);
    for (const double err : row.coreErrPct)
        EXPECT_LE(std::abs(err), report.maxAbsErrorPct + 1e-9);

    const std::string csv =
        renderValidation(report, sweep::ReportFormat::Csv);
    EXPECT_NE(csv.find("cores"), std::string::npos);
    EXPECT_NE(csv.find("ipc_err_c0"), std::string::npos);
    EXPECT_NE(csv.find("ipc_err_c1"), std::string::npos);
}

TEST(MultiSampling, SingleCoreReportFormatIsUnchanged)
{
    // Multi-core support must not leak into single-core output: a
    // campaign with only 1-core configs renders exactly the
    // historical columns (no "cores", no per-core estimates).
    const auto workloads = oneWorkload("g721.dec");
    const std::vector<NamedConfig> configs = {{"BASE", baseParams()}};
    SampleOptions options;
    options.campaign.jobs = 1;

    const SampledCampaign campaign =
        runSampledCampaign(workloads, configs, options);
    ASSERT_EQ(campaign.runs.size(), 1u);
    EXPECT_EQ(campaign.runs[0].numCores, 1u);

    for (const auto format :
         {sweep::ReportFormat::Csv, sweep::ReportFormat::Json}) {
        const std::string text = renderSampled(campaign, format);
        EXPECT_EQ(text.find("cores"), std::string::npos);
        EXPECT_EQ(text.find("ipc_est_c0"), std::string::npos);
    }
}

// ---- checkpoint rejection diagnostics -------------------------------

TEST(CheckpointRejection, TruncatedFileDiesWithReason)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    const SpmdEmulators emus(w, 1);
    WarmState warm(params.mem, params.bpred);
    warmStep(*emus.cores()[0], warm, 20'000);
    CheckpointStore store;
    const std::string text = CheckpointStore::encode(
        store.store(w, 20'000, emus.cores()[0]->checkpoint(), warm));

    // Cut before any digest can be found: a truncated download/write.
    const std::string truncated = text.substr(0, 10);
    EXPECT_DEATH(CheckpointStore::decodeOrDie(truncated, params.mem,
                                              params.bpred),
                 "checkpoint decode failed: no integrity digest");

    // A wrong header with a VALID digest (re-signed) is named too.
    std::string bad_header = text;
    bad_header.replace(0, bad_header.find('\n'), "reno-checkpoint v4");
    bad_header = redigest(bad_header);
    EXPECT_DEATH(
        CheckpointStore::decodeOrDie(bad_header, params.mem,
                                     params.bpred),
        "checkpoint decode failed: bad or truncated header "
        "\\(expected 'reno-checkpoint v5'\\)");
}

TEST(CheckpointRejection, WrongCoreCountDiesWithBothCounts)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    const SpmdEmulators emus(w, 2);
    SysWarmState warm(params.mem, params.bpred, 2);
    warmStepMulti(emus.cores(), warm, 1000);
    const std::string text =
        CheckpointStore::encode(multiCkpt(emus, warm));

    EXPECT_DEATH(CheckpointStore::decodeOrDie(text, params.mem,
                                              params.bpred, 1),
                 "checkpoint decode failed: checkpoint snapshots 2 "
                 "cores, expected 1");
    EXPECT_DEATH(CheckpointStore::decodeOrDie(text, params.mem,
                                              params.bpred, 4),
                 "checkpoint decode failed: checkpoint snapshots 2 "
                 "cores, expected 4");
}

TEST(CheckpointRejection, CorruptPerCoreBlocksDieNamingTheCore)
{
    const Workload &w = workloadByName("epic");
    const CoreParams params = baseParams();
    const SpmdEmulators emus(w, 2);
    SysWarmState warm(params.mem, params.bpred, 2);
    warmStepMulti(emus.cores(), warm, 1000);
    const std::string text =
        CheckpointStore::encode(multiCkpt(emus, warm));

    // Mangle core 1's warm-block header and re-sign, so the
    // structural check (not the digest) must catch and name it.
    std::string bad_warm = text;
    const std::size_t warm_pos = bad_warm.find("corewarm 1\n");
    ASSERT_NE(warm_pos, std::string::npos);
    bad_warm.replace(warm_pos, 10, "corewarm 7");
    bad_warm = redigest(bad_warm);
    EXPECT_DEATH(CheckpointStore::decodeOrDie(bad_warm, params.mem,
                                              params.bpred, 2),
                 "checkpoint decode failed: corrupt per-core warm "
                 "block \\(core 1\\)");

    // Same for core 1's functional snapshot.
    std::string bad_func = text;
    const std::size_t func_pos = bad_func.find("\ncore 1\n");
    ASSERT_NE(func_pos, std::string::npos);
    bad_func.replace(func_pos, 8, "\ncore 5\n");
    bad_func = redigest(bad_func);
    EXPECT_DEATH(CheckpointStore::decodeOrDie(bad_func, params.mem,
                                              params.bpred, 2),
                 "checkpoint decode failed: corrupt functional block "
                 "\\(core 1\\)");
}

TEST(CheckpointRejection, ResealedBadFunctionalBlocksAreRecaptured)
{
    // A checkpoint file rewritten with an impossible functional state
    // or an oversized table and resealed (so the integrity digest
    // still holds) must be ignored and recaptured, never resumed: the
    // campaign result equals the run without any stored checkpoint. A
    // pc outside text used to kill the window with a fatal.
    const std::string dir =
        ::testing::TempDir() + "reno_ckpt_reseal_test";
    std::filesystem::remove_all(dir);
    const auto workloads = oneWorkload("g721.dec");
    NamedConfig two{"BASE/2c", baseParams()};
    two.params.sys.numCores = 2;
    const std::vector<NamedConfig> configs = {{"BASE", baseParams()},
                                              two};
    SampleOptions plain_opts;
    plain_opts.campaign.jobs = 1;
    const std::string want = renderSampled(
        runSampledCampaign(workloads, configs, plain_opts),
        sweep::ReportFormat::Json);

    SampleOptions disk_opts = plain_opts;
    disk_opts.campaign.cacheDir = dir;
    runSampledCampaign(workloads, configs, disk_opts);
    std::map<std::string, std::string> originals;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir + "/ckpt")) {
        if (entry.path().extension() != ".ckpt")
            continue;
        std::ifstream in(entry.path());
        std::stringstream buf;
        buf << in.rdbuf();
        originals[entry.path().string()] = buf.str();
    }
    ASSERT_GT(originals.size(), 2u);

    // Rewrite the first number on the "<key> ..." line of the last
    // functional block (the highest core's) -- or, for a warm-half
    // key, on its first line after that block -- and reseal.
    const auto rewrite = [](std::string text, const std::string &key,
                            const auto &change) {
        const std::string needle = "\n" + key + " ";
        const std::size_t warm = text.find("\nwarmcfg ");
        std::size_t at = text.rfind(needle, warm);
        if (at == std::string::npos)
            at = text.find(needle, warm);
        const std::size_t from = at + needle.size();
        const std::size_t to = text.find_first_of(" \n", from);
        const std::uint64_t v = std::stoull(text.substr(from, to - from));
        text.replace(from, to - from, std::to_string(change(v)));
        return redigest(text);
    };
    const struct {
        const char *label;
        const char *key;
        std::uint64_t (*change)(std::uint64_t);
    } mutations[] = {
        {"pc 4", "pc", [](std::uint64_t) -> std::uint64_t { return 4; }},
        {"misaligned pc", "pc",
         [](std::uint64_t pc) -> std::uint64_t { return pc + 2; }},
        {"other program", "prog",
         [](std::uint64_t d) -> std::uint64_t { return d + 1; }},
        {"past the window", "inst",
         [](std::uint64_t n) -> std::uint64_t { return n + 1'000'000; }},
        // An in-line length far beyond the line used to throw
        // std::length_error or std::bad_alloc out of the decoder.
        {"oversized predictor table", "dtab",
         [](std::uint64_t) -> std::uint64_t {
             return 1'000'000'000'000'000'000;
         }},
    };
    for (const auto &m : mutations) {
        for (const auto &[path, text] : originals) {
            std::ofstream out(path, std::ios::trunc);
            out << rewrite(text, m.key, m.change);
        }
        sweep::ResultCache fresh;  // force every window to resume
        SampleOptions opts = disk_opts;
        opts.campaign.cache = &fresh;
        ::testing::internal::CaptureStderr();
        const std::string got = renderSampled(
            runSampledCampaign(workloads, configs, opts),
            sweep::ReportFormat::Json);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(got, want) << m.label;
        EXPECT_NE(err.find("ignoring malformed entry"),
                  std::string::npos)
            << m.label;
    }
    std::filesystem::remove_all(dir);
}
