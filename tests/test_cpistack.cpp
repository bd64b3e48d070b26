/**
 * @file
 * CPI-stack and hotspot-profiler tests. The load-bearing property is
 * the accounting identity: every commit-stage cycle lands in exactly
 * one bucket, so each core slot's SimResult::cpi row sums to that
 * slot's coreCycles by construction -- checked here on every workload
 * of the synth, mem, branch and multi suites (single- and multi-core,
 * detailed and sampled). Hotspot profiling is also proven inert:
 * SimResult is field-wise identical with it on or off, so job
 * digests, caching and goldens never depend on observability state.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/cpireport.hpp"
#include "obs/profiler.hpp"
#include "sample/interval.hpp"
#include "sample/sampler.hpp"
#include "sweep/campaign.hpp"
#include "workloads/workloads.hpp"

using namespace reno;
using namespace reno::obs;

namespace
{

/** RAII hotspot profiling; never leaks into the next test. */
struct HotGuard {
    explicit HotGuard(unsigned top_n) { HotspotProfile::setTopN(top_n); }
    ~HotGuard() { HotspotProfile::setTopN(0); }
};

NamedConfig
renoConfig(const char *name = "RENO")
{
    NamedConfig cfg;
    EXPECT_TRUE(configByName(name, CoreParams::fourWide(), &cfg));
    return cfg;
}

std::uint64_t
slotTotal(const SimResult &r, unsigned slot)
{
    std::uint64_t sum = 0;
    for (const std::uint64_t c : r.cpi[slot])
        sum += c;
    return sum;
}

/** Every core slot's stack sums to that slot's cycle count. */
void
expectSlotsSumToCycles(const SimResult &r, const std::string &what)
{
    for (unsigned s = 0; s < NumCoreStatSlots; ++s)
        EXPECT_EQ(slotTotal(r, s), r.coreCycles[s]) << what << " c" << s;
}

} // namespace

TEST(CpiStack, BucketsAreRegistryFieldsSummedOverSlots)
{
    // Names are the JSON/report contract: present and distinct.
    std::set<std::string> names;
    for (const char *n : CpiBucketNames) {
        ASSERT_NE(n, nullptr);
        EXPECT_TRUE(names.insert(n).second) << n;
    }

    // Every (slot, bucket) cell is a registry field named after its
    // slot, so the cache, deltas and --all-stats all carry it.
    SimResult r;
    r.cpi[0][static_cast<unsigned>(CpiBucket::Base)] = 2;
    r.cpi[3][static_cast<unsigned>(CpiBucket::Base)] = 5;
    r.cpi[1][static_cast<unsigned>(CpiBucket::Drain)] = 7;
    unsigned cpi_fields = 0;
    std::uint64_t cpi_sum = 0;
    for (const SimStatField &f : simResultFields()) {
        const std::string name = f.name;
        if (name.size() > 5 && name.compare(2, 3, "Cpi") == 0) {
            ++cpi_fields;
            cpi_sum += statValue(r, f);
        }
    }
    EXPECT_EQ(cpi_fields, NumCoreStatSlots * NumCpiBuckets);
    EXPECT_EQ(cpi_sum, 14u);
    EXPECT_EQ(r.cpiCycles(CpiBucket::Base), 7u);
    EXPECT_EQ(r.cpiCycles(CpiBucket::Drain), 7u);
    EXPECT_EQ(r.cpiCycles(CpiBucket::BackIq), 0u);
}

TEST(CpiStack, JsonFoldsDeepCoresIntoTheLastSlot)
{
    // Six cores report four per-core stacks: cores 3..5 share "c3".
    CpiRow row{"w", "RENO/6c", 6, {}, {}};
    for (unsigned s = 0; s < NumCoreStatSlots; ++s) {
        row.sim.cpi[s][static_cast<unsigned>(CpiBucket::Base)] = s + 1;
        row.sim.coreCycles[s] = s + 1;
    }
    const std::string json = renderCpiJson({row});
    std::size_t per_core = 0;
    for (std::size_t at = json.find("{\"cycles\": ");
         at != std::string::npos; at = json.find("{\"cycles\": ", at + 1))
        ++per_core;
    // Four slots plus the campaign aggregate.
    EXPECT_EQ(per_core, NumCoreStatSlots + 1) << json;
    EXPECT_NE(json.find("\"cycles\": 10,"), std::string::npos) << json;
}

TEST(HotspotProfile, CountsRanksAndDropsDeterministically)
{
    HotspotProfile prof(64);
    for (int i = 0; i < 10; ++i)
        prof.retire(0x1000);
    for (int i = 0; i < 4; ++i)
        prof.retire(0x2000);
    prof.retire(0x3000);
    prof.stall(0x2000);
    prof.stall(0x2000);
    prof.stall(0x3000);

    const auto by_ret = prof.topByRetired(2);
    ASSERT_EQ(by_ret.size(), 2u);
    EXPECT_EQ(by_ret[0].pc, 0x1000u);
    EXPECT_EQ(by_ret[0].retired, 10u);
    EXPECT_EQ(by_ret[1].pc, 0x2000u);

    const auto by_stall = prof.topByStall(8);
    ASSERT_EQ(by_stall.size(), 2u);  // zero-stall PCs are filtered
    EXPECT_EQ(by_stall[0].pc, 0x2000u);
    EXPECT_EQ(by_stall[0].stallCycles, 2u);
    EXPECT_EQ(prof.dropped(), 0u);

    // A saturated table drops excess PCs instead of growing or
    // evicting: the counts it does report stay exact.
    HotspotProfile tiny(64);  // 64 slots is the construction floor
    for (std::uint64_t pc = 0; pc < 4096; ++pc)
        tiny.retire(0x4000 + 4 * pc);
    EXPECT_GT(tiny.dropped(), 0u);
    EXPECT_LE(tiny.occupied(), 64u);
    for (const auto &e : tiny.topByRetired(64))
        EXPECT_EQ(e.retired, 1u);
}

TEST(CpiStack, SumsExactlyToCyclesOnEverySuiteWorkload)
{
    // Every workload of the four suites on one and on two cores, run
    // as one campaign on up to four workers.
    const HotGuard guard(10);
    const NamedConfig one = renoConfig();
    const NamedConfig two = renoConfig("RENO/2c");
    sweep::Campaign campaign;
    for (const char *suite : {"synth", "mem", "branch", "multi"})
        campaign.addCross(suiteWorkloads(suite), {one, two});
    sweep::CampaignOptions options;
    options.jobs = 4;
    const sweep::CampaignResults results = campaign.run(options);
    ASSERT_EQ(results.stats().simulated, results.size());

    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResult &sim = results.at(i).sim;
        const std::string what = results.job(i).workload->name + " " +
                                 results.job(i).config.name;
        // Each core's slot sums to that core's own cycle count
        // (cores freeze independently); one core fills slot 0 only.
        expectSlotsSumToCycles(sim, what);
        if (results.job(i).config.params.sys.numCores == 1) {
            EXPECT_EQ(slotTotal(sim, 0), sim.cycles) << what;
            EXPECT_EQ(slotTotal(sim, 1), 0u) << what;
        } else {
            EXPECT_GT(slotTotal(sim, 1), 0u) << what;
            EXPECT_EQ(slotTotal(sim, 2), 0u) << what;
        }
        // Retired instructions all passed through the profiler.
        std::uint64_t profiled = 0;
        for (const auto &e : results.at(i).hot.retired)
            profiled += e.retired;
        EXPECT_GT(profiled, 0u) << what;
    }
}

TEST(CpiStack, SimResultIsByteIdenticalWithProfilingOnAndOff)
{
    const Workload &w = workloadByName("synth.mix");
    const NamedConfig cfg = renoConfig();

    const SimResult off = runWorkload(w, cfg.params).sim;
    SimResult on;
    {
        const HotGuard guard(20);
        const RunOutput out = runWorkload(w, cfg.params);
        EXPECT_FALSE(out.hot.retired.empty());
        on = out.sim;
    }
    const SimResult off_again = runWorkload(w, cfg.params).sim;

    // Every canonical counter, not a hand-picked subset: profiling
    // must never perturb simulation (digests and goldens depend on
    // this).
    for (const SimStatField &field : simResultFields()) {
        EXPECT_EQ(statValue(on, field), statValue(off, field))
            << field.name;
        EXPECT_EQ(statValue(off_again, field), statValue(off, field))
            << field.name;
    }
}

TEST(CpiStack, SampledWindowStackMatchesWindowCycles)
{
    const Workload &w = workloadByName("synth.plain");
    const NamedConfig cfg = renoConfig();

    sample::IntervalWindow win;
    win.startInst = 50'000;
    win.warmupInsts = 500;
    win.measureInsts = 5000;
    const SimResult delta =
        sample::runIntervalDetailed(w, cfg.params, win, nullptr);
    EXPECT_EQ(slotTotal(delta, 0), delta.cycles);
    expectSlotsSumToCycles(delta, w.name);

    // Multi-core window: each slot's stack delta matches that core's
    // cycle delta exactly.
    const NamedConfig cfg2 = renoConfig("RENO/2c");
    const Workload &mw = workloadByName("multi.false");
    const SimResult delta2 =
        sample::runIntervalDetailed(mw, cfg2.params, win, nullptr);
    expectSlotsSumToCycles(delta2, mw.name);
    EXPECT_GT(slotTotal(delta2, 0) + slotTotal(delta2, 1), 0u);
}

TEST(CpiStack, SampledExtrapolationTracksFullDetailWithinGate)
{
    const NamedConfig cfg = renoConfig();
    std::vector<const Workload *> workloads =
        suiteWorkloads("synth");

    // Full-detail truth: the baseline the sampled stack must track
    // (same 5% gate as the IPC estimate -- the stack total IS the
    // cycle estimate under the same estimator).
    std::vector<std::uint64_t> full_cycles;
    for (const Workload *w : workloads)
        full_cycles.push_back(runWorkload(*w, cfg.params).sim.cycles);

    sample::SampleOptions options;
    options.campaign.jobs = 1;
    const sample::SampledCampaign sampled =
        sample::runSampledCampaign(workloads, {cfg}, options);
    ASSERT_EQ(sampled.runs.size(), workloads.size());

    for (std::size_t i = 0; i < sampled.runs.size(); ++i) {
        const sample::SampledEstimate &est = sampled.runs[i].est;
        double stack_sum = 0.0;
        for (const double b : est.cpiEst)
            stack_sum += b;
        // The extrapolated stack and estCycles use the identical
        // stratified estimator; they differ only by llround.
        EXPECT_NEAR(stack_sum,
                    static_cast<double>(est.estCycles),
                    1.0)
            << workloads[i]->name;
        const double err =
            std::fabs(stack_sum -
                      static_cast<double>(full_cycles[i])) /
            static_cast<double>(full_cycles[i]) * 100.0;
        EXPECT_LE(err, 5.0) << workloads[i]->name;
    }
}
