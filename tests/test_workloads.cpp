/**
 * @file
 * Workload-suite integration tests: every kernel assembles, runs
 * deterministically on the emulator, produces matching architectural
 * state on the timing core with full RENO (parameterized over all 27
 * kernels), and exhibits sane instruction mixes.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.hpp"

using namespace reno;

TEST(Workloads, RegistryShape)
{
    const auto &all = allWorkloads();
    EXPECT_EQ(all.size(), 34u);
    EXPECT_EQ(suiteWorkloads("spec").size(), 16u);
    EXPECT_EQ(suiteWorkloads("media").size(), 18u);
    for (const auto &w : all) {
        EXPECT_FALSE(w.name.empty());
        EXPECT_TRUE(w.suite == "spec" || w.suite == "media");
        EXPECT_NE(w.source, nullptr);
    }
}

TEST(Workloads, LookupByName)
{
    EXPECT_EQ(workloadByName("gzip").suite, "spec");
    EXPECT_EQ(workloadByName("adpcm.enc").suite, "media");
}

TEST(Workloads, EmulatorRunsAreDeterministic)
{
    const Workload &w = workloadByName("gcc");
    const RunOutput a = runFunctional(w);
    const RunOutput b = runFunctional(w);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.memDigest, b.memDigest);
    EXPECT_EQ(a.emuInsts, b.emuInsts);
    EXPECT_FALSE(a.output.empty());
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
  protected:
    const Workload &workload() const { return workloadByName(
        GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Workloads, EveryWorkload,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &w : allWorkloads())
            names.push_back(w.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

TEST_P(EveryWorkload, FullRenoMatchesFunctionalState)
{
    const RunOutput ref = runFunctional(workload());
    CoreParams params;
    params.reno = RenoConfig::full();
    const RunOutput run = runWorkload(workload(), params);
    EXPECT_EQ(run.output, ref.output);
    EXPECT_EQ(run.memDigest, ref.memDigest);
    EXPECT_EQ(run.sim.retired, ref.emuInsts);
}

TEST_P(EveryWorkload, ReasonableSizeAndMix)
{
    const RunOutput ref = runFunctional(workload());
    // Big enough to be a meaningful benchmark, small enough for the
    // suite to stay fast.
    EXPECT_GT(ref.emuInsts, 100'000u);
    EXPECT_LT(ref.emuInsts, 3'000'000u);
}

TEST_P(EveryWorkload, RenoEliminatesSomething)
{
    CoreParams params;
    params.reno = RenoConfig::full();
    const RunOutput run = runWorkload(workload(), params);
    // Every kernel has loop control and address arithmetic; RENO must
    // find at least a few percent to collapse.
    EXPECT_GT(run.sim.elimFraction(), 0.02)
        << workload().name << " eliminated too little";
    EXPECT_LT(run.sim.elimFraction(), 0.60);
}

TEST(Workloads, SuiteAveragesInPaperBand)
{
    // The paper reports ~22% of dynamic instructions eliminated or
    // folded on average, with RENO_CF alone at 12% (SPEC) and 16%
    // (MediaBench). Shapes, not exact values: check generous bands.
    for (const char *suite : {"spec", "media"}) {
        std::vector<double> total, cf;
        for (const Workload *w : suiteWorkloads(suite)) {
            CoreParams params;
            params.reno = RenoConfig::full();
            const RunOutput run = runWorkload(*w, params);
            total.push_back(run.sim.elimFraction());
            cf.push_back(run.sim.elimFraction(ElimKind::Fold));
        }
        EXPECT_GT(amean(total), 0.10) << suite;
        EXPECT_LT(amean(total), 0.35) << suite;
        EXPECT_GT(amean(cf), 0.06) << suite;
    }
}

TEST(Workloads, InputVariantsShareCodeButDifferInData)
{
    // The paper's per-input bars (eon.c/k/r, perl.d/s, ...) are the
    // same kernel on a different input stream: identical static code,
    // different dynamic behavior, all state-checked.
    const Workload &c = workloadByName("eon.c");
    const Workload &k = workloadByName("eon.k");
    EXPECT_EQ(c.source, k.source) << "same kernel text";
    EXPECT_NE(c.seed, k.seed);

    const RunOutput out_c = runFunctional(c);
    const RunOutput out_k = runFunctional(k);
    EXPECT_NE(out_c.output, out_k.output)
        << "different inputs should produce different results";
}

TEST(Workloads, VariantSeedsReachTheTimingCore)
{
    // The timing core must simulate the same input stream the
    // functional reference consumed (seed plumbed through runWorkload).
    const Workload &w = workloadByName("perl.s");
    const RunOutput ref = runFunctional(w);
    CoreParams params;
    params.reno = RenoConfig::full();
    const RunOutput run = runWorkload(w, params);
    EXPECT_EQ(run.output, ref.output);
    EXPECT_EQ(run.memDigest, ref.memDigest);
}

// ---- the generated memory-bound suite --------------------------------

TEST(MemSuite, RegistryAndFunctionalDeterminism)
{
    const auto mem = suiteWorkloads("mem");
    EXPECT_EQ(mem.size(), 7u);
    for (const SuiteInfo &s : knownSuites()) {
        if (s.name == "mem")
            EXPECT_FALSE(s.paper) << "mem is generated, not swept by "
                                     "default";
    }
    for (const Workload *w : mem) {
        const RunOutput a = runFunctional(*w);
        const RunOutput b = runFunctional(*w);
        EXPECT_EQ(a.output, b.output) << w->name;
        EXPECT_EQ(a.memDigest, b.memDigest) << w->name;
        EXPECT_FALSE(a.output.empty()) << w->name;
        EXPECT_GT(a.emuInsts, 400'000u)
            << w->name << " should be a long-running kernel";
    }
}

TEST(MemSuite, TimingCoreMatchesFunctionalState)
{
    // Memory-bound kernels through the full detailed core (RENO on):
    // architectural results must match the functional emulator. One
    // representative per kernel family keeps the test fast.
    for (const char *name :
         {"mem.stream.32k", "mem.chase.64k", "mem.tile.mm"}) {
        const Workload &w = workloadByName(name);
        const RunOutput ref = runFunctional(w);
        CoreParams params;
        params.reno = RenoConfig::full();
        const RunOutput run = runWorkload(w, params);
        EXPECT_EQ(run.output, ref.output) << name;
        EXPECT_EQ(run.memDigest, ref.memDigest) << name;
        EXPECT_GT(run.sim.cycles, 0u) << name;
    }
}

TEST(MemSuite, FootprintsStressTheIntendedLevels)
{
    // The 32 KB stream stays D$-resident after the first pass; the
    // 1 MB one spills past the 512 KB L2 every pass.
    CoreParams params;
    const RunOutput small =
        runWorkload(workloadByName("mem.stream.32k"), params);
    const RunOutput big =
        runWorkload(workloadByName("mem.stream.1m"), params);
    const double small_mr =
        double(small.sim.dcacheMisses) /
        double(small.sim.retiredLoads + small.sim.retiredStores);
    const double big_mr =
        double(big.sim.dcacheMisses) /
        double(big.sim.retiredLoads + big.sim.retiredStores);
    EXPECT_LT(small_mr, 0.02);
    EXPECT_GT(big_mr, 10 * small_mr);
    EXPECT_GT(big.sim.l2Misses, big.sim.retired / 100)
        << "the 1 MB stream must miss the L2 heavily";
}

TEST(Workloads, GlobMatchingSelectsAcrossSuites)
{
    EXPECT_EQ(workloadsMatching("mem.*").size(), 7u);
    EXPECT_EQ(workloadsMatching("branch.*").size(), 6u);
    EXPECT_EQ(workloadsMatching("mem.stream.*").size(), 3u);
    EXPECT_EQ(workloadsMatching("gzip").size(), 1u);
    EXPECT_EQ(workloadsMatching("*.dec").size(), 6u);
    EXPECT_EQ(workloadsMatching("synth.?????").size(), 3u)
        << "exactly the five-letter tails: plain, phase, chase";
    EXPECT_DEATH(workloadsMatching("no-such-*"), "matches no");
}

TEST(BranchSuite, RegistryAndFunctionalDeterminism)
{
    const auto branch = suiteWorkloads("branch");
    EXPECT_EQ(branch.size(), 6u);
    for (const SuiteInfo &s : knownSuites()) {
        if (s.name == "branch")
            EXPECT_FALSE(s.paper)
                << "branch is generated, not swept by default";
    }
    for (const Workload *w : branch) {
        const RunOutput a = runFunctional(*w);
        const RunOutput b = runFunctional(*w);
        EXPECT_EQ(a.output, b.output) << w->name;
        EXPECT_EQ(a.memDigest, b.memDigest) << w->name;
        EXPECT_FALSE(a.output.empty()) << w->name;
        EXPECT_GT(a.emuInsts, 1'000'000u)
            << w->name << " should be a long-running kernel";
    }
}

TEST(BranchSuite, TimingCoreMatchesFunctionalState)
{
    // Front-end-bound kernels through the full detailed core (RENO
    // on): architectural results must match the functional emulator.
    // The call and indirect kernels exercise the paths the paper
    // suites never reach (recursion through the RAS, megamorphic
    // dispatch through the BTB).
    for (const char *name : {"branch.call", "branch.ind"}) {
        const Workload &w = workloadByName(name);
        const RunOutput ref = runFunctional(w);
        CoreParams params;
        params.reno = RenoConfig::full();
        const RunOutput run = runWorkload(w, params);
        EXPECT_EQ(run.output, ref.output) << name;
        EXPECT_EQ(run.memDigest, ref.memDigest) << name;
        EXPECT_GT(run.sim.cycles, 0u) << name;
    }
}

TEST(BranchSuite, KernelsIsolateFailureModes)
{
    const CoreParams base;

    // bias: nearly every branch predictable by any per-PC counter.
    const RunOutput bias =
        runWorkload(workloadByName("branch.bias"), base);
    EXPECT_LT(double(bias.sim.bpMispredicts),
              0.05 * double(bias.sim.bpLookups));

    // alt: alternation defeats a history-less bimodal, not the
    // default tournament.
    CoreParams bimodal = base;
    ASSERT_TRUE(applyVariant("bimodal", &bimodal));
    const Workload &alt = workloadByName("branch.alt");
    const RunOutput alt_tour = runWorkload(alt, base);
    const RunOutput alt_bim = runWorkload(alt, bimodal);
    EXPECT_GT(alt_bim.sim.bpDirMispredicts,
              100 * std::max<std::uint64_t>(
                        alt_tour.sim.bpDirMispredicts, 1));

    // call: depth 24 overflows a 16-entry RAS, not the default 32.
    CoreParams ras16 = base;
    ASSERT_TRUE(applyVariant("ras16", &ras16));
    const Workload &call = workloadByName("branch.call");
    const RunOutput call_deep = runWorkload(call, base);
    const RunOutput call_shallow = runWorkload(call, ras16);
    EXPECT_EQ(call_deep.sim.bpRasMispredicts, 0u);
    EXPECT_GT(call_shallow.sim.bpRasMispredicts, 1000u);
    EXPECT_GT(call_shallow.sim.bpRasOverflows, 0u);

    // ind: the rotating dispatch defeats the last-target BTB; the
    // indirect-target table recovers it.
    CoreParams itt = base;
    ASSERT_TRUE(applyVariant("itt", &itt));
    const Workload &ind = workloadByName("branch.ind");
    const RunOutput ind_btb = runWorkload(ind, base);
    const RunOutput ind_itt = runWorkload(ind, itt);
    EXPECT_GT(ind_btb.sim.bpTargetMispredicts, 100'000u);
    EXPECT_LT(ind_itt.sim.bpTargetMispredicts, 1000u);
    EXPECT_LT(ind_itt.sim.cycles, ind_btb.sim.cycles / 2);
}
