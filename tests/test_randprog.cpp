/**
 * @file
 * Property-based tests: randomly generated programs must produce
 * identical architectural state on the functional emulator and on the
 * timing core under every RENO configuration. This is the strongest
 * end-to-end check of the renamer's sharing, rollback and recovery
 * logic.
 */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "emu/emulator.hpp"
#include "sys/system.hpp"
#include "workloads/randprog.hpp"
#include "workloads/workloads.hpp"

using namespace reno;

namespace
{

struct StateDigest {
    std::string output;
    std::uint64_t mem;
    std::uint64_t insts;

    bool operator==(const StateDigest &other) const = default;
};

StateDigest
functionalDigest(const Program &prog)
{
    Emulator emu(prog);
    emu.run();
    return {emu.output(), emu.memory().digest(), emu.instCount()};
}

StateDigest
coreDigest(const Program &prog, const CoreParams &params)
{
    Emulator emu(prog);
    System sys(params, {&emu});
    const SimResult r = sys.run();
    EXPECT_TRUE(sys.finished());
    return {emu.output(), emu.memory().digest(), r.retired};
}

} // namespace

TEST(RandProg, GeneratorIsDeterministic)
{
    RandProgParams p;
    p.seed = 5;
    EXPECT_EQ(generateRandomProgram(p), generateRandomProgram(p));
    p.seed = 6;
    EXPECT_NE(generateRandomProgram(RandProgParams{}),
              generateRandomProgram(p));
}

TEST(RandProg, GeneratedProgramsAssembleAndTerminate)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        RandProgParams p;
        p.seed = seed;
        const Program prog = assemble(generateRandomProgram(p));
        Emulator emu(prog);
        emu.run();
        EXPECT_TRUE(emu.done());
        EXPECT_GT(emu.instCount(), 1000u);
    }
}

class RandProgSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Property, RandProgSeeds,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_P(RandProgSeeds, FullRenoMatchesFunctional)
{
    RandProgParams p;
    p.seed = GetParam();
    const Program prog = assemble(generateRandomProgram(p));
    const StateDigest ref = functionalDigest(prog);

    CoreParams params;
    params.reno = RenoConfig::full();
    EXPECT_EQ(coreDigest(prog, params), ref);
}

TEST_P(RandProgSeeds, FullIntegrationMatchesFunctional)
{
    RandProgParams p;
    p.seed = GetParam();
    const Program prog = assemble(generateRandomProgram(p));
    const StateDigest ref = functionalDigest(prog);

    CoreParams params;
    params.reno = RenoConfig::fullIt();
    EXPECT_EQ(coreDigest(prog, params), ref);
}

TEST_P(RandProgSeeds, TinyRegisterFileMatchesFunctional)
{
    RandProgParams p;
    p.seed = GetParam();
    p.iters = 20;
    const Program prog = assemble(generateRandomProgram(p));
    const StateDigest ref = functionalDigest(prog);

    CoreParams params;
    params.reno = RenoConfig::full();
    params.numPregs = 40;
    EXPECT_EQ(coreDigest(prog, params), ref);
}

TEST_P(RandProgSeeds, NarrowMachineMatchesFunctional)
{
    RandProgParams p;
    p.seed = GetParam();
    p.iters = 20;
    const Program prog = assemble(generateRandomProgram(p));
    const StateDigest ref = functionalDigest(prog);

    CoreParams params = CoreParams::issueReduced(2, 2);
    params.reno = RenoConfig::full();
    params.schedLoop = 2;
    EXPECT_EQ(coreDigest(prog, params), ref);
}

TEST(RandProg, CyclesAreDeterministicAcrossRuns)
{
    RandProgParams p;
    p.seed = 99;
    const Program prog = assemble(generateRandomProgram(p));
    CoreParams params;
    params.reno = RenoConfig::full();

    Emulator emu_a(prog);
    System sys_a(params, {&emu_a});
    Emulator emu_b(prog);
    System sys_b(params, {&emu_b});
    EXPECT_EQ(sys_a.run().cycles, sys_b.run().cycles);
}

// ---- phase-switching and pointer-chasing shapes ---------------------

TEST(RandProgShapes, NewShapesAreDeterministicAndDistinct)
{
    RandProgParams base;
    base.seed = 7;

    RandProgParams phased = base;
    phased.phases = 4;
    phased.phasePeriod = 4;

    RandProgParams chasing = base;
    chasing.chaseSteps = 6;

    // Same params, same text; different shapes, different text.
    EXPECT_EQ(generateRandomProgram(phased),
              generateRandomProgram(phased));
    EXPECT_EQ(generateRandomProgram(chasing),
              generateRandomProgram(chasing));
    EXPECT_NE(generateRandomProgram(phased),
              generateRandomProgram(base));
    EXPECT_NE(generateRandomProgram(chasing),
              generateRandomProgram(base));

    // phases = 1 must reproduce the classic program byte for byte
    // (phasePeriod is then meaningless).
    RandProgParams classic = base;
    classic.phasePeriod = 99;
    EXPECT_EQ(generateRandomProgram(classic),
              generateRandomProgram(base));
}

TEST(RandProgShapes, PhaseProgramVisitsEveryPhase)
{
    RandProgParams p;
    p.seed = 3;
    p.phases = 3;
    p.phasePeriod = 2;
    p.iters = 12;
    const std::string src = generateRandomProgram(p);
    for (unsigned phase = 0; phase < 3; ++phase) {
        EXPECT_NE(src.find(strprintf("phase_%u:", phase)),
                  std::string::npos);
    }
    // Dispatch plus bodies: 12 iterations over period 2 rotate
    // through all three phases twice; just run it.
    const Program prog = assemble(src);
    Emulator emu(prog);
    emu.run();
    EXPECT_TRUE(emu.done());
}

class RandProgShapeSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Property, RandProgShapeSeeds,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST_P(RandProgShapeSeeds, PhaseSwitchingMatchesFunctional)
{
    RandProgParams p;
    p.seed = GetParam();
    p.phases = 4;
    p.phasePeriod = 3;
    p.iters = 30;
    const Program prog = assemble(generateRandomProgram(p));
    const StateDigest ref = functionalDigest(prog);

    CoreParams params;
    params.reno = RenoConfig::full();
    EXPECT_EQ(coreDigest(prog, params), ref);
}

TEST_P(RandProgShapeSeeds, PointerChasingMatchesFunctional)
{
    RandProgParams p;
    p.seed = GetParam();
    p.chaseSteps = 8;
    p.iters = 30;
    const Program prog = assemble(generateRandomProgram(p));
    const StateDigest ref = functionalDigest(prog);

    CoreParams params;
    params.reno = RenoConfig::full();
    EXPECT_EQ(coreDigest(prog, params), ref);
}

TEST_P(RandProgShapeSeeds, CombinedShapesMatchFunctional)
{
    RandProgParams p;
    p.seed = GetParam();
    p.phases = 3;
    p.phasePeriod = 2;
    p.chaseSteps = 5;
    p.iters = 20;
    const Program prog = assemble(generateRandomProgram(p));
    const StateDigest ref = functionalDigest(prog);

    CoreParams params;
    params.reno = RenoConfig::full();
    EXPECT_EQ(coreDigest(prog, params), ref);
}

TEST(RandProgShapes, SynthSuiteRegistryIsUsable)
{
    const auto &synth = synthWorkloads();
    ASSERT_EQ(synth.size(), 4u);
    EXPECT_EQ(suiteWorkloads("synth").size(), 4u);
    for (const auto &w : synth) {
        EXPECT_EQ(w.suite, "synth");
        EXPECT_EQ(&workloadByName(w.name), &w);
        // Assembles; registered sources are stable pointers.
        EXPECT_NO_THROW(assemble(w.source));
    }
    // Distinct shapes generate distinct programs.
    EXPECT_STRNE(synthWorkloads()[0].source,
                 synthWorkloads()[1].source);
}
