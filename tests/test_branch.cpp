/**
 * @file
 * Branch-prediction stack tests: the composite predictor's default
 * (tournament) behavior, per-engine direction learning (bimodal,
 * gshare, TAGE-lite, perceptron), BTB indirect targets, RAS
 * call/return behavior with overflow modeling, the indirect-target
 * table, parameter-validation fatals, and state export/import
 * round-trips across every engine.
 */
#include <gtest/gtest.h>

#include "bpred/predictor.hpp"
#include "harness/experiment.hpp"

using namespace reno;

namespace
{

Instruction
condBranch()
{
    return Instruction::branch(Opcode::BNE, 1, 4);
}

Instruction
callInst()
{
    return Instruction::jump(Opcode::BSR, RegRa, RegZero, 16);
}

Instruction
retInst()
{
    return Instruction::jump(Opcode::JMP, RegZero, RegRa, 0);
}

Instruction
indirectJump()
{
    return Instruction::jump(Opcode::JMP, RegZero, 5, 0);
}

BranchPredParams
withKind(DirPredKind kind)
{
    BranchPredParams p;
    p.dir.kind = kind;
    return p;
}

/** Train + score @p bp on a deterministic outcome stream at one PC;
 *  returns the correct fraction over the last quarter. */
double
lateAccuracy(BranchPredictor &bp, Addr pc,
             const std::vector<bool> &outcomes)
{
    const Instruction b = condBranch();
    const std::size_t tail = outcomes.size() / 4;
    unsigned correct = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Prediction p = bp.predict(pc, b);
        if (i >= outcomes.size() - tail && p.taken == outcomes[i])
            ++correct;
        bp.update(pc, b, outcomes[i],
                  outcomes[i] ? pc + 20 : pc + 4);
    }
    return double(correct) / double(tail);
}

} // namespace

TEST(Bpred, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x1000;
    const Addr target = 0x1014;
    const Instruction b = condBranch();
    // Train a few times.
    for (int i = 0; i < 8; ++i) {
        bp.predict(pc, b);
        bp.update(pc, b, true, target);
    }
    const Prediction p = bp.predict(pc, b);
    EXPECT_TRUE(p.taken);
    EXPECT_EQ(p.target, target);
}

TEST(Bpred, LearnsAlwaysNotTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x2000;
    const Instruction b = condBranch();
    for (int i = 0; i < 8; ++i) {
        bp.predict(pc, b);
        bp.update(pc, b, false, pc + 4);
    }
    const Prediction p = bp.predict(pc, b);
    EXPECT_FALSE(p.taken);
    EXPECT_EQ(p.target, pc + 4);
}

TEST(Bpred, GshareCapturesAlternatingPattern)
{
    BranchPredictor bp;
    const Addr pc = 0x3000;
    const Instruction b = condBranch();
    // T,N,T,N...: bimodal dithers; gshare + chooser learn it.
    unsigned correct_late = 0;
    for (int i = 0; i < 400; ++i) {
        const bool actual = (i % 2) == 0;
        const Prediction p = bp.predict(pc, b);
        if (i >= 300 && p.taken == actual)
            ++correct_late;
        bp.update(pc, b, actual, actual ? 0x3014 : pc + 4);
    }
    EXPECT_GE(correct_late, 95u) << "pattern should be near-perfect";
}

TEST(Bpred, DirectCallPredictsTargetAndPushesRas)
{
    BranchPredictor bp;
    const Instruction call = callInst();
    const Prediction p = bp.predict(0x1000, call);
    EXPECT_TRUE(p.taken);
    EXPECT_TRUE(p.targetValid);
    EXPECT_EQ(p.target, 0x1000 + 4 + 16 * 4);

    // Matching return pops the pushed address.
    const Prediction r = bp.predict(0x5000, retInst());
    EXPECT_TRUE(r.targetValid);
    EXPECT_TRUE(r.fromRas);
    EXPECT_EQ(r.target, 0x1004u);
}

TEST(Bpred, RasNesting)
{
    BranchPredictor bp;
    bp.predict(0x1000, callInst());  // pushes 0x1004
    bp.predict(0x2000, callInst());  // pushes 0x2004
    const Prediction r1 = bp.predict(0x6000, retInst());
    EXPECT_EQ(r1.target, 0x2004u);
    const Prediction r2 = bp.predict(0x6100, retInst());
    EXPECT_EQ(r2.target, 0x1004u);
}

TEST(Bpred, RasWrapsAtCapacityAndCountsOverflows)
{
    BranchPredParams params;
    params.ras.entries = 4;
    BranchPredictor bp(params);
    for (unsigned i = 0; i < 6; ++i)
        bp.predict(0x1000 + i * 0x100, callInst());
    // Two pushes beyond capacity clobbered the oldest frames.
    EXPECT_EQ(bp.rasOverflows(), 2u);
    // The deepest 4 returns are correct; older entries were clobbered.
    EXPECT_EQ(bp.predict(0x9000, retInst()).target, 0x1504u);
    EXPECT_EQ(bp.predict(0x9000, retInst()).target, 0x1404u);
    EXPECT_EQ(bp.predict(0x9000, retInst()).target, 0x1304u);
    EXPECT_EQ(bp.predict(0x9000, retInst()).target, 0x1204u);
}

TEST(Bpred, BtbLearnsIndirectTargets)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    const Instruction j = indirectJump();
    // Unknown at first.
    EXPECT_FALSE(bp.predict(pc, j).targetValid);
    bp.update(pc, j, true, 0x8888);
    const Prediction p = bp.predict(pc, j);
    EXPECT_TRUE(p.targetValid);
    EXPECT_EQ(p.target, 0x8888u);
    // Retrains on a new target.
    bp.update(pc, j, true, 0x9999);
    EXPECT_EQ(bp.predict(pc, j).target, 0x9999u);
}

TEST(Bpred, ReturnThroughNonRaRegisterUsesBtb)
{
    BranchPredictor bp;
    const Instruction j = indirectJump();  // jmp (t4), not (ra)
    bp.update(0x4100, j, true, 0x7777);
    const Prediction p = bp.predict(0x4100, j);
    EXPECT_TRUE(p.targetValid);
    EXPECT_FALSE(p.fromRas);
    EXPECT_EQ(p.target, 0x7777u);
}

TEST(Bpred, UnconditionalBranchAlwaysTaken)
{
    BranchPredictor bp;
    const Instruction br = Instruction::branch(Opcode::BR, RegZero, 10);
    const Prediction p = bp.predict(0x1000, br);
    EXPECT_TRUE(p.taken);
    EXPECT_TRUE(p.targetValid);
    EXPECT_EQ(p.target, 0x1000 + 4 + 40);
}

TEST(Bpred, CountsLookupsAndMispredictBreakdown)
{
    BranchPredictor bp;
    EXPECT_EQ(bp.lookups(), 0u);
    bp.predict(0x1000, condBranch());
    EXPECT_EQ(bp.lookups(), 1u);
    bp.noteDirMispredict();
    bp.noteTargetMispredict();
    bp.noteRasMispredict();
    EXPECT_EQ(bp.dirMispredicts(), 1u);
    EXPECT_EQ(bp.targetMispredicts(), 1u);
    EXPECT_EQ(bp.rasMispredicts(), 1u);
    EXPECT_EQ(bp.mispredicts(), 3u);
}

TEST(Bpred, DistinctPcsDoNotInterfereMuch)
{
    BranchPredictor bp;
    const Instruction b = condBranch();
    // Train pc A taken, pc B (different bimodal index) not-taken.
    const Addr a = 0x1000, c = 0x1400;
    for (int i = 0; i < 8; ++i) {
        bp.predict(a, b);
        bp.update(a, b, true, a + 20);
        bp.predict(c, b);
        bp.update(c, b, false, c + 4);
    }
    EXPECT_TRUE(bp.predict(a, b).taken);
    EXPECT_FALSE(bp.predict(c, b).taken);
}

// ---------------------------------------------------------------------------
// Per-engine direction behavior.
// ---------------------------------------------------------------------------

TEST(DirEngines, BimodalLearnsBiasButNotAlternation)
{
    std::vector<bool> biased, alternating;
    for (int i = 0; i < 400; ++i) {
        biased.push_back(i % 16 != 0);
        alternating.push_back(i % 2 == 0);
    }
    BranchPredictor bias_bp(withKind(DirPredKind::Bimodal));
    EXPECT_GE(lateAccuracy(bias_bp, 0x1000, biased), 0.90);
    BranchPredictor alt_bp(withKind(DirPredKind::Bimodal));
    EXPECT_LE(lateAccuracy(alt_bp, 0x1000, alternating), 0.60)
        << "a history-less predictor cannot capture alternation";
}

TEST(DirEngines, GshareLearnsAlternation)
{
    std::vector<bool> alternating;
    for (int i = 0; i < 400; ++i)
        alternating.push_back(i % 2 == 0);
    BranchPredictor bp(withKind(DirPredKind::GShare));
    EXPECT_GE(lateAccuracy(bp, 0x1000, alternating), 0.95);
}

TEST(DirEngines, TageLearnsLongPeriodPatterns)
{
    // Period-24 pattern: beyond a 2-bit counter, learnable from
    // ~24 bits of history -- the long-history tagged tables.
    std::vector<bool> pattern;
    for (int i = 0; i < 3000; ++i)
        pattern.push_back((i % 24) < 7);
    BranchPredictor bp(withKind(DirPredKind::Tage));
    EXPECT_GE(lateAccuracy(bp, 0x1000, pattern), 0.90);
    EXPECT_GT(bp.direction().providerHits(), 0u)
        << "tagged tables should provide predictions";
    EXPECT_GT(bp.direction().altHits(), 0u)
        << "cold lookups fall through to the base table";
}

TEST(DirEngines, PerceptronLearnsHistoryCorrelationAndConfidence)
{
    // Outcome = history bit 3 (a linearly separable function of the
    // history): exactly what a perceptron learns and a bimodal
    // cannot.
    BranchPredictor bp(withKind(DirPredKind::Perceptron));
    const Instruction b = condBranch();
    const Addr pc = 0x1000;
    std::uint64_t hist = 0;
    unsigned correct_late = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const bool actual = (hist >> 3) & 1;
        const Prediction p = bp.predict(pc, b);
        if (i >= n - 400 && p.taken == actual)
            ++correct_late;
        bp.update(pc, b, actual, actual ? pc + 20 : pc + 4);
        hist = (hist << 1) | (i % 3 == 0 ? 1 : 0);
    }
    EXPECT_GE(correct_late, 380u);
    EXPECT_GT(bp.direction().confidentPredicts(), 0u);
}

TEST(DirEngines, TournamentMatchesSeedHybridChoice)
{
    // The alternating pattern from the seed test must stay
    // near-perfect under the explicit Tournament engine too (it IS
    // the default; this pins the equivalence).
    std::vector<bool> alternating;
    for (int i = 0; i < 400; ++i)
        alternating.push_back(i % 2 == 0);
    BranchPredictor def_bp;
    BranchPredictor tour_bp(withKind(DirPredKind::Tournament));
    EXPECT_EQ(lateAccuracy(def_bp, 0x3000, alternating),
              lateAccuracy(tour_bp, 0x3000, alternating));
}

// ---------------------------------------------------------------------------
// Indirect-target table.
// ---------------------------------------------------------------------------

TEST(IndirectTable, DisambiguatesMegamorphicSiteByPathHistory)
{
    // One dispatch site alternating between two targets in a fixed
    // rotation: the last-target BTB mispredicts every time the target
    // changes; the path-history-indexed table learns the rotation.
    BranchPredParams with_itt;
    with_itt.indirect.enabled = true;
    BranchPredParams btb_only;

    for (const bool use_itt : {false, true}) {
        BranchPredictor bp(use_itt ? with_itt : btb_only);
        const Instruction j = Instruction::jump(Opcode::JSR, RegRa,
                                                5, 0);
        const Addr pc = 0x4000;
        const Addr targets[2] = {0x8000, 0x9000};
        unsigned correct = 0;
        for (int i = 0; i < 64; ++i) {
            const Addr actual = targets[i % 2];
            const Prediction p = bp.predict(pc, j);
            if (i >= 32 && p.targetValid && p.target == actual)
                ++correct;
            bp.update(pc, j, true, actual);
        }
        if (use_itt)
            EXPECT_GE(correct, 30u) << "ITT should track the rotation";
        else
            EXPECT_EQ(correct, 0u)
                << "the last-target BTB always lags the rotation";
    }
}

// ---------------------------------------------------------------------------
// Parameter validation.
// ---------------------------------------------------------------------------

TEST(BpredValidation, FatalsOnBadGeometry)
{
    const auto make = [](auto mutate) {
        BranchPredParams p;
        mutate(p);
        BranchPredictor bp(p);
    };
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.dir.bimodalEntries = 3000;
                 }),
                 "power of two");
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.dir.gshareEntries = 0;
                 }),
                 "power of two");
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.dir.historyBits = 64;
                 }),
                 "historyBits");
    EXPECT_DEATH(make([](BranchPredParams &p) { p.btb.entries = 0; }),
                 "power of two");
    EXPECT_DEATH(make([](BranchPredParams &p) { p.btb.assoc = 3; }),
                 "divide");
    EXPECT_DEATH(make([](BranchPredParams &p) { p.ras.entries = 0; }),
                 "non-zero");
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.dir.kind = DirPredKind::Tage;
                     p.dir.tageTables = 0;
                 }),
                 "tagged table");
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.dir.kind = DirPredKind::Tage;
                     p.dir.tageMaxHist = 100;
                 }),
                 "history range");
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.dir.kind = DirPredKind::Perceptron;
                     p.dir.perceptronEntries = 300;
                 }),
                 "power of two");
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.dir.kind = DirPredKind::Perceptron;
                     p.dir.perceptronHistBits = 0;
                 }),
                 "history");
    EXPECT_DEATH(make([](BranchPredParams &p) {
                     p.indirect.enabled = true;
                     p.indirect.entries = 100;
                 }),
                 "power of two");
}

// ---------------------------------------------------------------------------
// State export/import round-trips.
// ---------------------------------------------------------------------------

namespace
{

/** Exercise every component: conditionals, calls, returns, indirect
 *  jumps, across enough PCs to populate tables. */
void
exercise(BranchPredictor &bp, unsigned rounds)
{
    const Instruction b = condBranch();
    const Instruction j = indirectJump();
    for (unsigned i = 0; i < rounds; ++i) {
        const Addr pc = 0x1000 + (i % 97) * 8;
        const bool taken = ((i * 2654435761u) >> 7) & 1;
        bp.predict(pc, b);
        bp.update(pc, b, taken, taken ? pc + 32 : pc + 4);
        if (i % 3 == 0)
            bp.predict(0x8000 + (i % 11) * 4, callInst());
        if (i % 5 == 0)
            bp.predict(0x9000, retInst());
        if (i % 7 == 0) {
            const Addr jpc = 0xa000 + (i % 5) * 4;
            bp.predict(jpc, j);
            bp.update(jpc, j, true, 0x2000 + (i % 13) * 64);
        }
    }
}

BranchPredParams
variantParams(const std::string &variant)
{
    CoreParams core;
    std::size_t pos = 0;
    while (pos != std::string::npos) {
        const std::size_t next = variant.find('/', pos);
        const std::string token =
            variant.substr(pos, next == std::string::npos
                                    ? std::string::npos
                                    : next - pos);
        EXPECT_TRUE(applyVariant(token, &core)) << token;
        pos = next == std::string::npos ? next : next + 1;
    }
    return core.bpred;
}

} // namespace

TEST(BpredState, RoundTripsAcrossEveryVariant)
{
    for (const char *variant :
         {"tournament", "bimodal", "gshare", "tage", "perceptron",
          "tage/ras16", "perceptron/btb256", "tournament/itt"}) {
        const BranchPredParams params = variantParams(variant);
        BranchPredictor bp(params);
        exercise(bp, 500);
        const BranchPredState state = bp.exportState();

        BranchPredictor restored(params);
        ASSERT_TRUE(restored.importState(state)) << variant;

        // Re-export must be the identity...
        const BranchPredState again = restored.exportState();
        EXPECT_EQ(again.dir.history, state.dir.history) << variant;
        EXPECT_EQ(again.dir.tables, state.dir.tables) << variant;
        EXPECT_EQ(again.ras.stack, state.ras.stack) << variant;
        EXPECT_EQ(again.ras.top, state.ras.top) << variant;
        EXPECT_EQ(again.btb.entries.size(), state.btb.entries.size())
            << variant;
        EXPECT_EQ(again.indirect.entries.size(),
                  state.indirect.entries.size())
            << variant;

        // ...and future behavior must be indistinguishable.
        exercise(bp, 200);
        exercise(restored, 200);
        const BranchPredState a = bp.exportState();
        const BranchPredState b = restored.exportState();
        EXPECT_EQ(a.dir.tables, b.dir.tables) << variant;
        EXPECT_EQ(a.dir.history, b.dir.history) << variant;
    }
}

TEST(BpredState, ImportRejectsShapeMismatch)
{
    BranchPredictor bp;
    exercise(bp, 100);
    const BranchPredState state = bp.exportState();

    // A different direction geometry must reject the tables.
    BranchPredParams small;
    small.dir.bimodalEntries = 1024;
    BranchPredictor other(small);
    EXPECT_FALSE(other.importState(state));

    // A different engine must reject the table layout.
    BranchPredictor tage(withKind(DirPredKind::Tage));
    EXPECT_FALSE(tage.importState(state));

    // A shorter RAS must reject the stack.
    BranchPredParams ras8;
    ras8.ras.entries = 8;
    BranchPredictor shallow(ras8);
    EXPECT_FALSE(shallow.importState(state));
}

TEST(BpredState, CopySemanticsPreserveBehavior)
{
    // Sampled simulation copies warmed predictors into cores; the
    // copy must be deep for every engine.
    for (const DirPredKind kind :
         {DirPredKind::Tournament, DirPredKind::Tage,
          DirPredKind::Perceptron}) {
        BranchPredictor bp(withKind(kind));
        exercise(bp, 300);
        BranchPredictor copy(bp);
        exercise(bp, 100);
        exercise(copy, 100);
        const BranchPredState a = bp.exportState();
        const BranchPredState b = copy.exportState();
        EXPECT_EQ(a.dir.tables, b.dir.tables)
            << dirPredKindName(kind);
        // Diverging the original must not touch the copy.
        exercise(bp, 50);
        EXPECT_EQ(copy.exportState().dir.tables, b.dir.tables)
            << dirPredKindName(kind);
    }
}
