/**
 * @file
 * Precise-state tests for RENO_CF (paper section 3.5).
 *
 * Constant folding defers the final piece of an operation to a future
 * consumer, so registers can be architecturally "mapped to non-zero
 * immediates" when a syscall, store, branch, or squash observes them.
 * The paper's two keys to preserving precise state are (a) handler /
 * observer instructions also run through the RENO pipeline and thus
 * interpret [p:d] mappings correctly, and (b) a 2-input adder on the
 * store data path collapses the displacement before the value reaches
 * memory. These tests pin down both, at the renamer level (where the
 * displacement must travel with the operand) and at the core level
 * (where all observable behavior must match the functional emulator).
 */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "reno/renamer.hpp"
#include "sys/system.hpp"

using namespace reno;

namespace
{

std::unique_ptr<RenoRenamer>
makeRenamer(RenoConfig config, unsigned pregs = 64)
{
    auto ren = std::make_unique<RenoRenamer>(config, pregs);
    std::uint64_t vals[NumLogRegs] = {};
    for (unsigned r = 0; r < NumLogRegs; ++r)
        vals[r] = 100 * r;
    ren->initialize(vals);
    return ren;
}

RenameOut
renameOne(RenoRenamer &ren, const Instruction &inst, std::uint64_t result)
{
    ren.beginGroup();
    return ren.rename(RenameIn{inst, result});
}

/** Run @p src both on the emulator and on a 1-core System; expect
 *  identical observable behavior (printed output and memory digest). */
void
expectPreciseState(const std::string &src, const CoreParams &params)
{
    const Program prog = assemble(src);

    Emulator ref(prog);
    ref.run();

    Emulator emu(prog);
    System sys(params, {&emu});
    sys.run();

    EXPECT_EQ(emu.output(), ref.output());
    EXPECT_EQ(emu.memory().digest(), ref.memory().digest());
    for (unsigned r = 0; r < NumLogRegs; ++r)
        EXPECT_EQ(emu.state().reg(r), ref.state().reg(r)) << "r" << r;
}

CoreParams
fullRenoParams()
{
    CoreParams p = CoreParams::fourWide();
    p.reno = RenoConfig::full();
    return p;
}

} // namespace

// ---- displacement travels with the operand ----------------------------

TEST(PreciseState, StoreDataCarriesDisplacement)
{
    // The store-data path has a 2-input adder precisely because a
    // folded register can be stored; the renamer must hand the store
    // the data register's displacement.
    auto ren = makeRenamer(RenoConfig::meCf());
    renameOne(*ren, Instruction::ri(Opcode::ADDI, 5, 5, 7), 507);

    const RenameOut st = renameOne(
        *ren, Instruction::mem(Opcode::STQ, 5, 1, 0), 0);
    ASSERT_EQ(st.numSrcs, 2u);
    // src[1] is the data register for stores.
    EXPECT_EQ(st.src[1].disp, 7);
}

TEST(PreciseState, BranchSourceCarriesDisplacement)
{
    // Branch direction compare gets a 2-input adder (section 3.3); the
    // renamer must supply the folded displacement to it.
    auto ren = makeRenamer(RenoConfig::meCf());
    renameOne(*ren, Instruction::ri(Opcode::ADDI, 4, 4, -3), 397);

    const RenameOut br = renameOne(
        *ren, Instruction::branch(Opcode::BNE, 4, -2), 0);
    ASSERT_GE(br.numSrcs, 1u);
    EXPECT_EQ(br.src[0].disp, -3);
}

TEST(PreciseState, LoadBaseCarriesDisplacement)
{
    auto ren = makeRenamer(RenoConfig::meCf());
    renameOne(*ren, Instruction::ri(Opcode::ADDI, 2, 2, 24), 224);

    const RenameOut ld = renameOne(
        *ren, Instruction::mem(Opcode::LDQ, 6, 2, 8), 0);
    EXPECT_EQ(ld.src[0].disp, 24);
}

TEST(PreciseState, MoveOfFoldedRegisterPropagatesDisplacement)
{
    // mov rd, rs where rs -> [p:d] must yield rd -> [p:d]: the move is
    // eliminated and the displacement is preserved, not cleared.
    auto ren = makeRenamer(RenoConfig::meCf());
    const PhysReg p3 = ren->mapTable().get(3).preg;
    renameOne(*ren, Instruction::ri(Opcode::ADDI, 3, 3, 9), 309);

    const RenameOut mv = renameOne(*ren, Instruction::move(6, 3), 309);
    EXPECT_TRUE(mv.eliminated());
    EXPECT_EQ(ren->mapTable().get(6).preg, p3);
    EXPECT_EQ(ren->mapTable().get(6).disp, 9);
}

TEST(PreciseState, RollbackRestoresDisplacement)
{
    auto ren = makeRenamer(RenoConfig::meCf());
    renameOne(*ren, Instruction::ri(Opcode::ADDI, 2, 2, 5), 205);
    ASSERT_EQ(ren->mapTable().get(2).disp, 5);

    // A second fold on top, then roll it back: the first fold's
    // displacement must be restored exactly.
    const Instruction second = Instruction::ri(Opcode::ADDI, 2, 2, 6);
    const RenameOut out = renameOne(*ren, second, 211);
    ASSERT_EQ(ren->mapTable().get(2).disp, 11);

    ren->rollback(second, out);
    EXPECT_EQ(ren->mapTable().get(2).disp, 5);
}

// ---- end-to-end observable behavior ------------------------------------

TEST(PreciseState, SyscallObservesFoldedValue)
{
    // The printed value is produced by a chain of folds that is never
    // materialized by an ALU; the syscall must still see the collapsed
    // architectural value.
    const char *const src =
        "  li   s0, 1000\n"
        "  addi s0, s0, 7\n"
        "  addi s0, s0, -2\n"
        "  mov  a0, s0\n"
        "  li   v0, 1\n"
        "  syscall\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    expectPreciseState(src, fullRenoParams());
}

TEST(PreciseState, StoreAfterFoldChainWritesCollapsedValue)
{
    const char *const src =
        "        .data\n"
        "buf:    .space 64\n"
        "        .text\n"
        "  la   s0, buf\n"
        "  li   t0, 40\n"
        "  addi t0, t0, 1\n"
        "  addi t0, t0, 1\n"
        "  stq  t0, 0(s0)\n"
        "  ldq  a0, 0(s0)\n"
        "  li   v0, 1\n"
        "  syscall\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    expectPreciseState(src, fullRenoParams());
}

TEST(PreciseState, BranchDecidesOnFoldedValue)
{
    // Loop control via folded decrements: every iteration's branch
    // compares a register whose mapping carries a displacement.
    const char *const src =
        "  li   s1, 50\n"
        "  li   s2, 0\n"
        "loop:\n"
        "  add  s2, s2, s1\n"
        "  addi s1, s1, -1\n"
        "  bne  s1, loop\n"
        "  mov  a0, s2\n"
        "  li   v0, 1\n"
        "  syscall\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    expectPreciseState(src, fullRenoParams());
}

TEST(PreciseState, MispredictSquashWithOutstandingFolds)
{
    // Data-dependent branches on folded values force recoveries while
    // non-zero displacements are outstanding in the map table.
    const char *const src =
        "  li   s0, 0\n"
        "  li   s1, 200\n"
        "  li   s3, 2654435761\n"
        "loop:\n"
        "  mul  s3, s3, s3\n"
        "  addi s3, s3, 12345\n"
        "  andi t0, s3, 1\n"
        "  beq  t0, skip\n"
        "  addi s0, s0, 3\n"
        "skip:\n"
        "  addi s0, s0, 1\n"
        "  subi s1, s1, 1\n"
        "  bne  s1, loop\n"
        "  mov  a0, s0\n"
        "  li   v0, 1\n"
        "  syscall\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    expectPreciseState(src, fullRenoParams());
}

TEST(PreciseState, CalleeObservesFoldedArguments)
{
    // An argument register folded in the caller crosses a call
    // boundary; the callee (an "exception handler" in miniature, per
    // the paper's argument) renames on the same pipeline and sees the
    // right value.
    const char *const src =
        "f:\n"
        "  addi v0, a0, 100\n"
        "  ret\n"
        "_start:\n"
        "  li   a0, 5\n"
        "  addi a0, a0, 2\n"
        "  subi sp, sp, 16\n"
        "  stq  ra, 0(sp)\n"
        "  call f\n"
        "  ldq  ra, 0(sp)\n"
        "  addi sp, sp, 16\n"
        "  mov  a0, v0\n"
        "  li   v0, 1\n"
        "  syscall\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    expectPreciseState(src, fullRenoParams());
}

// ---- displacement overflow boundaries ----------------------------------

namespace
{

/** Program folding a chain that sums to @p total via steps of @p step. */
std::string
foldChainProgram(int step, int count)
{
    std::string src = "  li s0, 1\n";
    for (int i = 0; i < count; ++i)
        src += "  addi s0, s0, " + std::to_string(step) + "\n";
    src +=
        "  mov a0, s0\n"
        "  li  v0, 1\n"
        "  syscall\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
    return src;
}

} // namespace

class OverflowBoundary
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{
};

INSTANTIATE_TEST_SUITE_P(
    PreciseState, OverflowBoundary,
    ::testing::Combine(
        // Step sizes that approach the 16-bit displacement limit at
        // different rates (positive and negative).
        ::testing::Values(1, 1000, 8191, 32767, -1, -8192, -32768),
        // Chain lengths: short chains stay in range, long ones overflow.
        ::testing::Values(3, 9, 40),
        // Conservative vs exact overflow check (ablation knob).
        ::testing::Bool()));

TEST_P(OverflowBoundary, FoldChainsNeverCorruptState)
{
    const auto [step, count, exact] = GetParam();
    CoreParams p = fullRenoParams();
    p.reno.exactOverflowCheck = exact;
    expectPreciseState(foldChainProgram(step, count), p);
}

TEST(PreciseState, ConservativeCheckCancelsNearLimit)
{
    // Accumulating +16000 three times would pass 32767 and wrap the
    // int16 displacement; the conservative check folds twice (the
    // displacement stays provably small) and cancels the third.
    auto ren = makeRenamer(RenoConfig::meCf());
    const RenameOut first = renameOne(
        *ren, Instruction::ri(Opcode::ADDI, 2, 2, 16000),
        200 + 16000);
    EXPECT_EQ(first.elim, ElimKind::Fold);

    const RenameOut second = renameOne(
        *ren, Instruction::ri(Opcode::ADDI, 2, 2, 16000),
        200 + 2 * 16000);
    EXPECT_EQ(second.elim, ElimKind::Fold);
    EXPECT_EQ(second.destDisp, 32000);

    const RenameOut third = renameOne(
        *ren, Instruction::ri(Opcode::ADDI, 2, 2, 16000),
        200 + 3 * 16000);
    EXPECT_FALSE(third.eliminated())
        << "displacement 32000 is no longer provably extendable";
    EXPECT_GE(ren->overflowCancels(), 1u);
}

TEST(PreciseState, NonOverflowingNegativeChainKeepsFolding)
{
    auto ren = makeRenamer(RenoConfig::meCf());
    for (int i = 0; i < 8; ++i) {
        const RenameOut out = renameOne(
            *ren, Instruction::ri(Opcode::ADDI, 2, 2, -16),
            200 - 16 * (i + 1));
        EXPECT_EQ(out.elim, ElimKind::Fold) << "iteration " << i;
    }
    EXPECT_EQ(ren->mapTable().get(2).disp, -128);
}
