/**
 * @file
 * Front-end timing tests: taken-branch fetch throughput, branch
 * misprediction penalties and their scaling with pipeline depth,
 * stall-until-resolve behavior behind slow branch conditions, and
 * instruction-cache pressure from large code footprints.
 */
#include <gtest/gtest.h>

#include "run_kernel.hpp"

using namespace reno;

namespace
{

/** A loop of @p body_adds independent adds (one taken branch each
 *  iteration), running @p iters iterations. */
std::string
addLoop(int body_adds, int iters)
{
    std::string body;
    for (int i = 0; i < body_adds; ++i)
        body += "  add t" + std::to_string(i % 6) + ", s0, s1\n";
    return "  li s0, 1\n  li s1, 2\n  li s2, " + std::to_string(iters) +
           "\nloop:\n" + body +
           "  subi s2, s2, 1\n  bne s2, loop\n"
           "  li v0, 0\n  li a0, 0\n  syscall\n";
}

/** A loop whose branch direction follows the rand syscall: roughly
 *  half the conditional branches mispredict. */
const char *const random_branch_loop = R"(
        li   s2, 2000
loop:
        li   v0, 5
        syscall
        andi t0, v0, 1
        beq  t0, skip
        add  t1, t0, t0
skip:
        subi s2, s2, 1
        bne  s2, loop
        li   v0, 0
        li   a0, 0
        syscall
)";

} // namespace

TEST(Frontend, FetchSustainsOneTakenBranchPerCycle)
{
    // The fetch engine can fetch past one taken branch per cycle
    // (paper section 4.1), so even a 3-instruction loop body keeps
    // the 3-wide integer issue as the binding limit, not fetch.
    const RunOutput tiny = runKernel(addLoop(1, 2000), CoreParams{});
    EXPECT_GT(tiny.sim.ipc(), 2.5)
        << "a tight loop should run near the integer issue width";
    EXPECT_LE(tiny.sim.ipc(), 3.1)
        << "three instructions per iteration, three integer slots";
}

TEST(Frontend, RandomBranchesMispredictAboutHalfTheTime)
{
    const RunOutput r = runKernel(random_branch_loop, CoreParams{});
    // 2000 data-random conditional branches plus 2000+1 predictable
    // loop branches: mispredict rate on the random ones ~50%.
    EXPECT_GT(r.sim.bpMispredicts, 600u);
    EXPECT_LT(r.sim.bpMispredicts, 1500u);
}

TEST(Frontend, MispredictsCostFullPipelineRedirects)
{
    // Same instruction counts, one version branch-random and one
    // branchless: the cycle difference divided by mispredicts should
    // be on the order of the machine's redirect depth.
    const char *const branchless_loop = R"(
        li   s2, 2000
loop:
        li   v0, 5
        syscall
        andi t0, v0, 1
        sub  t0, zero, t0
        and  t1, t0, t0
        subi s2, s2, 1
        bne  s2, loop
        li   v0, 0
        li   a0, 0
        syscall
)";
    const RunOutput random = runKernel(random_branch_loop, CoreParams{});
    const RunOutput clean = runKernel(branchless_loop, CoreParams{});
    ASSERT_GT(random.sim.bpMispredicts, 500u);
    const double penalty =
        double(random.sim.cycles - clean.sim.cycles) /
        double(random.sim.bpMispredicts);
    EXPECT_GT(penalty, 5.0);
    EXPECT_LT(penalty, 25.0)
        << "per-mispredict cost should be near the pipeline depth";
}

TEST(Frontend, DeeperFrontEndAmplifiesMispredictCost)
{
    CoreParams shallow;
    CoreParams deep;
    deep.frontDepth = 10;  // vs default 4
    const RunOutput s = runKernel(random_branch_loop, shallow);
    const RunOutput d = runKernel(random_branch_loop, deep);
    EXPECT_GT(d.sim.cycles, s.sim.cycles)
        << "a deeper front end pays more per misprediction";
}

TEST(Frontend, SlowBranchConditionStallsFetchUntilResolve)
{
    // The mispredicting branch depends on a divide: fetch cannot
    // resume until the divide finishes, so cycles scale with the
    // divide latency even though the divide is off any other path.
    const char *const slow_cond = R"(
        li   s2, 400
        li   s3, 3
loop:
        li   v0, 5
        syscall
        andi t0, v0, 7
        addi t0, t0, 1
        div  t1, t0, s3
        andi t1, t1, 1
        beq  t1, skip
        add  t2, t1, t1
skip:
        subi s2, s2, 1
        bne  s2, loop
        li   v0, 0
        li   a0, 0
        syscall
)";
    const RunOutput r = runKernel(slow_cond, CoreParams{});
    ASSERT_GT(r.sim.bpMispredicts, 50u);
    // Each mispredicted beq waits for the divide (multi-cycle) before
    // redirect: the loop cannot sustain anything close to 1 iteration
    // per pipeline-depth cycles.
    const double cycles_per_iter = double(r.sim.cycles) / 400.0;
    EXPECT_GT(cycles_per_iter, 10.0);
}

TEST(Frontend, LargeCodeFootprintMissesInstructionCache)
{
    // ~3000 straight-line instructions = ~12KB of code re-entered
    // repeatedly fits the 16KB I$; ~24KB does not.
    const RunOutput small = runKernel(addLoop(1000, 40), CoreParams{});
    const RunOutput big = runKernel(addLoop(6000, 40), CoreParams{});
    const double small_mr =
        double(small.sim.icacheMisses) / double(small.sim.retired);
    const double big_mr =
        double(big.sim.icacheMisses) / double(big.sim.retired);
    EXPECT_GT(big_mr, small_mr * 3)
        << "code bigger than the I$ must keep missing";
}

TEST(Frontend, RenoDoesNotChangeFetchBehavior)
{
    // RENO eliminates instructions after rename; fetch and branch
    // prediction statistics must be identical with and without it.
    CoreParams base;
    CoreParams reno;
    reno.reno = RenoConfig::full();
    const RunOutput b = runKernel(addLoop(6, 500), base);
    const RunOutput r = runKernel(addLoop(6, 500), reno);
    EXPECT_EQ(b.sim.bpLookups, r.sim.bpLookups);
    EXPECT_EQ(b.sim.bpMispredicts, r.sim.bpMispredicts);
    EXPECT_EQ(b.sim.retired, r.sim.retired);
}
