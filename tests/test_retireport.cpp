/**
 * @file
 * Retirement-port drain-queue tests (paper sections 2.2 and 4.3): one
 * data-cache port is shared by retiring stores and re-executing
 * integrated loads. Both drain from a post-retirement queue at one per
 * cycle; commit stalls only when the queue (bounded by the store
 * buffer) is full. Sustained port demand above one per cycle must
 * throttle the machine (the paper's vortex effect), while bursts that
 * fit the queue must retire unimpeded.
 */
#include <gtest/gtest.h>

#include "run_kernel.hpp"

using namespace reno;

namespace
{

/** A loop that is nothing but stores: port demand 1 per instruction. */
std::string
storeOnlyLoop(int unroll, int iters)
{
    std::string body;
    for (int i = 0; i < unroll; ++i)
        body += "  stq s0, " + std::to_string(i * 8) + "(s1)\n";
    return
        "  .data\nbuf: .space 512\n  .text\n"
        "  la s1, buf\n  li s0, 7\n  li s2, " + std::to_string(iters) +
        "\nloop:\n" + body +
        "  subi s2, s2, 1\n"
        "  bne s2, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
}

/** A loop of plain ALU work with one store per iteration. */
std::string
sparseStoreLoop(int alu_per_store, int iters)
{
    std::string body;
    for (int i = 0; i < alu_per_store; ++i)
        body += "  add t" + std::to_string(i % 4) + ", s0, s0\n";
    return
        "  .data\nbuf: .space 64\n  .text\n"
        "  la s1, buf\n  li s0, 7\n  li s2, " + std::to_string(iters) +
        "\nloop:\n" + body +
        "  stq s0, 0(s1)\n"
        "  subi s2, s2, 1\n"
        "  bne s2, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";
}

} // namespace

TEST(RetirePort, StoreOnlyCodeIsPortLimited)
{
    // 8 stores per iteration + 2 overhead instructions: the single
    // drain port caps retirement near one store per cycle.
    const RunOutput r = runKernel(storeOnlyLoop(8, 500), CoreParams{});
    const double stores_per_cycle =
        double(r.sim.retiredStores) / double(r.sim.cycles);
    EXPECT_GT(stores_per_cycle, 0.80);
    EXPECT_LE(stores_per_cycle, 1.001)
        << "one retirement port: at most one store can drain per cycle";
}

TEST(RetirePort, SparseStoresDoNotStallCommit)
{
    // One store per ~13 instructions: the drain queue never fills, so
    // throughput is set by the integer issue width, not the port.
    const RunOutput r = runKernel(sparseStoreLoop(12, 500), CoreParams{});
    EXPECT_GT(r.sim.ipc(), 2.0);
}

TEST(RetirePort, BurstWithinQueueCapacityRetiresUnimpeded)
{
    // A loop with a burst of 12 stores (well under the 24-entry store
    // buffer) followed by enough ALU work for the queue to drain. With
    // post-retirement draining, the burst costs no commit stalls, so
    // the loop should run at essentially the same speed as the same
    // loop with the stores replaced by adds.
    auto make = [](bool stores) {
        std::string src =
            "  .data\nbuf: .space 512\n  .text\n"
            "  la s1, buf\n  li s0, 3\n  li s2, 300\n"
            "loop:\n";
        for (int i = 0; i < 12; ++i) {
            src += stores
                ? "  stq s0, " + std::to_string(i * 8) + "(s1)\n"
                : "  add t1, s0, s0\n";
        }
        for (int i = 0; i < 40; ++i)
            src += "  add t0, s0, s0\n";
        src += "  subi s2, s2, 1\n  bne s2, loop\n"
               "  li v0, 0\n  li a0, 0\n  syscall\n";
        return src;
    };
    const RunOutput with_stores = runKernel(make(true), CoreParams{});
    const RunOutput with_adds = runKernel(make(false), CoreParams{});
    // 12 port operations against 52-instruction iterations (13 issue
    // cycles at 4-wide): the drain queue hides the burst entirely.
    EXPECT_LT(with_stores.sim.cycles,
              with_adds.sim.cycles * 11 / 10);
}

TEST(RetirePort, IntegratedLoadsShareThePort)
{
    // Store + reload of the same stack slot, repeatedly: with RENO_RA
    // the reloads are eliminated but re-execute at retirement through
    // the same port, so port throughput still bounds the loop.
    std::string src =
        "  .data\nbuf: .space 64\n  .text\n"
        "  la s1, buf\n  li s0, 7\n  li s2, 800\n"
        "loop:\n"
        "  stq  s0, 0(s1)\n"
        "  ldq  t0, 0(s1)\n"
        "  stq  t0, 8(s1)\n"
        "  ldq  t1, 8(s1)\n"
        "  subi s2, s2, 1\n"
        "  bne  s2, loop\n"
        "  li v0, 0\n  li a0, 0\n  syscall\n";

    CoreParams p;
    p.reno = RenoConfig::full();
    const RunOutput r = runKernel(src, p);
    const std::uint64_t elim_loads = r.sim.elim[3] + r.sim.elim[4];
    EXPECT_GT(elim_loads, 1000u) << "reloads should be bypassed";
    // 2 stores + 2 re-executing loads per iteration = 4 port uses:
    // at one drain per cycle the loop cannot beat 4 cycles/iteration.
    EXPECT_GE(r.sim.cycles, 4 * 800u);
}

TEST(RetirePort, ExitWithPendingDrainsIsClean)
{
    // The program ends immediately after a burst of stores; the run
    // must terminate (drains do not block exit).
    std::string src = "  .data\nbuf: .space 256\n  .text\n"
                      "  la s1, buf\n  li s0, 1\n";
    for (int i = 0; i < 20; ++i)
        src += "  stq s0, " + std::to_string(i * 8) + "(s1)\n";
    src += "  li v0, 0\n  li a0, 0\n  syscall\n";
    const RunOutput r = runKernel(src, CoreParams{});
    EXPECT_GT(r.sim.retiredStores, 19u);
}
