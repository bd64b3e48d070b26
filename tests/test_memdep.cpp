/**
 * @file
 * Memory-dependence scheduling tests at the core level: aggressive
 * load issue, violation squash-and-replay, store-set learning across
 * iterations, and the regression where a younger same-set store's
 * issue must not unblock a load from an older, still-unissued store.
 */
#include <gtest/gtest.h>

#include "run_kernel.hpp"

using namespace reno;

namespace
{

/**
 * A loop where a store's address depends on slow work (a divide) and
 * a following load reads the same location: issued aggressively, the
 * load would read stale data every iteration. The store-set predictor
 * must learn the pair once and serialize all later iterations.
 */
const char *const conflict_loop = R"(
        .data
buf:    .space 128
        .text
_start:
        la   s0, buf
        li   s1, 500          # iterations
        li   s2, 0            # checksum
        li   s3, 1
loop:
        # slow address generation: div delays the store
        div  t0, s1, s3
        andi t0, t0, 15
        # store iteration number at a busy location
        stq  s1, 16(s0)
        # dependent load of the same location issues aggressively
        ldq  t1, 16(s0)
        add  s2, s2, t1
        subi s1, s1, 1
        bne  s1, loop
        andi s2, s2, 65535
        li   v0, 1
        mov  a0, s2
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

/**
 * Regression for the LFST visibility bug: two stores in the same
 * store set per iteration, where the OLDER store's address chain is
 * slow and the YOUNGER store issues quickly. After the younger store
 * issues (clearing the naive last-fetched-store entry), the load must
 * still wait for the older store.
 */
const char *const two_store_loop = R"(
        .data
buf:    .space 128
        .text
_start:
        la   s0, buf
        li   s1, 400
        li   s2, 0
        li   s3, 1
loop:
        # older store: slow data (divide feeds the stored value)
        div  t0, s1, s3
        stq  t0, 0(s0)
        # younger store to the same set (same static pc region),
        # immediately ready
        stq  s1, 8(s0)
        # loads of both locations
        ldq  t1, 0(s0)
        ldq  t2, 8(s0)
        add  s2, s2, t1
        add  s2, s2, t2
        subi s1, s1, 1
        bne  s1, loop
        andi s2, s2, 65535
        li   v0, 1
        mov  a0, s2
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

} // namespace

TEST(MemDep, OutputAlwaysMatchesFunctionalReference)
{
    for (const char *src : {conflict_loop, two_store_loop}) {
        const RunOutput r = runKernel(src, CoreParams{});
        EXPECT_EQ(r.output, runFunctional({"kernel", "test", src}).output)
            << "violation replay must preserve architectural state";
    }
}

TEST(MemDep, StoreSetsLearnAfterFewViolations)
{
    const RunOutput r = runKernel(conflict_loop, CoreParams{});
    // 500 iterations: an unlearned predictor would violate on nearly
    // every one. Learning must cap the squashes at a handful.
    EXPECT_LT(r.sim.violationSquashes, 10u);
    EXPECT_GT(r.sim.violationSquashes, 0u)
        << "the first aggressive issue should misspeculate";
}

TEST(MemDep, OlderUnissuedSameSetStoreStillBlocksLoad)
{
    const RunOutput r = runKernel(two_store_loop, CoreParams{});
    EXPECT_EQ(r.output,
              runFunctional({"kernel", "test", two_store_loop}).output);
    // Regression: with the last-fetched-store-only check, the younger
    // store's issue unhid the older one and the load violated every
    // iteration (hundreds of squashes).
    EXPECT_LT(r.sim.violationSquashes, 20u);
}

TEST(MemDep, ForwardingStillAllowsSameCycleIndependentLoads)
{
    // Independent load/store streams must not be serialized by the
    // predictor (no violations ever trains it).
    const char *src = R"(
        .data
a:      .space 64
b:      .space 64
        .text
_start:
        la   s0, a
        la   s1, b
        li   s2, 300
        li   t2, 5
loop:
        stq  t2, 0(s0)
        ldq  t0, 0(s1)
        add  t2, t2, t0
        subi s2, s2, 1
        bne  s2, loop
        li   v0, 0
        li   a0, 0
        syscall
)";
    const RunOutput r = runKernel(src, CoreParams{});
    EXPECT_EQ(r.sim.violationSquashes, 0u);
}

TEST(MemDep, ViolationSquashRollsBackRenoState)
{
    CoreParams p;
    p.reno = RenoConfig::full();
    for (const char *src : {conflict_loop, two_store_loop}) {
        const RunOutput r = runKernel(src, p);
        EXPECT_EQ(r.output, runFunctional({"kernel", "test", src}).output)
            << "squash must roll back map table and reference counts";
    }
}
