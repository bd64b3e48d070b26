/**
 * @file
 * Workload registry.
 *
 * The paper evaluates SPECint2000 and MediaBench compiled for Alpha
 * with -O3. Neither suite is redistributable here, so the repository
 * carries two suites of hand-written assembly kernels implementing the
 * same categories of computation.
 * The kernels are written the way optimized compiler output looks:
 * stack frames with callee-save spills, argument moves, register-
 * immediate address arithmetic and loop control - the idioms whose
 * frequency determines what RENO can collapse.
 *
 * Every kernel prints a checksum through the print syscalls, so
 * functional correctness of any simulator configuration is checked by
 * comparing its output and final architectural state against the
 * functional emulator's.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace reno
{

/**
 * One benchmark program. Programs draw their data from the rand
 * syscall, so a workload is a (kernel, seed) pair: the paper's
 * per-input bars (eon.c / eon.k / eon.r, perl.d / perl.s, vpr.p /
 * vpr.r, mesa.m / mesa.o / mesa.t) are represented as the same kernel
 * run on a different input stream.
 */
struct Workload {
    std::string name;    //!< e.g. "gzip", "eon.k"
    std::string suite;   //!< "spec" or "media"
    const char *source;  //!< assembly text
    std::uint64_t seed = 1;  //!< input-set selector (rand syscall seed)
};

/** All registered paper workloads, SPEC suite first. */
const std::vector<Workload> &allWorkloads();

/**
 * The "synth" suite: long (millions of dynamic instructions)
 * generated programs with explicit phase structure and
 * pointer-chasing segments (src/workloads/randprog.hpp), the
 * proving ground of the sampled-simulation subsystem. Generated
 * deterministically on first use; not part of allWorkloads() (the
 * paper registry the figure campaigns sweep).
 */
const std::vector<Workload> &synthWorkloads();

/**
 * The "mem" suite: generated memory-bound kernels (streaming,
 * strided, pointer-chasing and blocked-tiling, at footprints sized
 * to each hierarchy level) exercising the composable memory
 * hierarchy -- prefetchers, deep stacks, write-back traffic. Like
 * "synth", generated deterministically and not part of
 * allWorkloads().
 */
const std::vector<Workload> &memWorkloads();

/**
 * The "branch" suite: generated front-end-bound kernels (biased,
 * alternating, loop-nest and correlated branch patterns, deep call
 * trees, megamorphic indirect dispatch), each isolating one failure
 * mode of the composable prediction stack. Like "synth" and "mem",
 * generated deterministically and not part of allWorkloads().
 */
const std::vector<Workload> &branchWorkloads();

/**
 * The "multi" suite: generated SPMD coherence kernels (shared-ring
 * hand-off, lock contention, false sharing with and without padding,
 * disjoint parallel streaming) exercising the multi-core System and
 * its snooping MESI bus. Each kernel reads its core index from the
 * core_id syscall, so the suite also runs -- coherence-silently -- on
 * a single core. Like the other generated suites, not part of
 * allWorkloads().
 */
const std::vector<Workload> &multiWorkloads();

/** Workloads of one suite ("spec", "media", "synth", "mem", "branch"
 *  or "multi"); fatal() for an unknown suite, listing the known
 *  ones. */
std::vector<const Workload *> suiteWorkloads(const std::string &suite);

/**
 * Every registered workload (paper registry + generated suites)
 * whose name matches @p glob (`*` and `?` wildcards, e.g. "mem.*"
 * or "gzip"); fatal() when nothing matches. A non-empty @p suite
 * other than "all" further restricts the matches to that suite.
 * Backs the drivers' --workloads filter.
 */
std::vector<const Workload *>
workloadsMatching(const std::string &glob,
                  const std::string &suite = "");

/**
 * Every suite token suiteWorkloads() accepts, in registration order,
 * with whether it belongs to the paper registry (allWorkloads(), the
 * default sweep set) or is generated (synth). Derived from the
 * workload registries, so a new suite is discoverable the moment its
 * workloads register.
 */
struct SuiteInfo {
    std::string name;
    std::size_t workloads = 0;
    bool paper = false;  //!< in allWorkloads() (the "all" sweep set)
};
std::vector<SuiteInfo> knownSuites();

/**
 * Every registered workload (paper registry + generated suites), one
 * "  NAME (suite, seed N)" line each, paper registry first: the
 * workload half of the tools' --list.
 */
std::string renderWorkloadList();

/** Lookup by name; fatal() if unknown. */
const Workload &workloadByName(const std::string &name);

} // namespace reno
