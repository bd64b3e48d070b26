/**
 * @file
 * Experiment harness: named machine configurations matching the
 * paper's evaluation section, a one-call workload runner, and the
 * aggregation helpers the per-figure benchmark binaries share.
 */
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "cpa/critpath.hpp"
#include "obs/profiler.hpp"
#include "uarch/core.hpp"
#include "uarch/params.hpp"
#include "workloads/workloads.hpp"

namespace reno
{

class FlagTable;

/** A machine configuration with a display name. */
struct NamedConfig {
    std::string name;
    CoreParams params;
};

/** Everything a single simulation run produces. */
struct RunOutput {
    SimResult sim;
    std::string output;           //!< program's printed output
    std::uint64_t memDigest = 0;  //!< final memory digest
    std::uint64_t emuInsts = 0;   //!< functional instruction count
    /** Hotspot side channel (empty unless --profile-hot was on for
     *  the run; never folded into SimResult). */
    obs::HotspotReport hot;
};

/** Apply a RENO configuration to a core configuration. */
CoreParams withReno(CoreParams params, const RenoConfig &reno);

/**
 * The paper's cumulative RENO build-up: BASE, +ME, +ME+CF, full RENO
 * (ME+CF+CSE+RA with a loads-only IT), on top of @p base.
 */
std::vector<NamedConfig> renoBuildup(const CoreParams &base);

/** Figure 10's four division-of-labor configurations. */
std::vector<NamedConfig> divisionOfLabor(const CoreParams &base);

/**
 * Look up an evaluation configuration by name on top of @p base:
 * "BASE", "ME", "ME+CF", "RENO" (the build-up) or "RENO+FullInteg",
 * "FullInteg", "LoadsInteg" (division of labor), optionally followed
 * by '/'-separated variant tokens (configVariants(): "RENO/l3",
 * "BASE/pf-stride/wb", "RENO/tage", "BASE/perceptron/ras16",
 * "RENO/2c", "RENO/4c/l3"). Returns false and leaves @p out untouched
 * for an unknown name or variant.
 */
bool configByName(const std::string &name, const CoreParams &base,
                  NamedConfig *out);

/** configByName(), fatal() naming the known presets for an unknown
 *  name or variant. */
NamedConfig configByNameOrDie(const std::string &name,
                              const CoreParams &base);

/** Names accepted by configByName(), in presentation order. */
std::vector<std::string> knownConfigNames();

/** The --list-configs heading a variant is listed under. */
enum class VariantGroup { Memory, BranchPrediction, MultiCore };

/**
 * One '/'-suffix token configByName() accepts. A spelling holding
 * "<N>" ("ras<N>", "btb<N>", "<N>c") matches any decimal N. apply()
 * gets N (0 for a fixed token) and returns false, leaving the params
 * untouched, for an N the simulator would fatal() on, so a bad token
 * reads as an unknown variant up front instead of aborting
 * mid-campaign.
 */
struct ConfigVariant {
    VariantGroup group;
    const char *spelling;
    bool (*apply)(CoreParams &params, unsigned n);
};

/** Every variant token, in listing order (see experiment.cpp). */
std::span<const ConfigVariant> configVariants();

/** Apply one variant token to @p params; false if unknown. */
bool applyVariant(const std::string &token, CoreParams *params);

/** Register "--width 4|6": the paper's machine width, into @p *width;
 *  any other value is fatal(). CoreParams::ofWidth() maps it. */
void addWidthFlag(FlagTable &table, unsigned *width);

/**
 * Suite iteration for campaign construction: (label, workloads) for
 * the paper's two benchmark suites.
 */
std::vector<std::pair<std::string, std::vector<const Workload *>>>
benchmarkSuites();

/**
 * Human-readable listings backing the drivers' --list-configs /
 * --list-suites flags: every configByName() preset, and every suite
 * token suiteWorkloads() accepts with its workload count.
 */
std::string renderConfigList();
std::string renderSuiteList();

/**
 * Assemble a workload's kernel source into a program image, memoized
 * by source text: campaigns assemble each kernel once, not once per
 * job. The returned reference has static storage duration (Emulator
 * holds a reference to its program across a run). Thread-safe.
 */
const Program &assembleWorkload(const Workload &workload);

/**
 * The SPMD rule every run follows, at any core count: core i runs the
 * workload's kernel on its own emulator, with the core_id syscall
 * returning i and rand seeded workload.seed + i. One core is the
 * plain single-core run.
 */
class SpmdEmulators
{
  public:
    SpmdEmulators(const Workload &workload, unsigned num_cores);

    /** The emulators in core order (System / warming input). */
    const std::vector<Emulator *> &cores() const { return cores_; }

    /** Aggregate executed-instruction count over the cores. */
    std::uint64_t instCount() const;

    /** True once every core's program has exited. */
    bool done() const;

    /**
     * Fill @p out's functional reference: program outputs concatenated
     * in core order, emuInsts the aggregate instruction count, and the
     * per-core memory digests folded into one order-dependent hash
     * (the raw digest at one core).
     */
    void collect(RunOutput *out) const;

  private:
    std::vector<std::unique_ptr<Emulator>> owned_;
    std::vector<Emulator *> cores_;
};

/**
 * Run @p workload in full detail on a System of params.sys.numCores
 * cores (SpmdEmulators); a single-core run is a 1-core System.
 * Optionally attach a CPA as core 0's retire listener; fatal()s when
 * @p cpa is non-null on more than one core (critical-path analysis is
 * single-core only).
 */
RunOutput runWorkload(const Workload &workload, const CoreParams &params,
                      CriticalPathAnalyzer *cpa = nullptr);

/** Run just the functional emulator (reference state / output):
 *  runFunctionalMulti() on one core. */
RunOutput runFunctional(const Workload &workload);

/**
 * Functional-only run over @p num_cores SPMD emulator streams,
 * constructed and collected exactly as runWorkload() does
 * (SpmdEmulators): emuInsts is the aggregate dynamic instruction
 * count, and output and memory digest match the detailed run's.
 */
RunOutput runFunctionalMulti(const Workload &workload,
                             unsigned num_cores);

/** Percentage speedup of @p cycles against @p base_cycles. */
double speedupPercent(std::uint64_t base_cycles, std::uint64_t cycles);

/** Arithmetic mean. */
double amean(const std::vector<double> &xs);

} // namespace reno
