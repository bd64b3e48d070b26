#include "sample/interval.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "obs/phase.hpp"
#include "sys/system.hpp"

namespace reno::sample
{

std::vector<PlannedInterval>
planIntervals(std::uint64_t total_insts, const SamplePlan &plan)
{
    std::vector<PlannedInterval> planned;
    if (plan.intervals == 0 || plan.measureInsts == 0 ||
        total_insts == 0)
        return planned;

    // Exact cold stratum: [0, cold), measured in full with cold
    // caches, exactly as a full run executes it. The default (one
    // tenth of the program) is independent of the window count, so
    // denser plans refine coverage without shrinking it.
    const std::uint64_t n = std::min(plan.intervals, total_insts);
    std::uint64_t cold =
        plan.coldInsts ? std::min(plan.coldInsts, total_insts)
                       : std::max<std::uint64_t>(total_insts / 10, 1);
    if (n == 1)
        cold = total_insts;

    // Degenerate to one exact full-program interval when the plan
    // would execute at least a third of the program anyway: for tiny
    // workloads exact detail costs barely more than sampling and has
    // zero error.
    if (n == 1 ||
        cold + (n - 1) * (plan.warmupInsts + plan.measureInsts) >=
            total_insts / 3)
        cold = total_insts;

    planned.push_back({IntervalWindow{0, 0, cold}, cold, true});
    if (cold >= total_insts)
        return planned;

    // Sampled strata: divide the remainder into n - 1 equal strides
    // and center the MEASURED window within each, so samples cover
    // the whole stream and the measured region does not move when
    // the warmup length is tuned. Warmup runs in the instructions
    // before it (clamped at the stream start).
    const std::uint64_t rest = total_insts - cold;
    const std::uint64_t strides = n - 1;
    const std::uint64_t stride = rest / strides;
    if (stride == 0)
        return planned;

    for (std::uint64_t i = 0; i < strides; ++i) {
        PlannedInterval p;
        const std::uint64_t measure_off =
            stride > plan.measureInsts
                ? (stride - plan.measureInsts) / 2 : 0;
        const std::uint64_t measure_start =
            cold + i * stride + measure_off;
        const std::uint64_t warmup =
            std::min(plan.warmupInsts, measure_start);
        p.window.startInst = measure_start - warmup;
        p.window.warmupInsts = warmup;
        p.window.measureInsts = plan.measureInsts;
        // The final stride absorbs the division remainder.
        p.repInsts =
            i + 1 == strides ? rest - i * stride : stride;
        if (p.window.startInst >= total_insts)
            break;
        planned.push_back(p);
    }
    return planned;
}

// The field-wise delta/accumulate pair walks the canonical registry
// in uarch/sim_result.hpp: every counter exactly once, with a
// static_assert there forcing the registry to track SimResult.

SimResult
deltaResult(const SimResult &post, const SimResult &pre)
{
    SimResult d;
    for (const SimStatField &field : simResultFields())
        statRef(d, field) = statValue(post, field) -
                            statValue(pre, field);
    return d;
}

void
accumulateResult(SimResult &into, const SimResult &add)
{
    for (const SimStatField &field : simResultFields())
        statRef(into, field) += statValue(add, field);
}

namespace
{

/** A fresh warm state, to warm from the program start. */
template <typename Warm>
std::unique_ptr<Warm>
coldWarm(const CoreParams &params)
{
    if constexpr (std::is_same_v<Warm, WarmState>)
        return std::make_unique<WarmState>(params.mem, params.bpred);
    else
        return std::make_unique<SysWarmState>(params.mem, params.bpred,
                                              params.sys.numCores);
}

/** Warm either state type to an (aggregate) instruction bound. */
void
warmTo(const std::vector<Emulator *> &emus, WarmState &warm,
       std::uint64_t bound)
{
    warmStep(*emus[0], warm, bound);
}

void
warmTo(const std::vector<Emulator *> &emus, SysWarmState &warm,
       std::uint64_t bound)
{
    warmStepMulti(emus, warm, bound);
}

/** Inject single-core warm tables: the owning hierarchy's shared
 *  stack into the System's, its L1s and the predictor into core 0. */
void
inject(System &sys, const WarmState &warm)
{
    sys.sharedStack().copyStateFrom(warm.mem.sharedStack());
    sys.core(0).memHierarchy().copyStateFrom(warm.mem);
    sys.core(0).branchPredictor() = warm.bp;
}

/** Inject N-core warm tables: shared stack, MESI directory, then
 *  every core's L1s and predictor. */
void
inject(System &sys, const SysWarmState &warm)
{
    sys.sharedStack().copyStateFrom(warm.sharedStack());
    if (!sys.bus().importState(warm.bus().exportState()))
        fatal("runIntervalDetailed: warmed MESI directory does not fit "
              "a %u-core bus", sys.numCores());
    for (unsigned i = 0; i < sys.numCores(); ++i) {
        sys.core(i).memHierarchy().copyStateFrom(warm.coreMem(i));
        sys.core(i).branchPredictor() = warm.coreBp(i);
    }
}

/** warmConfigDigest of the warm half a usable checkpoint carries
 *  for its core count. */
std::uint64_t
warmDigest(const SampleCheckpoint &ckpt)
{
    if (ckpt.numCores() == 1)
        return warmConfigDigest(ckpt.warm->memParams(),
                                ckpt.warm->bpParams());
    return warmConfigDigest(ckpt.sysWarm->memParams(),
                            ckpt.sysWarm->bpParams(), ckpt.numCores());
}

/**
 * Warm @p restored (the checkpoint's tables, or cold ones when null)
 * forward to the window start, inject them into a fresh System, and
 * measure the window.
 */
template <typename Warm>
SimResult
measureWindow(const CoreParams &params, const SpmdEmulators &emus,
              const IntervalWindow &window, const Warm *restored)
{
    const Warm *warm = restored;
    std::unique_ptr<Warm> scratch;
    const std::uint64_t ff_start = emus.instCount();
    if (!restored || ff_start != window.startInst) {
        scratch = restored ? std::make_unique<Warm>(*restored)
                           : coldWarm<Warm>(params);
        obs::PhaseSpan phase("sample.fastforward");
        warmTo(emus.cores(), *scratch, window.startInst);
        phase.setInsts(emus.instCount() - ff_start);
        warm = scratch.get();
    }
    if (emus.done())
        return SimResult{};

    System sys(params, emus.cores());
    inject(sys, *warm);
    sys.sharedStack().settle();
    for (unsigned i = 0; i < sys.numCores(); ++i)
        sys.core(i).memHierarchy().settle();

    if (window.warmupInsts > 0) {
        obs::PhaseSpan phase("sample.warmup");
        sys.runUntilRetired(window.warmupInsts);
        phase.setInsts(sys.result().retired);
    }
    const SimResult pre = sys.result();
    SimResult post;
    {
        obs::PhaseSpan phase("sample.detailed");
        post = sys.runUntilRetired(window.warmupInsts +
                                   window.measureInsts);
        phase.setInsts(post.retired - pre.retired);
    }
    return deltaResult(post, pre);
}

} // namespace

SimResult
runIntervalDetailed(const Workload &workload, const CoreParams &params,
                    const IntervalWindow &window,
                    const SampleCheckpoint *ckpt)
{
    if (window.measureInsts == 0)
        fatal("runIntervalDetailed: window has no measured insts");
    const unsigned n = params.sys.numCores;
    if (n < 1 || n > SysParams::MaxCores)
        fatal("runIntervalDetailed: core count must be in [1, %u] "
              "(got %u)", SysParams::MaxCores, n);
    const SpmdEmulators emus(workload, n);

    // A usable checkpoint at or before the window start skips the
    // warmed prefix; the stateless warming rules make the chopped and
    // unchopped streams bit-identical. The core count is checked
    // before either warm half is read: a checkpoint of another core
    // count carries the other half only, and is ignored.
    const bool resume = ckpt && ckpt->usable() && ckpt->numCores() == n &&
                        ckpt->instCount() <= window.startInst &&
                        warmDigest(*ckpt) == warmConfigDigest(params);
    if (resume) {
        obs::PhaseSpan phase("sample.restore");
        emus.cores()[0]->restore(*ckpt->emu);
        for (unsigned i = 1; i < n; ++i)
            emus.cores()[i]->restore(*ckpt->extraEmus[i - 1]);
    }
    // The one core-count branch: which warm type supplies the tables.
    if (n == 1)
        return measureWindow(params, emus, window,
                             resume ? ckpt->warm.get() : nullptr);
    return measureWindow(params, emus, window,
                         resume ? ckpt->sysWarm.get() : nullptr);
}

SampledEstimate
aggregateIntervals(std::uint64_t total_insts,
                   const std::vector<PlannedInterval> &plan,
                   const std::vector<SimResult> &windows)
{
    if (plan.size() != windows.size())
        fatal("aggregateIntervals: %zu planned intervals but %zu "
              "window results",
              plan.size(), windows.size());

    SampledEstimate est;
    est.totalInsts = total_insts;
    est.intervals = static_cast<unsigned>(windows.size());

    // Stratified estimate: each window's measured cycles scale to the
    // stratum it represents. Exactly measured strata contribute their
    // true cost (scale factor ~1).
    double est_cycles = 0.0;
    double core_cycles[NumCoreStatSlots] = {};
    double core_retired[NumCoreStatSlots] = {};
    std::uint64_t observed_rep = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const SimResult &w = windows[i];
        if (w.retired == 0 || w.cycles == 0)
            continue;  // the program ended before this window measured
        accumulateResult(est.sum, w);
        ++est.measuredIntervals;
        const double scale = static_cast<double>(plan[i].repInsts) /
                             static_cast<double>(w.retired);
        est_cycles += static_cast<double>(w.cycles) * scale;
        // Per-core retire slots and CPI buckets fold with the same
        // stratum scale, so each slot's cycle/retire ratio is a
        // stratified IPC estimate for that core, and the buckets
        // extrapolate the whole-program stack.
        for (unsigned s = 0; s < NumCoreStatSlots; ++s) {
            core_cycles[s] +=
                static_cast<double>(w.coreCycles[s]) * scale;
            core_retired[s] +=
                static_cast<double>(w.coreRetired[s]) * scale;
        }
        for (unsigned b = 0; b < NumCpiBuckets; ++b) {
            const auto bucket = static_cast<CpiBucket>(b);
            est.cpiEst[b] += static_cast<double>(w.cpiCycles(bucket)) * scale;
        }
        observed_rep += plan[i].repInsts;
        if (!plan[i].exact)
            est.intervalIpc.push_back(w.ipc());
    }
    if (est_cycles <= 0.0 || observed_rep == 0)
        return est;
    for (unsigned s = 0; s < NumCoreStatSlots; ++s) {
        if (core_cycles[s] > 0.0 && core_retired[s] > 0.0)
            est.coreIpcEst[s] = core_retired[s] / core_cycles[s];
    }

    // Scale up for strata that measured nothing (program shorter than
    // planned -- rare, but keeps the estimate total-covering).
    const double coverage = static_cast<double>(total_insts) /
                            static_cast<double>(observed_rep);
    est_cycles *= coverage;
    est.estCycles =
        static_cast<std::uint64_t>(std::llround(est_cycles));
    est.ipc = static_cast<double>(total_insts) / est_cycles;
    for (double &b : est.cpiEst)
        b *= coverage;

    // 95% confidence half-width on the sampled windows' IPC mean.
    const std::size_t n = est.intervalIpc.size();
    if (n >= 2) {
        double mean = 0.0;
        for (const double x : est.intervalIpc)
            mean += x;
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (const double x : est.intervalIpc)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(n - 1);
        est.ipcCi95 =
            1.96 * std::sqrt(var / static_cast<double>(n));
    }
    return est;
}

} // namespace reno::sample
