#include "harness/experiment.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "asm/assembler.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "emu/emulator.hpp"
#include "obs/phase.hpp"
#include "sys/system.hpp"
#include "trace/pipetrace.hpp"

namespace reno
{

namespace
{

/** Fan one retirement stream out to two listeners (CPA + pipetrace
 *  share the Core's single listener slot). */
struct RetireTee : RetireListener {
    RetireListener *a = nullptr;
    RetireListener *b = nullptr;

    void
    onRetire(const DynInst &inst) override
    {
        a->onRetire(inst);
        b->onRetire(inst);
    }
};

/** Merge per-core hotspot tables by pc, re-rank, keep the top N. */
std::vector<obs::HotspotProfile::Entry>
mergeHot(const std::vector<std::vector<obs::HotspotProfile::Entry>>
             &per_core,
         std::size_t n, bool by_stall)
{
    std::vector<obs::HotspotProfile::Entry> merged;
    for (const auto &entries : per_core) {
        for (const obs::HotspotProfile::Entry &e : entries) {
            auto it = std::find_if(
                merged.begin(), merged.end(),
                [&](const auto &m) { return m.pc == e.pc; });
            if (it == merged.end()) {
                merged.push_back(e);
            } else {
                it->retired += e.retired;
                it->stallCycles += e.stallCycles;
            }
        }
    }
    std::sort(merged.begin(), merged.end(),
              [by_stall](const auto &a, const auto &b) {
                  const std::uint64_t ka =
                      by_stall ? a.stallCycles : a.retired;
                  const std::uint64_t kb =
                      by_stall ? b.stallCycles : b.retired;
                  if (ka != kb)
                      return ka > kb;
                  return a.pc < b.pc;
              });
    if (merged.size() > n)
        merged.resize(n);
    return merged;
}

/** Harvest and merge the hotspot tables across a System's cores. */
obs::HotspotReport
harvestHotspots(const System &sys)
{
    obs::HotspotReport r;
    std::vector<std::vector<obs::HotspotProfile::Entry>> hot_ret;
    std::vector<std::vector<obs::HotspotProfile::Entry>> hot_stall;
    const std::size_t n = obs::HotspotProfile::topN();
    for (unsigned i = 0; i < sys.numCores(); ++i) {
        if (const obs::HotspotProfile *hot = sys.core(i).hotspots()) {
            hot_ret.push_back(hot->topByRetired(n));
            hot_stall.push_back(hot->topByStall(n));
            r.dropped += hot->dropped();
        }
    }
    r.retired = mergeHot(hot_ret, n, false);
    r.stall = mergeHot(hot_stall, n, true);
    return r;
}

} // namespace

CoreParams
withReno(CoreParams params, const RenoConfig &reno)
{
    params.reno = reno;
    return params;
}

std::vector<NamedConfig>
renoBuildup(const CoreParams &base)
{
    return {
        {"BASE", withReno(base, RenoConfig::baseline())},
        {"ME", withReno(base, RenoConfig::meOnly())},
        {"ME+CF", withReno(base, RenoConfig::meCf())},
        {"RENO", withReno(base, RenoConfig::full())},
    };
}

std::vector<NamedConfig>
divisionOfLabor(const CoreParams &base)
{
    return {
        {"RENO", withReno(base, RenoConfig::full())},
        {"RENO+FullInteg", withReno(base, RenoConfig::fullIt())},
        {"FullInteg", withReno(base, RenoConfig::integrationOnly())},
        {"LoadsInteg", withReno(base, RenoConfig::loadsIntegrationOnly())},
    };
}

namespace
{

/** The D$ and L2 prefetchers of the pf-next / pf-stride variants. */
bool
prefetchers(CoreParams &p, PrefetchKind kind)
{
    p.mem.dcache.prefetch.kind = kind;
    p.mem.dcache.prefetch.degree = 2;
    p.mem.l2.prefetch.kind = kind;
    p.mem.l2.prefetch.degree = 4;
    return true;
}

template <DirPredKind Kind>
bool
direction(CoreParams &p, unsigned)
{
    p.bpred.dir.kind = Kind;
    return true;
}

/** The variant table: each token declared once, with its listing
 *  group and what it changes. */
constexpr ConfigVariant Variants[] = {
    // A 2 MB 8-way 64 B 25-cycle shared L3.
    {VariantGroup::Memory, "l3",
     [](CoreParams &p, unsigned) {
         CacheParams l3;
         l3.name = "l3";
         l3.sizeBytes = 2 * 1024 * 1024;
         l3.assoc = 8;
         l3.blockBytes = 64;
         l3.latency = 25;
         l3.numMshrs = 32;
         p.mem.extraLevels = {l3};
         return true;
     }},
    {VariantGroup::Memory, "pf-next",
     [](CoreParams &p, unsigned) {
         return prefetchers(p, PrefetchKind::NextLine);
     }},
    {VariantGroup::Memory, "pf-stride",
     [](CoreParams &p, unsigned) {
         return prefetchers(p, PrefetchKind::Stride);
     }},
    // Model dirty-victim write-back bus traffic.
    {VariantGroup::Memory, "wb",
     [](CoreParams &p, unsigned) {
         p.mem.modelWritebacks = true;
         return true;
     }},
    // The direction engine (tournament is the paper default).
    {VariantGroup::BranchPrediction, "bimodal",
     direction<DirPredKind::Bimodal>},
    {VariantGroup::BranchPrediction, "gshare",
     direction<DirPredKind::GShare>},
    {VariantGroup::BranchPrediction, "tournament",
     direction<DirPredKind::Tournament>},
    {VariantGroup::BranchPrediction, "tage", direction<DirPredKind::Tage>},
    {VariantGroup::BranchPrediction, "perceptron",
     direction<DirPredKind::Perceptron>},
    // An N-entry return-address stack.
    {VariantGroup::BranchPrediction, "ras<N>",
     [](CoreParams &p, unsigned n) {
         if (n == 0)
             return false;
         p.bpred.ras.entries = n;
         return true;
     }},
    // An N-entry BTB, N a power of two; associativity capped at N.
    {VariantGroup::BranchPrediction, "btb<N>",
     [](CoreParams &p, unsigned n) {
         if (n == 0 || (n & (n - 1)) != 0)
             return false;
         p.bpred.btb.entries = n;
         if (p.bpred.btb.assoc > n)
             p.bpred.btb.assoc = n;
         return true;
     }},
    // The 512-entry indirect-target table.
    {VariantGroup::BranchPrediction, "itt",
     [](CoreParams &p, unsigned) {
         p.bpred.indirect.enabled = true;
         return true;
     }},
    // N cores (private L1s + bpred each) over the shared hierarchy
    // under snooping MESI coherence.
    {VariantGroup::MultiCore, "<N>c",
     [](CoreParams &p, unsigned n) {
         if (n == 0 || n > SysParams::MaxCores)
             return false;
         p.sys.numCores = n;
         return true;
     }},
};

/** Does @p token spell @p spelling, "<N>" standing for a decimal
 *  number (stored into @p *n; untouched for a fixed spelling)? */
bool
spells(std::string_view spelling, std::string_view token, unsigned *n)
{
    const std::size_t hole = spelling.find("<N>");
    if (hole == std::string_view::npos)
        return token == spelling;
    const std::string_view prefix = spelling.substr(0, hole);
    const std::string_view suffix = spelling.substr(hole + 3);
    if (token.size() <= prefix.size() + suffix.size() ||
        !token.starts_with(prefix) || !token.ends_with(suffix))
        return false;
    const std::optional<std::uint64_t> v = parseUnsigned(
        token.substr(prefix.size(),
                     token.size() - prefix.size() - suffix.size()),
        0, std::numeric_limits<unsigned>::max());
    if (!v)
        return false;
    *n = static_cast<unsigned>(*v);
    return true;
}

} // namespace

std::span<const ConfigVariant>
configVariants()
{
    return Variants;
}

bool
applyVariant(const std::string &token, CoreParams *params)
{
    for (const ConfigVariant &v : Variants) {
        unsigned n = 0;
        if (spells(v.spelling, token, &n))
            return v.apply(*params, n);
    }
    return false;
}

void
addWidthFlag(FlagTable &table, unsigned *width)
{
    table.value("--width", "4|6", "machine width (default 4)",
                [width](const std::string &v) {
                    const std::optional<std::uint64_t> w =
                        parseUnsigned(v, 0, ~0u);
                    if (!w || !CoreParams::ofWidth(unsigned(*w)))
                        fatal("--width expects 4 or 6, got '%s'",
                              v.c_str());
                    *width = unsigned(*w);
                });
}

namespace
{

/** Every preset, in listing order: the build-up, then the
 *  division-of-labor configurations other than RENO. */
std::vector<NamedConfig>
presets(const CoreParams &base)
{
    std::vector<NamedConfig> all = renoBuildup(base);
    for (NamedConfig &cfg : divisionOfLabor(base)) {
        if (cfg.name != "RENO")
            all.push_back(std::move(cfg));
    }
    return all;
}

} // namespace

bool
configByName(const std::string &name, const CoreParams &base,
             NamedConfig *out)
{
    // The leading token is a preset; '/'-separated variant tokens
    // follow.
    std::size_t slash = name.find('/');
    const std::string preset_name = name.substr(0, slash);
    const std::vector<NamedConfig> all = presets(base);
    const auto preset = std::find_if(
        all.begin(), all.end(), [&preset_name](const NamedConfig &cfg) {
            return cfg.name == preset_name;
        });
    if (preset == all.end())
        return false;
    NamedConfig found{name, preset->params};
    while (slash != std::string::npos) {
        const std::size_t next = name.find('/', slash + 1);
        if (!applyVariant(name.substr(slash + 1, next - slash - 1),
                          &found.params))
            return false;
        slash = next;
    }
    *out = found;
    return true;
}

NamedConfig
configByNameOrDie(const std::string &name, const CoreParams &base)
{
    NamedConfig cfg;
    if (!configByName(name, base, &cfg)) {
        std::string known;
        for (const std::string &k : knownConfigNames())
            known += " " + k;
        fatal("unknown config '%s' (known:%s)", name.c_str(),
              known.c_str());
    }
    return cfg;
}

std::vector<std::string>
knownConfigNames()
{
    std::vector<std::string> names;
    for (const NamedConfig &cfg : presets(CoreParams{}))
        names.push_back(cfg.name);
    return names;
}

std::vector<std::pair<std::string, std::vector<const Workload *>>>
benchmarkSuites()
{
    return {
        {"SPECint-like", suiteWorkloads("spec")},
        {"MediaBench-like", suiteWorkloads("media")},
    };
}

std::string
renderConfigList()
{
    std::string out = "configs:\n";
    for (const std::string &name : knownConfigNames())
        out += "  " + name + "\n";
    const auto group = [&out](VariantGroup g, const std::string &heading) {
        out += heading;
        for (const ConfigVariant &v : Variants) {
            if (v.group == g)
                out += std::string("  /") + v.spelling + "\n";
        }
    };
    group(VariantGroup::Memory,
          "memory variants (append as /token, e.g. RENO/l3/wb):\n");
    group(VariantGroup::BranchPrediction,
          "branch-prediction variants (append as /token, e.g. "
          "RENO/tage or BASE/perceptron/ras16):\n");
    group(VariantGroup::MultiCore,
          strprintf("multi-core variants (append as /token, e.g. "
                    "RENO/2c or RENO/4c/l3; up to %u cores):\n",
                    SysParams::MaxCores));
    return out;
}

std::string
renderSuiteList()
{
    std::string out = "suites:\n";
    std::size_t paper = 0;
    std::string paper_names;
    for (const SuiteInfo &s : knownSuites()) {
        out += strprintf("  %-6s %2zu workloads  (%s)\n",
                         s.name.c_str(), s.workloads,
                         s.paper ? "paper registry" : "generated");
        if (s.paper) {
            paper += s.workloads;
            paper_names += (paper_names.empty() ? "" : " + ") + s.name;
        }
    }
    out += strprintf("  %-6s %2zu workloads  (%s; the default)\n",
                     "all", paper, paper_names.c_str());
    return out;
}

const Program &
assembleWorkload(const Workload &workload)
{
    static std::mutex mu;
    static std::map<std::string, std::unique_ptr<const Program>,
                    std::less<>>
        cache;

    // Heterogeneous probe: no source-string copy on the hot path.
    const std::string_view source(workload.source);
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(source);
        if (it != cache.end())
            return *it->second;
    }
    auto prog = std::make_unique<const Program>(
        assemble(std::string(source)));
    std::lock_guard<std::mutex> lock(mu);
    // try_emplace keeps the first copy if another thread raced us.
    auto [it, inserted] =
        cache.try_emplace(std::string(source), std::move(prog));
    return *it->second;
}

SpmdEmulators::SpmdEmulators(const Workload &workload,
                             unsigned num_cores)
{
    const Program &prog = assembleWorkload(workload);
    for (unsigned i = 0; i < num_cores; ++i) {
        Emulator::Options opts;
        opts.randSeed = workload.seed + i;
        opts.coreId = i;
        owned_.push_back(std::make_unique<Emulator>(prog, opts));
        cores_.push_back(owned_.back().get());
    }
}

std::uint64_t
SpmdEmulators::instCount() const
{
    std::uint64_t total = 0;
    for (const Emulator *emu : cores_)
        total += emu->instCount();
    return total;
}

bool
SpmdEmulators::done() const
{
    return std::all_of(cores_.begin(), cores_.end(),
                       [](const Emulator *emu) { return emu->done(); });
}

void
SpmdEmulators::collect(RunOutput *out) const
{
    // An order-dependent FNV-style fold; one core reports its digest
    // raw, so a single-core digest is the emulator's own.
    std::uint64_t digest = 1469598103934665603ULL;
    for (const Emulator *emu : cores_) {
        out->output += emu->output();
        digest = (digest ^ emu->memory().digest()) * 1099511628211ULL;
    }
    out->emuInsts = instCount();
    out->memDigest =
        cores_.size() == 1 ? cores_[0]->memory().digest() : digest;
}

RunOutput
runWorkload(const Workload &workload, const CoreParams &params,
            CriticalPathAnalyzer *cpa)
{
    const unsigned n = params.sys.numCores;
    if (cpa && n > 1)
        fatal("critical-path analysis is single-core only "
              "(config runs %u cores)", n);
    const SpmdEmulators emus(workload, n);
    System sys(params, emus.cores());

    // --pipetrace: one bounded tracer per core, emitted per lane. The
    // CPA shares core 0's retire-listener slot with its tracer
    // through a tee when both are requested.
    std::vector<PipeTracer> ptracers;
    if (PipeTraceSink::instance().enabled()) {
        ptracers.resize(n);
        for (unsigned i = 0; i < n; ++i)
            sys.core(i).setRetireListener(&ptracers[i]);
    }
    RetireTee tee;
    if (cpa && !ptracers.empty()) {
        tee.a = cpa;
        tee.b = &ptracers[0];
        sys.core(0).setRetireListener(&tee);
    } else if (cpa) {
        sys.core(0).setRetireListener(cpa);
    }

    RunOutput out;
    {
        obs::PhaseSpan phase("sim.detailed");
        out.sim = sys.run();
        phase.setInsts(out.sim.retired);
    }
    if (cpa)
        cpa->finish();
    for (std::size_t i = 0; i < ptracers.size(); ++i) {
        PipeTraceSink::instance().emit(
            n == 1 ? workload.name
                   : strprintf("%s core%zu", workload.name.c_str(), i),
            ptracers[i].records());
    }
    out.hot = harvestHotspots(sys);
    emus.collect(&out);
    return out;
}

RunOutput
runFunctional(const Workload &workload)
{
    return runFunctionalMulti(workload, 1);
}

RunOutput
runFunctionalMulti(const Workload &workload, unsigned num_cores)
{
    const SpmdEmulators emus(workload, num_cores);
    {
        obs::PhaseSpan phase("sim.functional");
        for (Emulator *emu : emus.cores())
            emu->run();
        phase.setInsts(emus.instCount());
    }
    RunOutput out;
    emus.collect(&out);
    return out;
}

double
speedupPercent(std::uint64_t base_cycles, std::uint64_t cycles)
{
    if (base_cycles == 0 || cycles == 0)
        return 0.0;
    return (static_cast<double>(base_cycles) /
            static_cast<double>(cycles) - 1.0) * 100.0;
}

double
amean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

} // namespace reno
