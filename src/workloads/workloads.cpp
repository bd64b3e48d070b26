#include "workloads/workloads.hpp"

#include <memory>

#include "common/log.hpp"
#include "workloads/randprog.hpp"
#include "workloads/workload_sources.hpp"

namespace reno
{

const std::vector<Workload> &
allWorkloads()
{
    using namespace workloads;
    // The paper's Figure 8 bar lists: 16 SPECint2000 runs and 19
    // MediaBench runs. Kernels with several paper inputs (eon's three
    // camera models, perl's two scripts, vpr's two phases, mesa's
    // three demos, pegwit's two directions) appear once per input,
    // distinguished by the rand-syscall seed.
    static const std::vector<Workload> table = {
        {"bzip2",     "spec", spec_bzip2,     1},
        {"crafty",    "spec", spec_crafty,    1},
        {"eon.c",     "spec", spec_eon,       1},
        {"eon.k",     "spec", spec_eon,       2},
        {"eon.r",     "spec", spec_eon,       3},
        {"gap",       "spec", spec_gap,       1},
        {"gcc",       "spec", spec_gcc,       1},
        {"gzip",      "spec", spec_gzip,      1},
        {"mcf",       "spec", spec_mcf,       1},
        {"parser",    "spec", spec_parser,    1},
        {"perl.d",    "spec", spec_perlbmk,   1},
        {"perl.s",    "spec", spec_perlbmk,   2},
        {"twolf",     "spec", spec_twolf,     1},
        {"vortex",    "spec", spec_vortex,    1},
        {"vpr.p",     "spec", spec_vpr,       1},
        {"vpr.r",     "spec", spec_vpr,       2},
        {"adpcm.dec", "media", media_adpcm_dec, 1},
        {"adpcm.enc", "media", media_adpcm_enc, 1},
        {"epic",      "media", media_epic,      1},
        {"g721.dec",  "media", media_g721_dec,  1},
        {"g721.enc",  "media", media_g721_enc,  1},
        {"gs",        "media", media_gs,        1},
        {"gsm.dec",   "media", media_gsm_dec,   1},
        {"gsm.enc",   "media", media_gsm_enc,   1},
        {"jpeg.dec",  "media", media_jpeg_dec,  1},
        {"jpeg.enc",  "media", media_jpeg_enc,  1},
        {"mesa.m",    "media", media_mesa,      1},
        {"mesa.o",    "media", media_mesa,      2},
        {"mesa.t",    "media", media_mesa,      3},
        {"mpeg2.dec", "media", media_mpeg2_dec, 1},
        {"mpeg2.enc", "media", media_mpeg2_enc, 1},
        {"pegw.dec",  "media", media_pegwit,    2},
        {"pegw.enc",  "media", media_pegwit,    1},
        {"unepic",    "media", media_unepic,    1},
    };
    return table;
}

namespace
{

/** Generate a synth kernel into static storage (Workload keeps a
 *  borrowed pointer, so the text must live for the process). */
const char *
synthSource(const RandProgParams &params)
{
    static std::vector<std::unique_ptr<const std::string>> storage;
    storage.push_back(std::make_unique<const std::string>(
        generateRandomProgram(params)));
    return storage.back()->c_str();
}

RandProgParams
synthParams(std::uint64_t seed, unsigned phases, unsigned chase)
{
    RandProgParams p;
    p.seed = seed;
    p.iters = 8000;
    p.phases = phases;
    p.phasePeriod = 32;
    p.chaseSteps = chase;
    return p;
}

} // namespace

const std::vector<Workload> &
synthWorkloads()
{
    // Millions of dynamic instructions each: plain, phase-switching,
    // pointer-chasing, and both combined. Deterministic by seed.
    static const std::vector<Workload> table = {
        {"synth.plain", "synth", synthSource(synthParams(11, 1, 0)),
         11},
        {"synth.phase", "synth", synthSource(synthParams(12, 4, 0)),
         12},
        {"synth.chase", "synth", synthSource(synthParams(13, 1, 12)),
         13},
        {"synth.mix", "synth", synthSource(synthParams(14, 4, 8)),
         14},
    };
    return table;
}

const std::vector<Workload> &
memWorkloads()
{
    using namespace workloads;
    // Footprints straddle the default hierarchy: 32 KB fits the D$,
    // 256 KB the 512 KB L2, 1 MB only main memory. Pass/iteration
    // counts keep every kernel in the millions-of-instructions range.
    static const std::vector<Workload> table = {
        {"mem.stream.32k", "mem", memStreamSource(32, 64), 1},
        {"mem.stream.256k", "mem", memStreamSource(256, 12), 1},
        {"mem.stream.1m", "mem", memStreamSource(1024, 3), 1},
        {"mem.stride.512k", "mem", memStrideSource(512, 128, 300000),
         1},
        {"mem.chase.64k", "mem", memChaseSource(64, 600000), 1},
        {"mem.chase.1m", "mem", memChaseSource(1024, 150000), 1},
        {"mem.tile.mm", "mem", memTileSource(), 1},
    };
    return table;
}

const std::vector<Workload> &
branchWorkloads()
{
    using namespace workloads;
    // Each kernel isolates one prediction-stack failure mode (see
    // branch_suite.cpp); iteration counts keep every kernel in the
    // millions-of-instructions range.
    static const std::vector<Workload> table = {
        {"branch.bias", "branch", branchBiasSource(250000), 1},
        {"branch.alt", "branch", branchAltSource(200000), 1},
        {"branch.loop", "branch", branchLoopSource(25000), 1},
        {"branch.corr", "branch", branchCorrSource(150000), 1},
        {"branch.call", "branch", branchCallSource(10000, 24), 1},
        {"branch.ind", "branch", branchIndSource(120000, 8), 1},
    };
    return table;
}

const std::vector<Workload> &
multiWorkloads()
{
    using namespace workloads;
    // SPMD coherence kernels (multi_suite.cpp): the false-sharing
    // pair differs only in counter padding (8 B shares a 32 B line,
    // 256 B does not), so their invalidation counts bracket the
    // false-sharing effect while their checksums stay identical.
    static const std::vector<Workload> table = {
        {"multi.prodcons", "multi", multiProdconsSource(64, 60000), 1},
        {"multi.lock", "multi", multiLockSource(30000), 1},
        {"multi.false", "multi", multiFalseSource(150000, 8), 1},
        {"multi.false.pad", "multi", multiFalseSource(150000, 256), 1},
        {"multi.stream", "multi", multiStreamSource(32, 6), 1},
    };
    return table;
}

namespace
{

/** Every registry, paper first (workloadsMatching's search order). */
std::vector<const std::vector<Workload> *>
allRegistries()
{
    return {&allWorkloads(), &synthWorkloads(), &memWorkloads(),
            &branchWorkloads(), &multiWorkloads()};
}

/** The known suite names as one quoted, comma-separated list, for
 *  error messages ("\"spec\", \"media\", ..."). */
std::string
knownSuiteList()
{
    std::string out;
    for (const SuiteInfo &s : knownSuites()) {
        if (!out.empty())
            out += ", ";
        out += "\"" + s.name + "\"";
    }
    return out;
}

} // namespace

std::vector<const Workload *>
suiteWorkloads(const std::string &suite)
{
    const std::vector<Workload> &registry =
        suite == "synth"    ? synthWorkloads()
        : suite == "mem"    ? memWorkloads()
        : suite == "branch" ? branchWorkloads()
        : suite == "multi"  ? multiWorkloads()
                            : allWorkloads();
    std::vector<const Workload *> out;
    bool known = false;
    for (const auto &w : registry) {
        if (w.suite == suite) {
            out.push_back(&w);
            known = true;
        }
    }
    if (!known)
        fatal("unknown workload suite '%s' (known suites: %s)",
              suite.c_str(), knownSuiteList().c_str());
    return out;
}

namespace
{

/** Iterative `*`/`?` glob match (no brackets, no escapes). */
bool
globMatch(const std::string &pattern, const std::string &text)
{
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, star_t = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            star_t = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++star_t;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

} // namespace

std::vector<const Workload *>
workloadsMatching(const std::string &glob, const std::string &suite)
{
    const bool any_suite = suite.empty() || suite == "all";
    std::vector<const Workload *> out;
    for (const std::vector<Workload> *registry : allRegistries()) {
        for (const Workload &w : *registry) {
            if (globMatch(glob, w.name) &&
                (any_suite || w.suite == suite))
                out.push_back(&w);
        }
    }
    if (out.empty())
        fatal("--workloads '%s' matches no registered workload%s "
              "(known suites: %s; globs match workload names, e.g. "
              "\"mem.*\", \"gzip\", \"multi.false*\"; "
              "reno-sweep --list prints every name)",
              glob.c_str(),
              any_suite ? "" : (" in suite '" + suite + "'").c_str(),
              knownSuiteList().c_str());
    return out;
}

std::vector<SuiteInfo>
knownSuites()
{
    std::vector<SuiteInfo> out;
    auto tally = [&out](const std::vector<Workload> &registry,
                        bool paper) {
        for (const Workload &w : registry) {
            SuiteInfo *info = nullptr;
            for (SuiteInfo &s : out) {
                if (s.name == w.suite)
                    info = &s;
            }
            if (!info) {
                out.push_back(SuiteInfo{w.suite, 0, paper});
                info = &out.back();
            }
            ++info->workloads;
        }
    };
    tally(allWorkloads(), true);
    tally(synthWorkloads(), false);
    tally(memWorkloads(), false);
    tally(branchWorkloads(), false);
    tally(multiWorkloads(), false);
    return out;
}

std::string
renderWorkloadList()
{
    std::string out;
    for (const std::vector<Workload> *registry : allRegistries()) {
        for (const Workload &w : *registry)
            out += strprintf("  %-15s (%s, seed %llu)\n", w.name.c_str(),
                             w.suite.c_str(),
                             static_cast<unsigned long long>(w.seed));
    }
    return out;
}

const Workload &
workloadByName(const std::string &name)
{
    for (const std::vector<Workload> *registry : allRegistries()) {
        for (const auto &w : *registry) {
            if (w.name == name)
                return w;
        }
    }
    fatal("unknown workload '%s' (reno-sweep --list prints every "
          "registered name)", name.c_str());
}

} // namespace reno
