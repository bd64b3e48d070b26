/**
 * @file
 * Tests for the simulation-campaign engine: parallel results are
 * identical to serial, content digests track every CoreParams field,
 * the result cache (memory and disk) short-circuits simulation, the
 * JSON/CSV reporters produce their golden output, and the tools'
 * flag families (engine flags and the workload/config selection)
 * resolve and reject what they should.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/digest.hpp"
#include "common/report.hpp"
#include "harness/experiment.hpp"
#include "parse_args.hpp"
#include "sample/warmup.hpp"
#include "sweep/campaign.hpp"
#include "sweep/reporter.hpp"
#include "sweep/result_cache.hpp"
#include "sweep/selection.hpp"
#include "sweep/thread_pool.hpp"

using namespace reno;
using namespace reno::sweep;

namespace
{

/** Two small workloads and three configs: a 2x3 cross-product. */
Campaign
smallCampaign()
{
    const CoreParams base = CoreParams::fourWide();
    const std::vector<NamedConfig> configs = {
        {"BASE", withReno(base, RenoConfig::baseline())},
        {"ME+CF", withReno(base, RenoConfig::meCf())},
        {"RENO", withReno(base, RenoConfig::full())},
    };
    Campaign c;
    c.addCross({&workloadByName("gzip"), &workloadByName("adpcm.dec")},
               configs);
    return c;
}

bool
sameSim(const SimResult &a, const SimResult &b)
{
    return a.cycles == b.cycles && a.retired == b.retired &&
           a.elim[1] == b.elim[1] && a.elim[2] == b.elim[2] &&
           a.elim[3] == b.elim[3] && a.elim[4] == b.elim[4] &&
           a.itAccesses == b.itAccesses &&
           a.bpMispredicts == b.bpMispredicts &&
           a.dcacheMisses == b.dcacheMisses &&
           a.stallRob == b.stallRob;
}

std::uint64_t
digestOfParams(const CoreParams &p)
{
    Job job;
    job.workload = &workloadByName("gzip");
    job.config = {"x", p};
    return jobDigest(job);
}

/** Every visitParams() key of @p p, in visit order. */
std::vector<std::string>
paramKeys(const CoreParams &p)
{
    std::vector<std::string> keys;
    visitParams(p, [&keys](std::string_view key, const auto &) {
        keys.emplace_back(key);
    });
    return keys;
}

/** @p p with its @p index-th visited field changed: a bool flipped,
 *  an enum moved to another value, a number incremented, or one more
 *  extra cache level. */
CoreParams
withFieldChanged(CoreParams p, std::size_t index)
{
    std::size_t at = 0;
    visitParams(p, [&at, index](std::string_view, auto &v) {
        if (at++ != index)
            return;
        using T = std::remove_reference_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>)
            v = !v;
        else if constexpr (std::is_enum_v<T>)
            v = static_cast<T>(v == T{} ? 1 : 0);
        else if constexpr (std::is_same_v<T, std::vector<CacheParams>>)
            v.push_back(CacheParams{});
        else
            ++v;
    });
    return p;
}

/** @p args through a table that holds the engine flags only. */
CampaignOptions
parseCampaign(std::vector<const char *> args)
{
    CampaignOptions opts;
    FlagTable table;
    addCampaignFlags(table, &opts);
    parseArgs(table, std::move(args));
    return opts;
}

/** @p args through a table that holds the selection flags only,
 *  resolved. */
Selection
selectArgs(std::vector<const char *> args)
{
    SelectionArgs sel;
    FlagTable table;
    addSelectionFlags(table, &sel);
    parseArgs(table, std::move(args));
    return resolveSelection(sel);
}

std::string
workloadNames(const Selection &sel)
{
    std::string out;
    for (const Workload *w : sel.workloads)
        out += (out.empty() ? "" : ",") + w->name;
    return out;
}

std::string
configNames(const Selection &sel)
{
    std::string out;
    for (const NamedConfig &cfg : sel.configs)
        out += (out.empty() ? "" : ",") + cfg.name;
    return out;
}

} // namespace

TEST(Sweep, ParallelMatchesSerial)
{
    Campaign campaign = smallCampaign();

    CampaignOptions serial;
    serial.jobs = 1;
    const CampaignResults s = campaign.run(serial);

    CampaignOptions parallel;
    parallel.jobs = 4;
    const CampaignResults p = campaign.run(parallel);

    ASSERT_EQ(s.size(), 6u);
    ASSERT_EQ(p.size(), s.size());
    for (std::size_t i = 0; i < s.size(); ++i)
        EXPECT_TRUE(sameSim(s.at(i).sim, p.at(i).sim)) << "job " << i;

    // Identical rendered reports, byte for byte.
    EXPECT_EQ(renderResults(s, ReportFormat::Json),
              renderResults(p, ReportFormat::Json));
    EXPECT_EQ(s.stats().simulated, 6u);
    EXPECT_EQ(p.stats().simulated, 6u);
}

TEST(Sweep, KeyedLookupFindsSubmissionResults)
{
    Campaign campaign = smallCampaign();
    CampaignOptions opts;
    opts.jobs = 2;
    const CampaignResults r = campaign.run(opts);

    const JobResult &direct = r.at(0);
    const JobResult &keyed = r.get("gzip", "BASE");
    EXPECT_TRUE(sameSim(direct.sim, keyed.sim));
    // A RENO run eliminates instructions; BASE does not.
    EXPECT_EQ(r.get("gzip", "BASE").sim.eliminatedTotal(), 0u);
    EXPECT_GT(r.get("gzip", "RENO").sim.eliminatedTotal(), 0u);
}

TEST(Sweep, SharedCacheSkipsSimulation)
{
    Campaign campaign = smallCampaign();
    ResultCache cache;

    CampaignOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;

    const CampaignResults cold = campaign.run(opts);
    EXPECT_EQ(cold.stats().simulated, 6u);
    EXPECT_EQ(cold.stats().cacheHits, 0u);

    const CampaignResults warm = campaign.run(opts);
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cacheHits, 6u);
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_TRUE(sameSim(cold.at(i).sim, warm.at(i).sim));
}

TEST(Sweep, DuplicateJobsSimulateOnce)
{
    const Workload &w = workloadByName("gzip");
    const NamedConfig cfg{"BASE", CoreParams::fourWide()};
    Campaign campaign;
    // The same content under three different display tags.
    campaign.add(w, cfg, "a");
    campaign.add(w, cfg, "b");
    campaign.add(w, cfg, "c");

    CampaignOptions opts;
    opts.jobs = 1;
    const CampaignResults r = campaign.run(opts);
    EXPECT_EQ(r.stats().jobs, 3u);
    EXPECT_EQ(r.stats().unique, 1u);
    EXPECT_EQ(r.stats().simulated, 1u);
    EXPECT_TRUE(sameSim(r.get("gzip", "BASE", "a").sim,
                        r.get("gzip", "BASE", "c").sim));
}

TEST(Sweep, DiskCachePersistsAcrossInstances)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "reno_sweep_cache_test").string();
    std::filesystem::remove_all(dir);

    const Workload &w = workloadByName("adpcm.dec");
    const NamedConfig cfg{"RENO",
                          withReno(CoreParams::fourWide(),
                                   RenoConfig::full())};
    Campaign campaign;
    campaign.add(w, cfg);

    CampaignOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir;
    const CampaignResults cold = campaign.run(opts);
    EXPECT_EQ(cold.stats().simulated, 1u);

    // A fresh cache instance (fresh process, conceptually) hits disk.
    const CampaignResults warm = campaign.run(opts);
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cacheHits, 1u);
    EXPECT_TRUE(sameSim(cold.at(0).sim, warm.at(0).sim));

    std::filesystem::remove_all(dir);
}

TEST(Sweep, StaleFormatEntryIsResimulatedAndOverwritten)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "reno_sweep_stale_test").string();
    std::filesystem::remove_all(dir);

    Campaign campaign;
    campaign.add(workloadByName("adpcm.dec"),
                 {"RENO", withReno(CoreParams::fourWide(),
                                   RenoConfig::full())});
    CampaignOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir;
    const CampaignResults cold = campaign.run(opts);
    ASSERT_EQ(cold.stats().simulated, 1u);

    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path());
    ASSERT_EQ(files.size(), 1u);
    auto slurp = [&] {
        std::ifstream in(files[0]);
        std::stringstream text;
        text << in.rdbuf();
        return text.str();
    };
    const std::string v5 = slurp();
    ASSERT_EQ(v5, ResultCache::encode(cold.at(0)));

    // Rewrite the entry as the v4 format had it: the old tag and no
    // CPI-stack lines (c<slot>Cpi<bucket>).
    std::string v4;
    std::istringstream lines(v5);
    for (std::string line; std::getline(lines, line);) {
        if (line == "reno-result v5")
            line = "reno-result v4";
        else if (line.compare(2, 3, "Cpi") == 0)
            continue;
        v4 += line + "\n";
    }
    ASSERT_NE(v4.size(), v5.size());
    {
        std::ofstream out(files[0], std::ios::trunc);
        out << v4;
    }

    // The stale entry is a miss: simulated again, warned about, and
    // overwritten by the current format.
    ::testing::internal::CaptureStderr();
    const CampaignResults stale = campaign.run(opts);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(stale.stats().simulated, 1u);
    EXPECT_EQ(stale.stats().cacheHits, 0u);
    EXPECT_NE(err.find("reno-result v5"), std::string::npos) << err;
    EXPECT_EQ(ResultCache::encode(stale.at(0)),
              ResultCache::encode(cold.at(0)));
    EXPECT_EQ(slurp(), v5);

    const CampaignResults warm = campaign.run(opts);
    EXPECT_EQ(warm.stats().simulated, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Sweep, ResultEncodingRoundTrips)
{
    JobResult r;
    r.sim.cycles = 123456;
    r.sim.retired = 7890;
    r.sim.elim[1] = 11;
    r.sim.elim[2] = 22;
    r.sim.elim[4] = 44;
    r.sim.itAccesses = 5;
    r.sim.stallLsq = 99;
    r.hasCpa = true;
    r.cpaWeights = {10, 20, 30, 40, 50};

    JobResult back;
    ASSERT_TRUE(ResultCache::decode(ResultCache::encode(r), &back));
    EXPECT_TRUE(sameSim(r.sim, back.sim));
    EXPECT_EQ(back.sim.stallLsq, 99u);
    ASSERT_TRUE(back.hasCpa);
    EXPECT_EQ(back.cpaWeights, r.cpaWeights);
    EXPECT_DOUBLE_EQ(back.cpaBreakdown()[4], 50.0 / 150.0);

    // Corruption is rejected, not half-parsed.
    EXPECT_FALSE(ResultCache::decode("garbage", &back));
    std::string truncated = ResultCache::encode(r);
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(ResultCache::decode(truncated, &back));
}

TEST(Sweep, JobDigestTracksEveryParamsField)
{
    // Each field visitParams() names, changed in turn, must move the
    // job digest. The memory and predictor fields and the core count
    // -- and only they -- must move the warm-state digest: that is
    // what lets BASE through RENO share one warming pass. RENO/l3
    // has an extra level, so its fields are visited too.
    NamedConfig cfg;
    ASSERT_TRUE(configByName("RENO/l3", CoreParams::fourWide(), &cfg));
    const CoreParams &p = cfg.params;
    const std::vector<std::string> keys = paramKeys(p);
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size())
        << "a key is named twice";

    std::set<std::string> warm_keys{"sys.numCores"};
    const auto collect = [&warm_keys](std::string_view key, const auto &) {
        warm_keys.emplace(key);
    };
    visitMemParams(p.mem, collect);
    visitBpredParams(p.bpred, collect);
    for (const std::string &key : warm_keys) {
        EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
            << key;
    }

    const std::uint64_t warm = sample::warmConfigDigest(p);
    std::set<std::uint64_t> seen{digestOfParams(p)};
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const CoreParams changed = withFieldChanged(p, i);
        EXPECT_TRUE(seen.insert(digestOfParams(changed)).second)
            << keys[i] << " must change the job digest";
        EXPECT_EQ(sample::warmConfigDigest(changed) != warm,
                  warm_keys.count(keys[i]) == 1)
            << keys[i];
    }

    // The digest is content-addressed: config/workload display names
    // and tags don't affect it; source and seed do.
    Job a, b;
    a.workload = b.workload = &workloadByName("gzip");
    a.config = {"one name", CoreParams{}};
    b.config = {"another name", CoreParams{}};
    b.tag = "tagged";
    EXPECT_EQ(jobDigest(a), jobDigest(b));

    Job c = a;
    c.workload = &workloadByName("eon.c");
    Job d = a;
    d.workload = &workloadByName("eon.k");  // same kernel, other seed
    EXPECT_NE(jobDigest(c), jobDigest(a));
    EXPECT_NE(jobDigest(c), jobDigest(d));

    Job e = a;
    e.wantCpa = true;
    EXPECT_NE(jobDigest(e), jobDigest(a));
}

TEST(Sweep, SerializeCoreParamsIsCanonical)
{
    const std::string s1 = serializeCoreParams(CoreParams{});
    const std::string s2 = serializeCoreParams(CoreParams{});
    EXPECT_EQ(s1, s2);
    EXPECT_NE(s1.find("robEntries 128\n"), std::string::npos);
    EXPECT_NE(s1.find("reno.me 0\n"), std::string::npos);

    CoreParams p;
    p.reno = RenoConfig::full();
    EXPECT_NE(serializeCoreParams(p), s1);
}

TEST(Sweep, JsonReporterGoldenOutput)
{
    std::vector<ReportRecord> records(2);
    addField(records[0], "name", "alpha \"quoted\"");
    addField(records[0], "cycles", std::uint64_t(42));
    addField(records[0], "ipc", 1.5, 2);
    addField(records[1], "name", "beta\nline");
    addField(records[1], "cycles", std::uint64_t(7));
    addField(records[1], "ipc", 0.25, 2);

    EXPECT_EQ(renderJson(records),
              "[\n"
              "  {\"name\": \"alpha \\\"quoted\\\"\", \"cycles\": 42, "
              "\"ipc\": 1.50},\n"
              "  {\"name\": \"beta\\nline\", \"cycles\": 7, "
              "\"ipc\": 0.25}\n"
              "]\n");
}

TEST(Sweep, CsvReporterGoldenOutput)
{
    std::vector<ReportRecord> records(2);
    addField(records[0], "name", "plain");
    addField(records[0], "note", "has,comma");
    addField(records[1], "name", "quo\"te");
    addField(records[1], "note", "fine");

    EXPECT_EQ(renderCsv(records),
              "name,note\n"
              "plain,\"has,comma\"\n"
              "\"quo\"\"te\",fine\n");
}

TEST(Sweep, TableReporterAligns)
{
    std::vector<ReportRecord> records(1);
    addField(records[0], "workload", "gzip");
    addField(records[0], "cycles", std::uint64_t(100));
    const std::string table = renderTable(records);
    EXPECT_NE(table.find("workload"), std::string::npos);
    EXPECT_NE(table.find("gzip"), std::string::npos);
}

TEST(Sweep, ThreadPoolRunsEverythingAndWaits)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);

    // Reusable after idle.
    pool.submit([&count] { count += 10; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 110);
}

TEST(Sweep, ResolveJobCountPrecedence)
{
    EXPECT_EQ(resolveJobCount(3), 3u);
    setenv("RENO_JOBS", "2", 1);
    EXPECT_EQ(resolveJobCount(0), 2u);
    EXPECT_EQ(resolveJobCount(5), 5u);  // explicit beats env
    unsetenv("RENO_JOBS");
    EXPECT_GE(resolveJobCount(0), 1u);
}

TEST(Sweep, ResolveJobCountIgnoresMalformedEnv)
{
    unsetenv("RENO_JOBS");
    const unsigned fallback = resolveJobCount(0);
    for (const char *bad : {"3abc", "0", "-2", "", " 4", "99999999999"}) {
        setenv("RENO_JOBS", bad, 1);
        EXPECT_EQ(resolveJobCount(0), fallback) << "RENO_JOBS=" << bad;
    }
    unsetenv("RENO_JOBS");
}

TEST(Sweep, ParseCampaignArgs)
{
    const CampaignOptions opts = parseCampaign(
        {"--jobs", "8", "--cache-dir=/tmp/x", "--sweep-stats"});
    EXPECT_EQ(opts.jobs, 8u);
    EXPECT_EQ(opts.cacheDir, "/tmp/x");
    EXPECT_TRUE(opts.stats);

    EXPECT_EQ(parseCampaign({"--jobs=3"}).jobs, 3u);
    for (const char *bad : {"2x", "0", "-1", "", "+2", "4294967296"}) {
        EXPECT_EXIT(parseCampaign({"--jobs", bad}),
                    ::testing::ExitedWithCode(1), "--jobs expects")
            << "--jobs " << bad;
    }
    EXPECT_EXIT(parseCampaign({"--jobs"}), ::testing::ExitedWithCode(1),
                "--jobs expects");
    EXPECT_EXIT(parseCampaign({"--cache-dir="}),
                ::testing::ExitedWithCode(1), "--cache-dir expects");
    EXPECT_EXIT(parseCampaign({"--unrelated"}),
                ::testing::ExitedWithCode(1),
                "unknown argument '--unrelated'");
}

TEST(Selection, DefaultIsThePaperSuitesUnderBaseAndReno)
{
    const Selection sel = selectArgs({});
    ASSERT_EQ(sel.workloads.size(), allWorkloads().size());
    for (std::size_t i = 0; i < sel.workloads.size(); ++i)
        EXPECT_EQ(sel.workloads[i], &allWorkloads()[i]);
    EXPECT_EQ(configNames(sel), "BASE,RENO");
    EXPECT_EQ(sel.configs[0].params.sys.numCores, 1u);
    EXPECT_EQ(sel.format, ReportFormat::Table);
    EXPECT_EQ(selectArgs({"--report=csv"}).format, ReportFormat::Csv);
    EXPECT_EQ(selectArgs({"--report", "json"}).format, ReportFormat::Json);
}

TEST(Selection, SuiteWorkloadAndGlobResolution)
{
    EXPECT_EQ(workloadNames(selectArgs({"--suite", "synth"})),
              "synth.plain,synth.phase,synth.chase,synth.mix");
    // --workload picks by name from any registry, in argv order, and
    // overrides --suite.
    EXPECT_EQ(workloadNames(selectArgs({"--suite=media", "--workload",
                                    "multi.false", "--workload=gzip"})),
              "multi.false,gzip");
    EXPECT_EQ(workloadNames(selectArgs({"--workloads", "mem.stream.*"})),
              "mem.stream.32k,mem.stream.256k,mem.stream.1m");
    // A suite narrows a glob.
    EXPECT_EQ(workloadNames(selectArgs({"--workloads=*.dec", "--suite",
                                    "media"})),
              "adpcm.dec,g721.dec,gsm.dec,jpeg.dec,mpeg2.dec,pegw.dec");
    EXPECT_EXIT(selectArgs({"--workloads", "mem.*", "--workload", "gzip"}),
                ::testing::ExitedWithCode(1), "exclusive");
    EXPECT_EXIT(selectArgs({"--workload", "nope"}),
                ::testing::ExitedWithCode(1), "unknown workload");
    EXPECT_EXIT(selectArgs({"--suite", "nope"}),
                ::testing::ExitedWithCode(1), "known suites");
    EXPECT_EXIT(selectArgs({"--suite"}), ::testing::ExitedWithCode(1),
                "--suite expects a value");
}

TEST(Selection, FilterKeepsMatchingNames)
{
    EXPECT_EQ(workloadNames(selectArgs({"--suite", "media", "--filter",
                                    "mpeg"})),
              "mpeg2.dec,mpeg2.enc");
    EXPECT_EQ(workloadNames(selectArgs({"--suite=branch",
                                    "--filter=branch.c"})),
              "branch.corr,branch.call");
    EXPECT_EXIT(selectArgs({"--filter", "no-such-name"}),
                ::testing::ExitedWithCode(1), "no workloads selected");
}

TEST(Selection, WidthAndConfigs)
{
    const Selection sel =
        selectArgs({"--width", "6", "--config", "ME", "--config=RENO/l3"});
    EXPECT_EQ(configNames(sel), "ME,RENO/l3");
    NamedConfig expected;
    ASSERT_TRUE(configByName("RENO/l3", CoreParams::sixWide(), &expected));
    EXPECT_EQ(serializeCoreParams(sel.configs[1].params),
              serializeCoreParams(expected.params));
    EXPECT_NE(serializeCoreParams(sel.configs[1].params),
              serializeCoreParams(
                  selectArgs({"--config", "RENO/l3"}).configs[0].params));
    EXPECT_EXIT(selectArgs({"--width", "5"}), ::testing::ExitedWithCode(1),
                "--width expects 4 or 6");
    EXPECT_EXIT(selectArgs({"--config", "NOPE"}),
                ::testing::ExitedWithCode(1), "unknown config 'NOPE'");
}

TEST(Selection, CoresAddsTheCoreSuffix)
{
    const Selection sel = selectArgs({"--cores", "2", "--config", "BASE",
                                  "--config", "RENO/tage"});
    EXPECT_EQ(configNames(sel), "BASE/2c,RENO/tage/2c");
    for (const NamedConfig &cfg : sel.configs)
        EXPECT_EQ(cfg.params.sys.numCores, 2u);
    // --cores 1 leaves the configs as parsed, multi-core ones included.
    const Selection one = selectArgs({"--cores=1", "--config", "RENO/4c"});
    EXPECT_EQ(configNames(one), "RENO/4c");
    EXPECT_EQ(one.configs[0].params.sys.numCores, 4u);

    EXPECT_EXIT(selectArgs({"--cores", "2", "--config", "BASE",
                        "--config", "RENO/4c"}),
                ::testing::ExitedWithCode(1),
                "--cores conflicts with config 'RENO/4c'");
    for (const char *bad : {"0", "9", "2x", "-2", ""}) {
        EXPECT_EXIT(selectArgs({"--cores", bad}),
                    ::testing::ExitedWithCode(1), "--cores expects")
            << "--cores " << bad;
    }
}

TEST(Selection, ListNamesEveryWorkloadOfEverySuite)
{
    const std::string listing = renderWorkloadList();
    std::size_t total = 0;
    for (const SuiteInfo &suite : knownSuites()) {
        for (const Workload *w : suiteWorkloads(suite.name)) {
            const std::string line = "  " + w->name + " ";
            const std::size_t at = listing.find(line);
            ASSERT_NE(at, std::string::npos) << w->name;
            EXPECT_NE(listing.substr(at, listing.find('\n', at) - at)
                          .find("(" + suite.name + ", seed "),
                      std::string::npos)
                << w->name;
            ++total;
        }
    }
    EXPECT_EQ(std::count(listing.begin(), listing.end(), '\n'),
              static_cast<std::ptrdiff_t>(total));
    EXPECT_EXIT(selectArgs({"--list"}), ::testing::ExitedWithCode(0), "");
}

TEST(Selection, TableAcceptsExactlyTheSelectionFlags)
{
    // A value flag takes its detached value, whatever it looks like:
    // here --list is the filter, not a listing.
    EXPECT_EXIT(selectArgs({"--filter", "--list"}),
                ::testing::ExitedWithCode(1), "no workloads selected");
    EXPECT_EXIT(selectArgs({"--list-suites"}),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(selectArgs({"--workloads="}), ::testing::ExitedWithCode(1),
                "--workloads expects a glob pattern");
    for (const char *bad : {"--list=x", "--suites", "--jobs"}) {
        EXPECT_EXIT(selectArgs({bad}), ::testing::ExitedWithCode(1),
                    std::string("unknown argument '") + bad + "'")
            << bad;
    }
}

TEST(Sweep, Fnv64KnownVectorsAndSeparation)
{
    // FNV-1a 64 of the empty input is the offset basis.
    EXPECT_EQ(Fnv64{}.value(), 0xcbf29ce484222325ULL);
    // "a" -> well-known FNV-1a 64 value.
    EXPECT_EQ(Fnv64{}.update("a", 1).value(), 0xaf63dc4c8601ec8cULL);

    // Length separation: ("ab","c") != ("a","bc").
    Fnv64 h1, h2;
    h1.update(std::string("ab")).update(std::string("c"));
    h2.update(std::string("a")).update(std::string("bc"));
    EXPECT_NE(h1.value(), h2.value());

    EXPECT_EQ(digestHex(0xabcULL), "0000000000000abc");
}
