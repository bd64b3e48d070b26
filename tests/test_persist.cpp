/**
 * @file
 * On-disk formats under --cache-dir: result-cache entries
 * (<digest>.result), sampling checkpoints (ckpt/<key>.ckpt) and
 * functional profiles (ckpt/<key>.prof). Their encodings are frozen
 * by digest, so existing cache directories stay valid; every decoder
 * rejects, with a reason and without throwing, a file whose lines
 * gained, lost or mangled a field (checkpoints resealed after each
 * change so the edit reaches the parser); and concurrent writers of
 * one key never rename a torn file into place.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "sample/checkpoint.hpp"
#include "sample/warmup.hpp"
#include "sweep/result_cache.hpp"

using namespace reno;
using namespace reno::sample;

namespace
{

CoreParams
baseParams()
{
    CoreParams p = CoreParams::fourWide();
    p.reno = RenoConfig::baseline();
    return p;
}

/** baseParams() with every optional warm table populated: prefetch
 *  training entries, an indirect-target table and a perceptron, whose
 *  weights persist as negative numbers. */
CoreParams
richParams()
{
    CoreParams p = baseParams();
    p.mem.dcache.prefetch.kind = PrefetchKind::Stride;
    p.mem.l2.prefetch.kind = PrefetchKind::NextLine;
    p.bpred.indirect.enabled = true;
    p.bpred.dir.kind = DirPredKind::Perceptron;
    return p;
}

std::uint64_t
fnv(const std::string &text)
{
    return Fnv64().update(text.data(), text.size()).value();
}

/** A result with every registry counter set to a distinct value and
 *  a CPA breakdown. */
sweep::JobResult
seededResult()
{
    sweep::JobResult r;
    std::uint64_t v = 7;
    for (const SimStatField &f : simResultFields()) {
        statRef(r.sim, f) = v;
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        v >>= 20;
    }
    r.hasCpa = true;
    r.cpaWeights = {10, 20, 30, 40, 50};
    return r;
}

/** @p w warmed on @p cores SPMD cores to aggregate position @p pos
 *  under @p params, as a store would persist it. */
SampleCheckpoint
seededCheckpoint(const Workload &w, const CoreParams &params,
                 unsigned cores, std::uint64_t pos)
{
    CheckpointStore store;
    const SpmdEmulators emus(w, cores);
    if (cores == 1) {
        WarmState warm(params.mem, params.bpred);
        warmStep(*emus.cores()[0], warm, pos);
        return store.store(w, pos, emus.cores()[0]->checkpoint(), warm);
    }
    SysWarmState warm(params.mem, params.bpred, cores);
    warmStepMulti(emus.cores(), warm, pos);
    std::vector<EmuCheckpoint> snaps;
    for (const Emulator *e : emus.cores())
        snaps.push_back(e->checkpoint());
    return store.storeMulti(w, pos, std::move(snaps), warm);
}

/** Recompute a checkpoint's trailing integrity digest. */
std::string
reseal(const std::string &text)
{
    std::string body = text.substr(0, text.rfind("digest "));
    const std::uint64_t digest = Fnv64().update(body).value();
    return body + strprintf("digest %llu\n",
                            static_cast<unsigned long long>(digest));
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t from = 0;
    for (std::size_t at; (at = text.find(sep, from)) != std::string::npos;
         from = at + 1)
        out.push_back(text.substr(from, at - from));
    out.push_back(text.substr(from));
    return out;
}

std::string
join(const std::vector<std::string> &parts, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i ? std::string(1, sep) : "") + parts[i];
    return out;
}

/** Whether field @p i of a line keyed @p key is a signed value, for
 *  which -1 is legal: perceptron weights, a prefetch stride and the
 *  owner of a shared MESI line. */
bool
signedField(const std::string &key, std::size_t i)
{
    return (key == "dtab" && i >= 2) || (key == "pfent" && i == 4) ||
           (key == "busln" && i == 3);
}

/**
 * Apply every mutation to every line of @p text and require @p decode
 * to reject each, with a reason, without throwing: append a token,
 * drop the last token, and set a field to -1 (unsigned fields only),
 * "1x" or "". Long lines mutate their first, middle and last fields.
 * A @p sealed text (a checkpoint) is resealed after each mutation of
 * its body, so the edit reaches the parser; its digest line is mutated
 * as it stands.
 */
void
expectEveryMutationRejected(
    const std::string &text,
    const std::function<bool(const std::string &, std::string *)> &decode,
    bool sealed, const std::string &label)
{
    std::string why;
    ASSERT_TRUE(decode(text, &why)) << label << ": " << why;
    std::vector<std::string> lines = split(text, '\n');
    ASSERT_EQ(lines.back(), "");
    lines.pop_back();
    unsigned checked = 0;
    for (std::size_t n = 0; n < lines.size(); ++n) {
        const std::vector<std::string> tokens = split(lines[n], ' ');
        const std::string &key = tokens[0];
        std::vector<std::pair<std::string, std::string>> variants;
        variants.emplace_back("append", lines[n] + " 1");
        variants.emplace_back(
            "drop", join({tokens.begin(), tokens.end() - 1}, ' '));
        std::vector<std::size_t> fields;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (tokens.size() <= 8 || i <= 2 || i == tokens.size() / 2 ||
                i + 1 == tokens.size())
                fields.push_back(i);
        }
        for (const std::size_t i : fields) {
            for (const char *value : {"-1", "1x", ""}) {
                if (value == std::string("-1") && signedField(key, i))
                    continue;
                // An empty program output is a legal value.
                if (*value == '\0' && key == "output")
                    continue;
                std::vector<std::string> changed = tokens;
                changed[i] = value;
                variants.emplace_back(
                    strprintf("field %zu = '%s'", i, value),
                    join(changed, ' '));
            }
        }
        const bool last = n + 1 == lines.size();
        for (const auto &[what, line] : variants) {
            if (line == lines[n])
                continue;
            std::vector<std::string> mutated = lines;
            mutated[n] = line;
            std::string changed = join(mutated, '\n') + "\n";
            if (sealed && !last)
                changed = reseal(changed);
            const std::string where = strprintf(
                "%s line %zu '%.40s' %s", label.c_str(), n + 1,
                lines[n].c_str(), what.c_str());
            why.clear();
            bool accepted = true;
            EXPECT_NO_THROW(accepted = decode(changed, &why)) << where;
            EXPECT_FALSE(accepted) << where;
            EXPECT_FALSE(why.empty()) << where;
            ++checked;
        }
    }
    EXPECT_GT(checked, 4 * lines.size()) << label;
}

} // namespace

// ---- frozen formats -------------------------------------------------

TEST(PersistFormat, EncodingsAreFrozen)
{
    // Digests recorded before the stores moved onto the shared line
    // reader. A change here invalidates every existing cache
    // directory: bump the format tag instead of editing these.
    const CoreParams base = baseParams();
    const CoreParams rich = richParams();
    const Workload &epic = workloadByName("epic");
    EXPECT_EQ(fnv(CheckpointStore::encode(
                  seededCheckpoint(epic, base, 1, 20'000))),
              0xa59f6df7b3f343a7ULL);
    EXPECT_EQ(fnv(CheckpointStore::encode(
                  seededCheckpoint(epic, base, 2, 20'000))),
              0xa6b4d56e1a8799bbULL);
    EXPECT_EQ(fnv(CheckpointStore::encode(seededCheckpoint(
                  workloadByName("branch.ind"), rich, 1, 20'000))),
              0xce3ac706a4c931ccULL);
    EXPECT_EQ(fnv(CheckpointStore::encode(seededCheckpoint(
                  workloadByName("multi.false"), rich, 2, 20'000))),
              0x91668f3fdfeb80edULL);
    // Re-recorded with the "reno-result v5" tag, which appended the
    // per-core CPI stacks to the registry.
    EXPECT_EQ(fnv(sweep::ResultCache::encode(seededResult())),
              0x65cabe81f0c491c9ULL);
    EXPECT_EQ(fnv(CheckpointStore::encodeProfile(
                  FuncProfile{123456789, 42})),
              0xb2238b3d5a294395ULL);
}

// ---- fail-closed decoders -------------------------------------------

TEST(PersistDecode, ResultEntryRejectsEveryMutation)
{
    expectEveryMutationRejected(
        sweep::ResultCache::encode(seededResult()),
        [](const std::string &text, std::string *why) {
            sweep::JobResult r;
            return sweep::ResultCache::decode(text, &r, why);
        },
        false, "result");
}

TEST(PersistDecode, ProfileRejectsEveryMutation)
{
    expectEveryMutationRejected(
        CheckpointStore::encodeProfile(FuncProfile{123456789, 42}),
        [](const std::string &text, std::string *why) {
            FuncProfile p;
            return CheckpointStore::decodeProfile(text, &p, why);
        },
        false, "profile");
}

TEST(PersistDecode, CheckpointsRejectEveryResealedMutation)
{
    const CoreParams params = richParams();
    const struct {
        const char *workload;
        unsigned cores;
    } cases[] = {{"branch.ind", 1}, {"multi.false", 2}};
    for (const auto &c : cases) {
        const std::string text = CheckpointStore::encode(seededCheckpoint(
            workloadByName(c.workload), params, c.cores, 20'000));
        expectEveryMutationRejected(
            text,
            [&](const std::string &mutated, std::string *why) {
                SampleCheckpoint out;
                return CheckpointStore::decode(mutated, params.mem,
                                               params.bpred, &out,
                                               c.cores, why);
            },
            true, strprintf("%uc %s", c.cores, c.workload));
    }
}

TEST(PersistDecode, OversizedCountsAreRejectedNotAllocated)
{
    // A resealed count or in-line length far beyond the file must fail
    // the decode with a reason; nothing is sized from it up front.
    const std::pair<const char *, std::size_t> counts[] = {
        {"cache", 3}, {"cache", 4}, {"pages", 1},  {"bpdir", 2},
        {"dtab", 1},  {"btb", 1},   {"ras", 1},    {"itt", 1},
        {"bus", 1},   {"levels", 1}, {"sharedlevels", 1}};
    const CoreParams params = richParams();
    for (const unsigned cores : {1u, 2u}) {
        const std::string text = CheckpointStore::encode(seededCheckpoint(
            workloadByName(cores == 1 ? "branch.ind" : "multi.false"),
            params, cores, 20'000));
        const std::vector<std::string> lines = split(text, '\n');
        unsigned checked = 0;
        for (std::size_t n = 0; n < lines.size(); ++n) {
            const std::vector<std::string> tokens = split(lines[n], ' ');
            for (const auto &[key, at] : counts) {
                if (tokens[0] != key)
                    continue;
                std::vector<std::string> changed = tokens;
                changed[at] = "1000000000000000000";
                std::vector<std::string> mutated = lines;
                mutated[n] = join(changed, ' ');
                const std::string where =
                    strprintf("%uc line %zu %s field %zu", cores, n + 1,
                              key, at);
                SampleCheckpoint out;
                std::string why;
                bool accepted = true;
                EXPECT_NO_THROW(accepted = CheckpointStore::decode(
                                    reseal(join(mutated, '\n')),
                                    params.mem, params.bpred, &out, cores,
                                    &why))
                    << where;
                EXPECT_FALSE(accepted) << where;
                EXPECT_FALSE(why.empty()) << where;
                ++checked;
            }
        }
        // 1 core: 3 caches, pages, bpdir + its tables, btb, ras, itt,
        // levels; 2 cores add the bus and the shared levels.
        EXPECT_GE(checked, cores == 1 ? 12u : 25u);
    }
}

// ---- concurrent writers ---------------------------------------------

TEST(PersistStore, ConcurrentWritersOfOneKeyLeaveOneWholeEntry)
{
    const std::string dir =
        ::testing::TempDir() + "reno_persist_writers_test";
    std::filesystem::remove_all(dir);
    const sweep::JobResult result = seededResult();
    const CoreParams params = baseParams();
    const Workload &w = workloadByName("epic");
    const SampleCheckpoint ckpt = seededCheckpoint(w, params, 1, 20'000);
    const FuncProfile profile{123456789, 42};
    ::testing::internal::CaptureStderr();
    {
        sweep::ResultCache results(dir);
        CheckpointStore ckpts(dir + "/ckpt");
        std::vector<std::thread> writers;
        for (unsigned t = 0; t < 8; ++t) {
            writers.emplace_back([&] {
                for (unsigned i = 0; i < 4; ++i) {
                    results.store(77, result);
                    ckpts.store(w, 20'000, *ckpt.emu, *ckpt.warm);
                    ckpts.storeProfile(5, profile);
                }
            });
        }
        for (std::thread &t : writers)
            t.join();
    }
    // No writer's rename may find its temporary taken by another.
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    sweep::ResultCache results(dir);
    sweep::JobResult back;
    ASSERT_TRUE(results.lookup(77, &back));
    EXPECT_EQ(sweep::ResultCache::encode(back),
              sweep::ResultCache::encode(result));
    EXPECT_EQ(results.diskHits(), 1u);
    CheckpointStore ckpts(dir + "/ckpt");
    const SampleCheckpoint loaded =
        ckpts.lookup(w, 20'000, params.mem, params.bpred);
    ASSERT_TRUE(loaded.usable());
    EXPECT_EQ(CheckpointStore::encode(loaded),
              CheckpointStore::encode(ckpt));
    FuncProfile got;
    ASSERT_TRUE(ckpts.lookupProfile(5, &got));
    EXPECT_EQ(got.totalInsts, profile.totalInsts);

    unsigned files = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        ++files;
        EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
            << entry.path();
    }
    EXPECT_EQ(files, 3u);
    std::filesystem::remove_all(dir);
}

TEST(PersistStore, MalformedProfileIsWarnedAndRecomputed)
{
    const std::string dir =
        ::testing::TempDir() + "reno_persist_profile_test";
    std::filesystem::remove_all(dir);
    CheckpointStore(dir).storeProfile(9, FuncProfile{100, 1});
    const std::string path = dir + "/" + digestHex(9) + ".prof";
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        std::fputs("reno-funcprofile v1\ninsts -1\nmemdigest 1\n", f);
        std::fclose(f);
    }
    CheckpointStore fresh(dir);
    FuncProfile got;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(fresh.lookupProfile(9, &got));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("ignoring malformed entry"), std::string::npos)
        << err;
    EXPECT_NE(err.find(path), std::string::npos) << err;
    std::filesystem::remove_all(dir);
}
