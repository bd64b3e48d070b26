#include "sample/checkpoint.hpp"

#include <algorithm>
#include <ranges>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "obs/phase.hpp"

namespace reno::sample
{

namespace
{

// v3 generalized the warm half to a hierarchy of arbitrary depth:
// a "levels N" header followed by one per-cache block carrying dirty
// and prefetched line flags plus the prefetcher training table. v4
// replaced the hardwired hybrid-predictor block with the generic
// composable-stack encoding (any direction engine's tables, BTB,
// RAS, indirect-target table). v5 added multi-core slots: a "cores N"
// header followed by one functional block per core (each core of a
// System runs its own emulator), then the warm half: "warmcfg", then
// on one core a single core-warm block (lastblk, every cache level,
// full predictor state), byte-stable across versions; on N > 1 cores
// the MESI directory ("bus" + sorted "busln" lines), the shared stack
// ("sharedlevels" + cache blocks) and one "corewarm i" header plus
// core-warm block (lastblk, private L1s, predictor) per core.
constexpr const char *CheckpointTag = "reno-checkpoint v5";
constexpr const char *ProfileTag = "reno-funcprofile v1";
constexpr const char *CheckpointExt = ".ckpt";
constexpr const char *ProfileExt = ".prof";

std::string
hexEncode(const std::uint8_t *data, std::size_t len)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(len * 2);
    for (std::size_t i = 0; i < len; ++i) {
        out += digits[data[i] >> 4];
        out += digits[data[i] & 0xf];
    }
    return out;
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

bool
hexDecode(std::string_view text, std::vector<std::uint8_t> *out)
{
    if (text.size() % 2)
        return false;
    out->clear();
    out->reserve(text.size() / 2);
    for (std::size_t i = 0; i < text.size(); i += 2) {
        const int hi = hexNibble(text[i]);
        const int lo = hexNibble(text[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out->push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
    return true;
}

bool
failWith(std::string *why, const std::string &reason)
{
    if (why)
        *why = reason;
    return false;
}

void
encodeCacheState(std::string &out, const std::string &name,
                 const CacheState &state)
{
    putLine(out, "cache", name, state.lruClock, state.validLines.size(),
            state.prefetch.entries.size());
    for (const CacheState::Line &l : state.validLines)
        putLine(out, "line", l.index, l.tag, l.lruStamp, l.dirty,
                l.prefetched);
    for (const PrefetchState::Entry &e : state.prefetch.entries)
        putLine(out, "pfent", e.index, e.regionTag, e.lastBlock, e.stride,
                e.confidence);
}

bool
decodeCacheState(LineReader &in, const std::string &expected_name,
                 CacheState *out)
{
    std::string_view name;
    std::uint64_t count = 0, pf_count = 0;
    if (!in.next("cache", name, out->lruClock, count, pf_count) ||
        name != expected_name)
        return false;
    out->validLines.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        CacheState::Line l;
        if (!in.next("line", l.index, l.tag, l.lruStamp, l.dirty,
                     l.prefetched))
            return false;
        out->validLines.push_back(l);
    }
    out->prefetch.entries.clear();
    for (std::uint64_t i = 0; i < pf_count; ++i) {
        PrefetchState::Entry e;
        if (!in.next("pfent", e.index, e.regionTag, e.lastBlock,
                     e.stride, e.confidence))
            return false;
        out->prefetch.entries.push_back(e);
    }
    return true;
}

/** One core's functional half ("core i" header + snapshot). */
void
encodeEmuHalf(std::string &out, unsigned core,
              const EmuCheckpoint &emu)
{
    putLine(out, "core", core);
    putLine(out, "prog", emu.progDigest);
    putLine(out, "inst", emu.instCount);
    putLine(out, "exit", emu.exitCode);
    putLine(out, "rand", emu.randState);
    putLine(out, "done", emu.done);
    putLine(out, "pc", emu.state.pc);
    putLine(out, "regs", emu.state.regs);
    putLine(out, "output",
            hexEncode(reinterpret_cast<const std::uint8_t *>(
                          emu.output.data()),
                      emu.output.size()));
    putLine(out, "pages", emu.mem.pages().size());
    for (const auto &[page_num, page] : emu.mem.pages())
        putLine(out, "page", page_num,
                hexEncode(page.data(), page.size()));
}

bool
decodeEmuHalf(LineReader &in, unsigned core, EmuCheckpoint *emu)
{
    unsigned hdr_core = 0;
    std::string_view hex;
    std::vector<std::uint8_t> bytes;
    std::uint64_t npages = 0;
    if (!in.next("core", hdr_core) || hdr_core != core ||
        !in.next("prog", emu->progDigest) ||
        !in.next("inst", emu->instCount) ||
        !in.next("exit", emu->exitCode) ||
        !in.next("rand", emu->randState) || !in.next("done", emu->done) ||
        !in.next("pc", emu->state.pc) ||
        !in.next("regs", std::span<std::uint64_t>(emu->state.regs)) ||
        !in.next("output", hex) || !hexDecode(hex, &bytes) ||
        !in.next("pages", npages))
        return false;
    emu->output.assign(bytes.begin(), bytes.end());
    for (std::uint64_t p = 0; p < npages; ++p) {
        std::uint64_t page_num = 0;
        if (!in.next("page", page_num, hex) ||
            page_num > (~Addr{0} >> SparseMemory::PageBits) ||
            !hexDecode(hex, &bytes) ||
            bytes.size() != SparseMemory::PageSize)
            return false;
        emu->mem.load(page_num << SparseMemory::PageBits, bytes.data(),
                      bytes.size());
    }
    return true;
}

/** The composable-predictor state block (direction tables, BTB, RAS,
 *  indirect-target table). */
void
encodeBpredState(std::string &out, const BranchPredState &bp)
{
    putLine(out, "bpdir", bp.dir.history, bp.dir.tables.size());
    // Signed rendering: two's-complement words (perceptron weights)
    // print as small negative numbers, not 20-digit wrap-arounds.
    const auto as_signed = [](std::uint64_t v) {
        return static_cast<std::int64_t>(v);
    };
    for (const std::vector<std::uint64_t> &table : bp.dir.tables)
        putLine(out, "dtab", table.size(),
                table | std::views::transform(as_signed));
    putLine(out, "btb", bp.btb.entries.size(), bp.btb.lruClock);
    for (const BtbState::Entry &e : bp.btb.entries)
        putLine(out, "btbent", e.index, e.tag, e.target, e.lruStamp);
    putLine(out, "ras", bp.ras.stack.size(), bp.ras.top, bp.ras.stack);
    putLine(out, "itt", bp.indirect.entries.size(), bp.indirect.history);
    for (const IndirectState::Entry &e : bp.indirect.entries)
        putLine(out, "ittent", e.index, e.tag, e.target);
}

bool
decodeBpredState(LineReader &in, BranchPredState *bp)
{
    std::uint64_t n = 0;
    if (!in.next("bpdir", bp->dir.history, n))
        return false;
    for (std::uint64_t t = 0; t < n; ++t) {
        std::uint64_t len = 0;
        std::vector<std::uint64_t> table;
        if (!in.next("dtab", len, listOf<std::int64_t>(len, table)))
            return false;
        bp->dir.tables.push_back(std::move(table));
    }
    if (!in.next("btb", n, bp->btb.lruClock))
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        BtbState::Entry e;
        if (!in.next("btbent", e.index, e.tag, e.target, e.lruStamp))
            return false;
        bp->btb.entries.push_back(e);
    }
    if (!in.next("ras", n, bp->ras.top, listOf(n, bp->ras.stack)) ||
        !in.next("itt", n, bp->indirect.history))
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        IndirectState::Entry e;
        if (!in.next("ittent", e.index, e.tag, e.target))
            return false;
        bp->indirect.entries.push_back(e);
    }
    return true;
}

/** One core's warm tables: the last fetched I$ block, every cache
 *  level the hierarchy owns (MemHierarchy::levels()) and the full
 *  predictor state. The whole warm half on one core; one "corewarm"
 *  block per core of a multi-core checkpoint. */
void
encodeCoreWarm(std::string &out, Addr last_fetch_block,
               const MemHierarchy &mem, const BranchPredictor &bp)
{
    putLine(out, "lastblk", last_fetch_block);
    const std::vector<const Cache *> levels = mem.levels();
    putLine(out, "levels", levels.size());
    for (const Cache *level : levels)
        encodeCacheState(out, level->name(), level->exportState());
    encodeBpredState(out, bp.exportState());
}

bool
decodeCoreWarm(LineReader &in, Addr *last_fetch_block,
               MemHierarchy &mem, BranchPredictor &bp, std::string *why)
{
    if (!in.next("lastblk", *last_fetch_block))
        return failWith(why, "corrupt warm block (lastblk)");
    // Per-level blocks arrive in State order; each must carry the
    // level name the target hierarchy expects, so a reordered or
    // spliced file fails the decode instead of warming wrong levels.
    const std::vector<const Cache *> levels = mem.levels();
    std::uint64_t num_levels = 0;
    if (!in.next("levels", num_levels) || num_levels != levels.size())
        return failWith(why, "cache-level count does not match the "
                             "target geometry");
    MemHierarchy::State mem_state;
    for (const Cache *level : levels) {
        mem_state.caches.emplace_back();
        if (!decodeCacheState(in, level->name(),
                              &mem_state.caches.back()))
            return failWith(why, strprintf("corrupt cache block ('%s')",
                                           level->name().c_str()));
    }
    if (!mem.importState(mem_state))
        return failWith(why, "cache tables do not fit the target "
                             "models");
    BranchPredState bp_state;
    if (!decodeBpredState(in, &bp_state))
        return failWith(why, "corrupt predictor block");
    if (!bp.importState(bp_state))
        return failWith(why, "predictor tables do not fit the target "
                             "models");
    return true;
}

/** Multi-core warm half after "warmcfg": MESI directory, shared
 *  stack, then one "corewarm" block per core. */
void
encodeSysWarm(std::string &out, const SysWarmState &warm)
{
    const CoherenceBusState bus = warm.bus().exportState();
    putLine(out, "bus", bus.lines.size(), bus.invalidations,
            bus.interventions, bus.upgradeMisses, bus.writebacks);
    for (const CoherenceBusState::Line &l : bus.lines)
        putLine(out, "busln", l.line, l.sharers, l.owner, l.modified);
    const SharedStack &shared = warm.sharedStack();
    putLine(out, "sharedlevels", shared.numLevels());
    for (std::size_t i = 0; i < shared.numLevels(); ++i)
        encodeCacheState(out, shared.level(i).name(),
                         shared.level(i).exportState());
    for (unsigned c = 0; c < warm.numCores(); ++c) {
        putLine(out, "corewarm", c);
        encodeCoreWarm(out, warm.lastFetchBlock(c), warm.coreMem(c),
                       warm.coreBp(c));
    }
}

bool
decodeSysWarm(LineReader &in, SysWarmState &warm, std::string *why)
{
    CoherenceBusState bus;
    std::uint64_t n = 0;
    if (!in.next("bus", n, bus.invalidations, bus.interventions,
                 bus.upgradeMisses, bus.writebacks))
        return failWith(why, "corrupt MESI bus header");
    for (std::uint64_t i = 0; i < n; ++i) {
        CoherenceBusState::Line l;
        if (!in.next("busln", l.line, l.sharers, l.owner, l.modified))
            return failWith(why, "corrupt MESI directory line");
        bus.lines.push_back(l);
    }
    if (!warm.bus().importState(bus))
        return failWith(why, strprintf("MESI directory does not fit a "
                                       "%u-core bus",
                                       warm.numCores()));

    SharedStack &shared = warm.sharedStack();
    if (!in.next("sharedlevels", n) || n != shared.numLevels())
        return failWith(why, "shared-stack depth does not match the "
                             "target geometry");
    for (std::size_t i = 0; i < shared.numLevels(); ++i) {
        Cache &level = shared.level(i);
        CacheState state;
        if (!decodeCacheState(in, level.name(), &state) ||
            !level.importState(state))
            return failWith(why, strprintf("corrupt shared-level block "
                                           "('%s')",
                                           level.name().c_str()));
    }

    for (unsigned c = 0; c < warm.numCores(); ++c) {
        unsigned hdr_core = 0;
        if (!in.next("corewarm", hdr_core) || hdr_core != c)
            return failWith(why, strprintf("corrupt per-core warm "
                                           "block (core %u)",
                                           c));
        std::string reason;
        if (!decodeCoreWarm(in, &warm.lastFetchBlock(c), warm.coreMem(c),
                            warm.coreBp(c), &reason))
            return failWith(why, strprintf("core %u: %s", c,
                                           reason.c_str()));
    }
    return true;
}

} // namespace

std::uint64_t
checkpointDigest(const EmuCheckpoint &ckpt)
{
    Fnv64 h;
    h.update("reno-ckpt-digest-v1");
    for (unsigned r = 0; r < NumLogRegs; ++r)
        h.update(ckpt.state.regs[r]);
    h.update(ckpt.state.pc);
    h.update(ckpt.mem.digest());
    h.update(ckpt.output);
    h.update(ckpt.instCount);
    h.update(ckpt.exitCode);
    h.update(ckpt.randState);
    h.update(ckpt.done);
    h.update(ckpt.progDigest);
    return h.value();
}

std::uint64_t
checkpointKey(const Workload &workload, std::uint64_t start_inst,
              std::uint64_t warm_digest)
{
    Fnv64 h;
    h.update("reno-ckpt-key-v2");
    h.update(std::string(workload.source));
    h.update(workload.seed);
    h.update(start_inst);
    h.update(warm_digest);
    return h.value();
}

std::uint64_t
profileKey(const Workload &workload, unsigned num_cores)
{
    Fnv64 h;
    h.update("reno-funcprofile-key-v1");
    h.update(std::string(workload.source));
    h.update(workload.seed);
    // Folded only beyond one core: single-core keys predate
    // multi-core profiles, and leaving them unchanged keeps existing
    // disk caches valid.
    if (num_cores > 1)
        h.update(std::uint64_t{num_cores});
    return h.value();
}

std::string
CheckpointStore::encode(const SampleCheckpoint &ckpt)
{
    if (!ckpt.usable())
        fatal("encoding an unusable checkpoint");
    if (ckpt.sysWarm && ckpt.sysWarm->numCores() != ckpt.numCores())
        fatal("encoding a checkpoint whose warm state spans %u cores "
              "but snapshots %u", ckpt.sysWarm->numCores(),
              ckpt.numCores());

    std::string out;
    putLine(out, CheckpointTag);

    // --- functional half, one block per core --------------------------
    putLine(out, "cores", ckpt.numCores());
    encodeEmuHalf(out, 0, *ckpt.emu);
    for (std::size_t i = 0; i < ckpt.extraEmus.size(); ++i)
        encodeEmuHalf(out, static_cast<unsigned>(i + 1),
                      *ckpt.extraEmus[i]);

    // --- warm half ----------------------------------------------------
    const MemHierarchy::Params &mem_params =
        ckpt.sysWarm ? ckpt.sysWarm->memParams() : ckpt.warm->memParams();
    const BranchPredParams &bp_params =
        ckpt.sysWarm ? ckpt.sysWarm->bpParams() : ckpt.warm->bpParams();
    putLine(out, "warmcfg",
            warmConfigDigest(mem_params, bp_params, ckpt.numCores()));
    if (ckpt.sysWarm)
        encodeSysWarm(out, *ckpt.sysWarm);
    else
        encodeCoreWarm(out, ckpt.warm->lastFetchBlock, ckpt.warm->mem,
                       ckpt.warm->bp);

    // Integrity digest over everything above.
    putLine(out, "digest", Fnv64().update(out).value());
    return out;
}

bool
CheckpointStore::decode(const std::string &text,
                        const MemHierarchy::Params &mem_params,
                        const BranchPredParams &bp_params,
                        SampleCheckpoint *out,
                        unsigned expected_cores, std::string *why)
{
    // Verify the trailing integrity digest first.
    const std::size_t digest_pos = text.rfind("digest ");
    if (digest_pos == std::string::npos)
        return failWith(why, "no integrity digest (truncated file?)");
    {
        std::uint64_t stored = 0;
        LineReader trailer(std::string_view(text).substr(digest_pos));
        if (!trailer.next("digest", stored) || !trailer.finish())
            return failWith(why, "malformed integrity digest");
        if (Fnv64().update(text.substr(0, digest_pos)).value() != stored)
            return failWith(why, "integrity digest mismatch (corrupt or "
                                 "spliced file)");
    }

    LineReader in(std::string_view(text).substr(0, digest_pos));
    if (!in.expectLine(CheckpointTag))
        return failWith(why, strprintf("bad or truncated header "
                                       "(expected '%s')",
                                       CheckpointTag));

    std::uint64_t num_cores = 0;
    if (!in.next("cores", num_cores) || num_cores == 0)
        return failWith(why, "missing or zero core count");
    if (num_cores != expected_cores)
        return failWith(why, strprintf("checkpoint snapshots %llu "
                                       "cores, expected %u",
                                       static_cast<unsigned long long>(
                                           num_cores),
                                       expected_cores));

    SampleCheckpoint ckpt;
    for (unsigned c = 0; c < expected_cores; ++c) {
        auto emu = std::make_shared<EmuCheckpoint>();
        if (!decodeEmuHalf(in, c, emu.get()))
            return failWith(why, strprintf("corrupt functional block "
                                           "(core %u)",
                                           c));
        if (c == 0)
            ckpt.emu = std::move(emu);
        else
            ckpt.extraEmus.push_back(std::move(emu));
    }

    // Warm half: the file's warm-config digest must match the models
    // we are asked to rebuild onto. Multi-core checkpoints carry the
    // SysWarmState layout; single-core ones one core-warm block.
    std::uint64_t warmcfg = 0;
    if (!in.next("warmcfg", warmcfg) ||
        warmcfg != warmConfigDigest(mem_params, bp_params,
                                    expected_cores))
        return failWith(why, "warm-config digest does not match the "
                             "target models");
    if (expected_cores > 1) {
        auto warm = std::make_shared<SysWarmState>(mem_params, bp_params,
                                                   expected_cores);
        if (!decodeSysWarm(in, *warm, why))
            return false;
        ckpt.sysWarm = std::move(warm);
    } else {
        auto warm = std::make_shared<WarmState>(mem_params, bp_params);
        if (!decodeCoreWarm(in, &warm->lastFetchBlock, warm->mem,
                            warm->bp, why))
            return false;
        ckpt.warm = std::move(warm);
    }
    if (!in.finish())
        return failWith(why, in.error());
    *out = std::move(ckpt);
    return true;
}

SampleCheckpoint
CheckpointStore::decodeOrDie(const std::string &text,
                             const MemHierarchy::Params &mem_params,
                             const BranchPredParams &bp_params,
                             unsigned expected_cores)
{
    SampleCheckpoint out;
    std::string why;
    if (!decode(text, mem_params, bp_params, &out, expected_cores,
                &why))
        fatal("checkpoint decode failed: %s", why.c_str());
    return out;
}

std::string
CheckpointStore::encodeProfile(const FuncProfile &profile)
{
    std::string out;
    putLine(out, ProfileTag);
    putLine(out, "insts", profile.totalInsts);
    putLine(out, "memdigest", profile.memDigest);
    return out;
}

bool
CheckpointStore::decodeProfile(const std::string &text,
                               FuncProfile *out, std::string *why)
{
    LineReader in(text);
    FuncProfile p;
    if (!in.expectLine(ProfileTag) || !in.next("insts", p.totalInsts) ||
        !in.next("memdigest", p.memDigest) || !in.finish())
        return failWith(why, in.error());
    *out = p;
    return true;
}

CheckpointStore::CheckpointStore(std::string dir)
    : files_(std::move(dir), "checkpoint store")
{
}

namespace
{

/**
 * Whether @p ckpt can resume @p prog toward a window at @p start_inst;
 * on false, @p why names the first offending core. The integrity
 * digest only proves a file is the one written, so a file resealed
 * with bad contents must still fail here rather than kill the window:
 * every core's snapshot must be of this program, at a 4-aligned pc
 * inside text (a core that already exited never fetches again, so
 * its pc only needs the alignment), with the aggregate executed count
 * no later than the window start.
 */
bool
resumable(const SampleCheckpoint &ckpt, const Program &prog,
          std::uint64_t start_inst, std::string *why)
{
    const std::uint64_t digest = programDigest(prog);
    std::vector<const EmuCheckpoint *> cores = {ckpt.emu.get()};
    for (const auto &extra : ckpt.extraEmus)
        cores.push_back(extra.get());
    std::uint64_t executed = 0;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const EmuCheckpoint &emu = *cores[c];
        if (emu.progDigest != digest) {
            *why = strprintf("core %zu snapshots another program", c);
            return false;
        }
        const Addr pc = emu.state.pc;
        if ((pc & 3) != 0 || (!emu.done && !prog.inText(pc))) {
            *why = strprintf("core %zu pc 0x%llx is not a text "
                             "address", c,
                             static_cast<unsigned long long>(pc));
            return false;
        }
        if (emu.instCount > start_inst - executed) {
            *why = strprintf("snapshots more than the %llu "
                             "instructions before the window",
                             static_cast<unsigned long long>(
                                 start_inst));
            return false;
        }
        executed += emu.instCount;
    }
    return true;
}

} // namespace

SampleCheckpoint
CheckpointStore::lookup(const Workload &workload,
                        std::uint64_t start_inst,
                        const MemHierarchy::Params &mem_params,
                        const BranchPredParams &bp_params,
                        unsigned num_cores) const
{
    const std::uint64_t key = checkpointKey(
        workload, start_inst,
        warmConfigDigest(mem_params, bp_params, num_cores));
    SampleCheckpoint ckpt;
    if (!files_.load(key, CheckpointExt,
                     [&](const std::string &text, std::string *why) {
                         return decode(text, mem_params, bp_params,
                                       &ckpt, num_cores, why) &&
                                resumable(ckpt,
                                          assembleWorkload(workload),
                                          start_inst, why);
                     }))
        return {};
    return ckpt;
}

SampleCheckpoint
CheckpointStore::store(const Workload &workload,
                       std::uint64_t start_inst, EmuCheckpoint emu,
                       const WarmState &warm) const
{
    SampleCheckpoint ckpt;
    ckpt.emu =
        std::make_shared<const EmuCheckpoint>(std::move(emu));
    ckpt.warm = std::make_shared<const WarmState>(warm);
    return persist(workload, start_inst,
                   warmConfigDigest(warm.memParams(), warm.bpParams(), 1),
                   std::move(ckpt));
}

SampleCheckpoint
CheckpointStore::storeMulti(const Workload &workload,
                            std::uint64_t start_inst,
                            std::vector<EmuCheckpoint> emus,
                            const SysWarmState &warm) const
{
    if (emus.size() != warm.numCores())
        fatal("checkpoint store: %u-core warm state given %zu "
              "functional snapshots",
              warm.numCores(), emus.size());
    SampleCheckpoint ckpt;
    ckpt.emu =
        std::make_shared<const EmuCheckpoint>(std::move(emus[0]));
    for (std::size_t i = 1; i < emus.size(); ++i)
        ckpt.extraEmus.push_back(
            std::make_shared<const EmuCheckpoint>(
                std::move(emus[i])));
    ckpt.sysWarm = std::make_shared<const SysWarmState>(warm);
    return persist(workload, start_inst,
                   warmConfigDigest(warm.memParams(), warm.bpParams(),
                                    warm.numCores()),
                   std::move(ckpt));
}

SampleCheckpoint
CheckpointStore::persist(const Workload &workload,
                         std::uint64_t start_inst,
                         std::uint64_t warm_digest,
                         SampleCheckpoint ckpt) const
{
    if (files_.enabled())
        files_.store(checkpointKey(workload, start_inst, warm_digest),
                     CheckpointExt, encode(ckpt));
    return ckpt;
}

bool
CheckpointStore::lookupProfile(std::uint64_t key,
                               FuncProfile *out) const
{
    return files_.load(key, ProfileExt,
                       [out](const std::string &text, std::string *why) {
                           return decodeProfile(text, out, why);
                       });
}

void
CheckpointStore::storeProfile(std::uint64_t key,
                              const FuncProfile &profile) const
{
    if (files_.enabled())
        files_.store(key, ProfileExt, encodeProfile(profile));
}

// ---- CheckpointFeed --------------------------------------------------

namespace
{

std::function<void(const SampleCheckpoint &)> &
checkpointObserver()
{
    static std::function<void(const SampleCheckpoint &)> observer;
    return observer;
}

} // namespace

void
setCheckpointObserver(
    std::function<void(const SampleCheckpoint &)> observer)
{
    checkpointObserver() = std::move(observer);
}

/** The forward warming pass: the workload's emulators and the warm
 *  state of the feed's core count, at the last captured position. */
struct CheckpointFeed::Pass {
    Pass(const Workload &workload, const CoreParams &params)
        : emus(workload, params.sys.numCores)
    {
        if (params.sys.numCores == 1)
            warm = std::make_unique<WarmState>(params.mem, params.bpred);
        else
            sysWarm = std::make_unique<SysWarmState>(
                params.mem, params.bpred, params.sys.numCores);
    }

    SpmdEmulators emus;
    std::unique_ptr<WarmState> warm;        //!< one core
    std::unique_ptr<SysWarmState> sysWarm;  //!< more cores
};

CheckpointFeed::CheckpointFeed(const Workload &workload,
                               const CoreParams &params,
                               const std::vector<PlannedInterval> &windows,
                               CheckpointStore store)
    : workload_(workload), params_(params), store_(std::move(store))
{
    for (const PlannedInterval &p : windows)
        starts_.push_back(p.window.startInst);
    std::ranges::sort(starts_);
    starts_.erase(std::unique(starts_.begin(), starts_.end()),
                  starts_.end());
    pending_.assign(starts_.size(), 0);
    held_.resize(starts_.size());
}

CheckpointFeed::~CheckpointFeed() = default;

std::size_t
CheckpointFeed::position(const IntervalWindow &window) const
{
    const auto it = std::ranges::lower_bound(starts_, window.startInst);
    return it != starts_.end() && *it == window.startInst
               ? static_cast<std::size_t>(it - starts_.begin())
               : starts_.size();
}

void
CheckpointFeed::expect(const IntervalWindow &window)
{
    const std::size_t i = position(window);
    std::lock_guard<std::mutex> lock(mu_);
    if (i < starts_.size())
        ++pending_[i];
}

SampleCheckpoint
CheckpointFeed::take(const IntervalWindow &window)
{
    const std::size_t i = position(window);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (i >= starts_.size() || pending_[i] == 0)
            return {};
        if (i < resolved_)
            return handOut(i);
    }
    // Resolve in ascending order up to i: the warming pass only moves
    // forward. Another worker may get there first.
    std::lock_guard<std::mutex> order(passMu_);
    for (;;) {
        std::size_t next = 0;
        bool wanted = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (i < resolved_)
                return handOut(i);
            next = resolved_;
            wanted = pending_[next] > 0;
        }
        SampleCheckpoint ckpt = wanted ? resolve(next) : SampleCheckpoint{};
        std::lock_guard<std::mutex> lock(mu_);
        held_[next] = std::move(ckpt);
        ++resolved_;
        // No announced position ahead: the pass has done its work.
        if (std::all_of(pending_.begin() + resolved_, pending_.end(),
                        [](unsigned n) { return n == 0; }))
            pass_.reset();
    }
}

SampleCheckpoint
CheckpointFeed::handOut(std::size_t i)
{
    SampleCheckpoint ckpt = held_[i];
    if (--pending_[i] == 0)
        held_[i] = {};
    return ckpt;
}

SampleCheckpoint
CheckpointFeed::resolve(std::size_t i)
{
    const std::uint64_t start = starts_[i];
    const unsigned cores = params_.sys.numCores;
    SampleCheckpoint ckpt = store_.lookup(workload_, start, params_.mem,
                                          params_.bpred, cores);
    if (!ckpt.usable()) {
        if (!pass_)
            pass_ = std::make_unique<Pass>(workload_, params_);
        SpmdEmulators &emus = pass_->emus;
        const std::uint64_t before = emus.instCount();
        obs::PhaseSpan phase("sample.capture");
        if (cores == 1) {
            Emulator &emu = *emus.cores()[0];
            warmStep(emu, *pass_->warm, start);
            ckpt = store_.store(workload_, start, emu.checkpoint(),
                                *pass_->warm);
        } else {
            // One interleaved warming pass drives every emulator
            // stream through the shared stack and the warming-mode
            // MESI bus; each position snapshots all N functional
            // states plus the system warm state.
            warmStepMulti(emus.cores(), *pass_->sysWarm, start);
            std::vector<EmuCheckpoint> snaps;
            snaps.reserve(cores);
            for (const Emulator *emu : emus.cores())
                snaps.push_back(emu->checkpoint());
            ckpt = store_.storeMulti(workload_, start, std::move(snaps),
                                     *pass_->sysWarm);
        }
        phase.setInsts(emus.instCount() - before);
    }
    if (checkpointObserver())
        checkpointObserver()(ckpt);
    return ckpt;
}

} // namespace reno::sample
