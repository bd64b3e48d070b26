#include "sample/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"

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
// System runs its own emulator), then the warm half. On one core the
// warm half is the single-core WarmState layout, byte-stable across
// versions; on N > 1 cores it is the SysWarmState layout -- the MESI
// directory ("bus" + sorted "busln" lines), the shared stack
// ("sharedlevels" + cache blocks) and one "corewarm" block per core
// (lastblk, private L1s, full predictor state).
constexpr const char *CheckpointTag = "reno-checkpoint v5";
constexpr const char *ProfileTag = "reno-funcprofile v1";

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
hexDecode(const std::string &text, std::vector<std::uint8_t> *out)
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
keyValue(const std::string &line, const std::string &key,
         std::string *value)
{
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || line.compare(0, space, key) != 0)
        return false;
    *value = line.substr(space + 1);
    return true;
}

bool
keyU64(const std::string &line, const std::string &key,
       std::uint64_t *value)
{
    std::string v;
    if (!keyValue(line, key, &v))
        return false;
    try {
        *value = std::stoull(v);
    } catch (...) {
        return false;
    }
    return true;
}

void
encodeCacheState(std::string &out, const std::string &name,
                 const CacheState &state)
{
    out += strprintf("cache %s %llu %zu %zu\n", name.c_str(),
                     static_cast<unsigned long long>(state.lruClock),
                     state.validLines.size(),
                     state.prefetch.entries.size());
    for (const CacheState::Line &l : state.validLines)
        out += strprintf("line %u %llu %llu %d %d\n", l.index,
                         static_cast<unsigned long long>(l.tag),
                         static_cast<unsigned long long>(l.lruStamp),
                         l.dirty ? 1 : 0, l.prefetched ? 1 : 0);
    for (const PrefetchState::Entry &e : state.prefetch.entries)
        out += strprintf("pfent %u %llu %llu %lld %u\n", e.index,
                         static_cast<unsigned long long>(e.regionTag),
                         static_cast<unsigned long long>(e.lastBlock),
                         static_cast<long long>(e.stride),
                         e.confidence);
}

bool
decodeCacheState(std::istream &in, std::string &line,
                 const std::string &expected_name, CacheState *out)
{
    if (!std::getline(in, line))
        return false;
    std::istringstream hdr(line);
    std::string key, name;
    std::size_t count = 0, pf_count = 0;
    if (!(hdr >> key >> name >> out->lruClock >> count >> pf_count) ||
        key != "cache" || name != expected_name)
        return false;
    out->validLines.clear();
    out->validLines.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (!std::getline(in, line))
            return false;
        std::istringstream ls(line);
        CacheState::Line l;
        int dirty = 0, prefetched = 0;
        if (!(ls >> key >> l.index >> l.tag >> l.lruStamp >> dirty >>
              prefetched) ||
            key != "line")
            return false;
        l.dirty = dirty != 0;
        l.prefetched = prefetched != 0;
        out->validLines.push_back(l);
    }
    out->prefetch.entries.clear();
    out->prefetch.entries.reserve(pf_count);
    for (std::size_t i = 0; i < pf_count; ++i) {
        if (!std::getline(in, line))
            return false;
        std::istringstream es(line);
        PrefetchState::Entry e;
        long long stride = 0;
        if (!(es >> key >> e.index >> e.regionTag >> e.lastBlock >>
              stride >> e.confidence) ||
            key != "pfent")
            return false;
        e.stride = stride;
        out->prefetch.entries.push_back(e);
    }
    return true;
}

/** One core's functional half ("core i" header + snapshot). */
void
encodeEmuHalf(std::string &out, unsigned core,
              const EmuCheckpoint &emu)
{
    out += strprintf("core %u\n", core);
    out += strprintf("prog %llu\n",
                     static_cast<unsigned long long>(emu.progDigest));
    out += strprintf("inst %llu\n",
                     static_cast<unsigned long long>(emu.instCount));
    out += strprintf("exit %llu\n",
                     static_cast<unsigned long long>(emu.exitCode));
    out += strprintf("rand %llu\n",
                     static_cast<unsigned long long>(emu.randState));
    out += strprintf("done %d\n", emu.done ? 1 : 0);
    out += strprintf("pc %llu\n",
                     static_cast<unsigned long long>(emu.state.pc));
    out += "regs";
    for (unsigned r = 0; r < NumLogRegs; ++r)
        out += strprintf(" %llu",
                         static_cast<unsigned long long>(
                             emu.state.regs[r]));
    out += '\n';
    out += strprintf("output %s\n",
                     hexEncode(reinterpret_cast<const std::uint8_t *>(
                                   emu.output.data()),
                               emu.output.size())
                         .c_str());
    out += strprintf("pages %zu\n", emu.mem.pages().size());
    for (const auto &[page_num, page] : emu.mem.pages())
        out += strprintf("page %llu %s\n",
                         static_cast<unsigned long long>(page_num),
                         hexEncode(page.data(), page.size()).c_str());
}

bool
decodeEmuHalf(std::istream &in, std::string &line, unsigned core,
              EmuCheckpoint *emu)
{
    auto next_u64 = [&in, &line](const char *key, std::uint64_t *v) {
        return std::getline(in, line) && keyU64(line, key, v);
    };
    std::uint64_t hdr_core = 0;
    if (!next_u64("core", &hdr_core) || hdr_core != core)
        return false;
    std::uint64_t done = 0;
    if (!next_u64("prog", &emu->progDigest) ||
        !next_u64("inst", &emu->instCount) ||
        !next_u64("exit", &emu->exitCode) ||
        !next_u64("rand", &emu->randState) ||
        !next_u64("done", &done))
        return false;
    emu->done = done != 0;
    if (!next_u64("pc", &emu->state.pc))
        return false;

    if (!std::getline(in, line) || line.rfind("regs", 0) != 0)
        return false;
    {
        std::istringstream regs(line.substr(4));
        for (unsigned r = 0; r < NumLogRegs; ++r) {
            if (!(regs >> emu->state.regs[r]))
                return false;
        }
    }

    std::string hex;
    std::vector<std::uint8_t> bytes;
    if (!std::getline(in, line) || !keyValue(line, "output", &hex) ||
        !hexDecode(hex, &bytes))
        return false;
    emu->output.assign(bytes.begin(), bytes.end());

    std::uint64_t npages = 0;
    if (!next_u64("pages", &npages))
        return false;
    for (std::uint64_t p = 0; p < npages; ++p) {
        if (!std::getline(in, line) || line.rfind("page ", 0) != 0)
            return false;
        const std::size_t space = line.find(' ', 5);
        if (space == std::string::npos)
            return false;
        std::uint64_t page_num = 0;
        try {
            page_num = std::stoull(line.substr(5, space - 5));
        } catch (...) {
            return false;
        }
        if (!hexDecode(line.substr(space + 1), &bytes) ||
            bytes.size() != SparseMemory::PageSize)
            return false;
        emu->mem.load(page_num << SparseMemory::PageBits, bytes.data(),
                      bytes.size());
    }
    return true;
}

/** The composable-predictor state block (direction tables, BTB, RAS,
 *  indirect-target table) -- one per warm state, shared between the
 *  single-core warm half and each multi-core "corewarm" block. */
void
encodeBpredState(std::string &out, const BranchPredState &bp)
{
    out += strprintf("bpdir %llu %zu\n",
                     static_cast<unsigned long long>(bp.dir.history),
                     bp.dir.tables.size());
    for (const std::vector<std::uint64_t> &table : bp.dir.tables) {
        out += strprintf("dtab %zu", table.size());
        // Signed rendering: two's-complement words (perceptron
        // weights) print as small negative numbers, not 20-digit
        // wrap-arounds.
        for (const std::uint64_t v : table)
            out += strprintf(" %lld",
                             static_cast<long long>(v));
        out += '\n';
    }
    out += strprintf("btb %zu %llu\n", bp.btb.entries.size(),
                     static_cast<unsigned long long>(
                         bp.btb.lruClock));
    for (const BtbState::Entry &e : bp.btb.entries)
        out += strprintf("btbent %u %llu %llu %llu\n", e.index,
                         static_cast<unsigned long long>(e.tag),
                         static_cast<unsigned long long>(e.target),
                         static_cast<unsigned long long>(e.lruStamp));
    out += strprintf("ras %zu %u", bp.ras.stack.size(), bp.ras.top);
    for (const Addr a : bp.ras.stack)
        out += strprintf(" %llu", static_cast<unsigned long long>(a));
    out += '\n';
    out += strprintf("itt %zu %llu\n", bp.indirect.entries.size(),
                     static_cast<unsigned long long>(
                         bp.indirect.history));
    for (const IndirectState::Entry &e : bp.indirect.entries)
        out += strprintf("ittent %u %llu %llu\n", e.index,
                         static_cast<unsigned long long>(e.tag),
                         static_cast<unsigned long long>(e.target));
}

bool
decodeBpredState(std::istream &in, std::string &line,
                 BranchPredState *out)
{
    BranchPredState &bp = *out;
    {
        std::size_t ntables = 0;
        if (!std::getline(in, line))
            return false;
        std::istringstream hdr(line);
        std::string key;
        if (!(hdr >> key >> bp.dir.history >> ntables) ||
            key != "bpdir")
            return false;
        bp.dir.tables.resize(ntables);
        for (std::size_t t = 0; t < ntables; ++t) {
            if (!std::getline(in, line))
                return false;
            std::istringstream ts(line);
            std::size_t len = 0;
            std::string key2;
            if (!(ts >> key2 >> len) || key2 != "dtab")
                return false;
            bp.dir.tables[t].resize(len);
            for (std::size_t i = 0; i < len; ++i) {
                long long v = 0;
                if (!(ts >> v))
                    return false;
                bp.dir.tables[t][i] = static_cast<std::uint64_t>(v);
            }
        }
    }
    {
        std::size_t nbtb = 0;
        if (!std::getline(in, line))
            return false;
        std::istringstream hdr(line);
        std::string key;
        if (!(hdr >> key >> nbtb >> bp.btb.lruClock) || key != "btb")
            return false;
        for (std::size_t i = 0; i < nbtb; ++i) {
            if (!std::getline(in, line))
                return false;
            std::istringstream es(line);
            BtbState::Entry e;
            if (!(es >> key >> e.index >> e.tag >> e.target >>
                  e.lruStamp) ||
                key != "btbent")
                return false;
            bp.btb.entries.push_back(e);
        }
    }
    if (!std::getline(in, line) || line.rfind("ras ", 0) != 0)
        return false;
    {
        std::istringstream rs(line.substr(4));
        std::size_t n = 0;
        if (!(rs >> n >> bp.ras.top))
            return false;
        bp.ras.stack.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (!(rs >> bp.ras.stack[i]))
                return false;
        }
    }
    {
        std::size_t nitt = 0;
        if (!std::getline(in, line))
            return false;
        std::istringstream hdr(line);
        std::string key;
        if (!(hdr >> key >> nitt >> bp.indirect.history) ||
            key != "itt")
            return false;
        for (std::size_t i = 0; i < nitt; ++i) {
            if (!std::getline(in, line))
                return false;
            std::istringstream es(line);
            IndirectState::Entry e;
            if (!(es >> key >> e.index >> e.tag >> e.target) ||
                key != "ittent")
                return false;
            bp.indirect.entries.push_back(e);
        }
    }
    return true;
}

/** Multi-core warm half: MESI directory, shared stack, then one
 *  "corewarm" block (lastblk + L1s + predictor) per core. */
void
encodeSysWarmHalf(std::string &out, const SysWarmState &warm)
{
    out += strprintf("warmcfg %llu\n",
                     static_cast<unsigned long long>(warmConfigDigest(
                         warm.memParams(), warm.bpParams(),
                         warm.numCores())));
    const CoherenceBusState bus = warm.bus().exportState();
    out += strprintf("bus %zu %llu %llu %llu %llu\n",
                     bus.lines.size(),
                     static_cast<unsigned long long>(
                         bus.invalidations),
                     static_cast<unsigned long long>(
                         bus.interventions),
                     static_cast<unsigned long long>(
                         bus.upgradeMisses),
                     static_cast<unsigned long long>(bus.writebacks));
    for (const CoherenceBusState::Line &l : bus.lines)
        out += strprintf("busln %llu %u %d %d\n",
                         static_cast<unsigned long long>(l.line),
                         l.sharers, l.owner, l.modified ? 1 : 0);
    out += strprintf("sharedlevels %zu\n", warm.numSharedLevels());
    for (std::size_t i = 0; i < warm.numSharedLevels(); ++i)
        encodeCacheState(out, warm.sharedLevel(i).name(),
                         warm.sharedLevel(i).exportState());
    for (unsigned c = 0; c < warm.numCores(); ++c) {
        out += strprintf("corewarm %u\n", c);
        out += strprintf("lastblk %llu\n",
                         static_cast<unsigned long long>(
                             warm.lastFetchBlock(c)));
        const MemHierarchy::State mem_state =
            warm.coreMem(c).exportState();
        const std::vector<const Cache *> levels =
            warm.coreMem(c).levels();
        out += strprintf("levels %zu\n", mem_state.caches.size());
        for (std::size_t i = 0; i < mem_state.caches.size(); ++i)
            encodeCacheState(out, levels[i]->name(),
                             mem_state.caches[i]);
        encodeBpredState(out, warm.coreBp(c).exportState());
    }
}

bool
decodeSysWarmHalf(std::istream &in, std::string &line,
                  const MemHierarchy::Params &mem_params,
                  const BranchPredParams &bp_params,
                  unsigned num_cores,
                  std::shared_ptr<SysWarmState> *out,
                  std::string *why)
{
    const auto fail = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };
    auto next_u64 = [&in, &line](const char *key, std::uint64_t *v) {
        return std::getline(in, line) && keyU64(line, key, v);
    };

    auto warm = std::make_shared<SysWarmState>(mem_params, bp_params,
                                               num_cores);

    std::uint64_t warmcfg = 0;
    if (!next_u64("warmcfg", &warmcfg) ||
        warmcfg != warmConfigDigest(mem_params, bp_params, num_cores))
        return fail("warm-config digest does not match the target "
                    "models");

    CoherenceBusState bus;
    {
        if (!std::getline(in, line))
            return fail("truncated warm half (no bus block)");
        std::istringstream hdr(line);
        std::string key;
        std::size_t nlines = 0;
        if (!(hdr >> key >> nlines >> bus.invalidations >>
              bus.interventions >> bus.upgradeMisses >>
              bus.writebacks) ||
            key != "bus")
            return fail("corrupt MESI bus header");
        bus.lines.reserve(nlines);
        for (std::size_t i = 0; i < nlines; ++i) {
            if (!std::getline(in, line))
                return fail("truncated MESI directory");
            std::istringstream ls(line);
            CoherenceBusState::Line l;
            int modified = 0;
            if (!(ls >> key >> l.line >> l.sharers >> l.owner >>
                  modified) ||
                key != "busln")
                return fail("corrupt MESI directory line");
            l.modified = modified != 0;
            bus.lines.push_back(l);
        }
    }
    if (!warm->bus().importState(bus))
        return fail(strprintf("MESI directory does not fit a %u-core "
                              "bus", num_cores));

    std::uint64_t nshared = 0;
    if (!next_u64("sharedlevels", &nshared) ||
        nshared != warm->numSharedLevels())
        return fail("shared-stack depth does not match the target "
                    "geometry");
    for (std::size_t i = 0; i < nshared; ++i) {
        CacheState state;
        if (!decodeCacheState(in, line, warm->sharedLevel(i).name(),
                              &state) ||
            !warm->sharedLevel(i).importState(state))
            return fail(strprintf("corrupt shared-level block "
                                  "('%s')",
                                  warm->sharedLevel(i).name()
                                      .c_str()));
    }

    for (unsigned c = 0; c < num_cores; ++c) {
        std::uint64_t hdr_core = 0;
        if (!next_u64("corewarm", &hdr_core) || hdr_core != c)
            return fail(strprintf("corrupt per-core warm block "
                                  "(core %u)", c));
        std::uint64_t lastblk = 0;
        if (!next_u64("lastblk", &lastblk))
            return fail(strprintf("corrupt per-core warm block "
                                  "(core %u)", c));
        warm->lastFetchBlock(c) = lastblk;
        std::uint64_t nlevels = 0;
        MemHierarchy::State mem_state;
        const std::vector<const Cache *> levels =
            warm->coreMem(c).levels();
        if (!next_u64("levels", &nlevels) ||
            nlevels != levels.size())
            return fail(strprintf("corrupt per-core warm block "
                                  "(core %u)", c));
        mem_state.caches.resize(nlevels);
        for (std::size_t i = 0; i < nlevels; ++i) {
            if (!decodeCacheState(in, line, levels[i]->name(),
                                  &mem_state.caches[i]))
                return fail(strprintf("corrupt per-core warm block "
                                      "(core %u, '%s')", c,
                                      levels[i]->name().c_str()));
        }
        if (!warm->coreMem(c).importState(mem_state))
            return fail(strprintf("per-core L1 state does not fit "
                                  "(core %u)", c));
        BranchPredState bp;
        if (!decodeBpredState(in, line, &bp) ||
            !warm->coreBp(c).importState(bp))
            return fail(strprintf("corrupt per-core predictor block "
                                  "(core %u)", c));
    }
    *out = std::move(warm);
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

    std::string out = CheckpointTag;
    out += '\n';

    // --- functional half, one block per core --------------------------
    out += strprintf("cores %u\n", ckpt.numCores());
    encodeEmuHalf(out, 0, *ckpt.emu);
    for (std::size_t i = 0; i < ckpt.extraEmus.size(); ++i)
        encodeEmuHalf(out, static_cast<unsigned>(i + 1),
                      *ckpt.extraEmus[i]);

    // --- warm half ----------------------------------------------------
    if (ckpt.sysWarm) {
        encodeSysWarmHalf(out, *ckpt.sysWarm);
    } else {
        const WarmState &warm = *ckpt.warm;
        out += strprintf("warmcfg %llu\n",
                         static_cast<unsigned long long>(
                             warmConfigDigest(warm.memParams(),
                                              warm.bpParams(),
                                              ckpt.numCores())));
        out += strprintf("lastblk %llu\n",
                         static_cast<unsigned long long>(
                             warm.lastFetchBlock));
        const MemHierarchy::State mem_state = warm.mem.exportState();
        const std::vector<const Cache *> levels = warm.mem.levels();
        out += strprintf("levels %zu\n", mem_state.caches.size());
        for (std::size_t i = 0; i < mem_state.caches.size(); ++i)
            encodeCacheState(out, levels[i]->name(),
                             mem_state.caches[i]);
        encodeBpredState(out, warm.bp.exportState());
    }

    // Integrity digest over everything above.
    Fnv64 h;
    h.update(out);
    out += strprintf("digest %llu\n",
                     static_cast<unsigned long long>(h.value()));
    return out;
}

bool
CheckpointStore::decode(const std::string &text,
                        const MemHierarchy::Params &mem_params,
                        const BranchPredParams &bp_params,
                        SampleCheckpoint *out,
                        unsigned expected_cores, std::string *why)
{
    const auto fail = [why](const std::string &reason) {
        if (why)
            *why = reason;
        return false;
    };

    // Verify the trailing integrity digest first.
    const std::size_t digest_pos = text.rfind("digest ");
    if (digest_pos == std::string::npos)
        return fail("no integrity digest (truncated file?)");
    {
        std::uint64_t stored = 0;
        const std::string digest_line =
            text.substr(digest_pos,
                        text.find('\n', digest_pos) - digest_pos);
        if (!keyU64(digest_line, "digest", &stored))
            return fail("malformed integrity digest");
        Fnv64 h;
        h.update(text.substr(0, digest_pos));
        if (h.value() != stored)
            return fail("integrity digest mismatch (corrupt or "
                        "spliced file)");
    }

    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != CheckpointTag)
        return fail(strprintf("bad or truncated header (expected "
                              "'%s')", CheckpointTag));

    auto next_u64 = [&in, &line](const char *key, std::uint64_t *v) {
        return std::getline(in, line) && keyU64(line, key, v);
    };

    std::uint64_t num_cores = 0;
    if (!next_u64("cores", &num_cores) || num_cores == 0)
        return fail("missing or zero core count");
    if (num_cores != expected_cores)
        return fail(strprintf("checkpoint snapshots %llu cores, "
                              "expected %u",
                              static_cast<unsigned long long>(
                                  num_cores),
                              expected_cores));

    auto emu = std::make_shared<EmuCheckpoint>();
    if (!decodeEmuHalf(in, line, 0, emu.get()))
        return fail("corrupt functional block (core 0)");
    std::vector<std::shared_ptr<const EmuCheckpoint>> extra;
    for (std::uint64_t c = 1; c < num_cores; ++c) {
        auto e = std::make_shared<EmuCheckpoint>();
        if (!decodeEmuHalf(in, line, static_cast<unsigned>(c),
                           e.get()))
            return fail(strprintf("corrupt functional block "
                                  "(core %llu)",
                                  static_cast<unsigned long long>(c)));
        extra.push_back(std::move(e));
    }

    // Warm half. Multi-core checkpoints carry the SysWarmState
    // layout; single-core ones the historical WarmState layout.
    if (num_cores > 1) {
        std::shared_ptr<SysWarmState> sys_warm;
        if (!decodeSysWarmHalf(in, line, mem_params, bp_params,
                               static_cast<unsigned>(num_cores),
                               &sys_warm, why))
            return false;
        out->emu = std::move(emu);
        out->warm = nullptr;
        out->extraEmus = std::move(extra);
        out->sysWarm = std::move(sys_warm);
        return true;
    }

    // The file's warm-config digest must match the models we are
    // asked to rebuild onto.
    std::uint64_t warmcfg = 0;
    if (!next_u64("warmcfg", &warmcfg) ||
        warmcfg != warmConfigDigest(mem_params, bp_params,
                                    static_cast<unsigned>(num_cores)))
        return fail("warm-config digest does not match the target "
                    "models");
    std::uint64_t lastblk = 0;
    if (!next_u64("lastblk", &lastblk))
        return fail("corrupt warm half (lastblk)");

    // Per-level blocks arrive in State order; each must carry the
    // level name the target hierarchy expects, so a reordered or
    // spliced file fails the decode instead of warming wrong levels.
    std::vector<std::string> level_names = {mem_params.icache.name,
                                            mem_params.dcache.name,
                                            mem_params.l2.name};
    for (const CacheParams &extra_level : mem_params.extraLevels)
        level_names.push_back(extra_level.name);
    std::uint64_t num_levels = 0;
    if (!next_u64("levels", &num_levels) ||
        num_levels != level_names.size())
        return fail("cache-level count does not match the target "
                    "geometry");
    MemHierarchy::State mem_state;
    mem_state.caches.resize(num_levels);
    for (std::uint64_t i = 0; i < num_levels; ++i) {
        if (!decodeCacheState(in, line, level_names[i],
                              &mem_state.caches[i]))
            return fail(strprintf("corrupt cache block ('%s')",
                                  level_names[i].c_str()));
    }

    BranchPredState bp;
    if (!decodeBpredState(in, line, &bp))
        return fail("corrupt predictor block");

    auto warm = std::make_shared<WarmState>(mem_params, bp_params);
    warm->lastFetchBlock = lastblk;
    if (!warm->mem.importState(mem_state) ||
        !warm->bp.importState(bp))
        return fail("warm tables do not fit the target models");

    out->emu = std::move(emu);
    out->warm = std::move(warm);
    out->extraEmus = std::move(extra);
    out->sysWarm = nullptr;
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
    std::string out = ProfileTag;
    out += '\n';
    out += strprintf("insts %llu\n",
                     static_cast<unsigned long long>(
                         profile.totalInsts));
    out += strprintf("memdigest %llu\n",
                     static_cast<unsigned long long>(
                         profile.memDigest));
    return out;
}

bool
CheckpointStore::decodeProfile(const std::string &text,
                               FuncProfile *out)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != ProfileTag)
        return false;
    FuncProfile p;
    if (!std::getline(in, line) ||
        !keyU64(line, "insts", &p.totalInsts))
        return false;
    if (!std::getline(in, line) ||
        !keyU64(line, "memdigest", &p.memDigest))
        return false;
    *out = p;
    return true;
}

CheckpointStore::CheckpointStore(std::string dir)
    : dir_(std::move(dir))
{
}

std::string
CheckpointStore::checkpointPath(std::uint64_t key) const
{
    return dir_ + "/" + digestHex(key) + ".ckpt";
}

std::string
CheckpointStore::profilePath(std::uint64_t key) const
{
    return dir_ + "/" + digestHex(key) + ".prof";
}

namespace
{

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

void
writeFileAtomic(const std::string &dir, const std::string &path,
                const std::string &contents)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("checkpoint store: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
        return;
    }
    // Write-then-rename so a concurrent reader never sees a torn file.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            warn("checkpoint store: cannot write '%s'", tmp.c_str());
            return;
        }
        out << contents;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("checkpoint store: rename to '%s' failed: %s",
             path.c_str(), ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

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
                        unsigned num_cores)
{
    const std::uint64_t key = checkpointKey(
        workload, start_inst,
        warmConfigDigest(mem_params, bp_params, num_cores));
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = mem_.find(key);
        if (it != mem_.end())
            return it->second;
    }
    if (dir_.empty())
        return {};
    std::string text;
    if (!readFile(checkpointPath(key), &text))
        return {};
    SampleCheckpoint ckpt;
    std::string why;
    if (!decode(text, mem_params, bp_params, &ckpt, num_cores,
                &why) ||
        !resumable(ckpt, assembleWorkload(workload), start_inst,
                   &why)) {
        warn("checkpoint store: ignoring malformed entry %s (%s)",
             checkpointPath(key).c_str(), why.c_str());
        return {};
    }
    std::lock_guard<std::mutex> lock(mu_);
    return mem_.emplace(key, std::move(ckpt)).first->second;
}

SampleCheckpoint
CheckpointStore::store(const Workload &workload,
                       std::uint64_t start_inst, EmuCheckpoint emu,
                       const WarmState &warm)
{
    SampleCheckpoint ckpt;
    ckpt.emu =
        std::make_shared<const EmuCheckpoint>(std::move(emu));
    ckpt.warm = std::make_shared<const WarmState>(warm);
    const std::uint64_t key = checkpointKey(
        workload, start_inst,
        warmConfigDigest(warm.memParams(), warm.bpParams(), 1));
    {
        std::lock_guard<std::mutex> lock(mu_);
        mem_[key] = ckpt;
    }
    if (!dir_.empty())
        writeFileAtomic(dir_, checkpointPath(key), encode(ckpt));
    return ckpt;
}

SampleCheckpoint
CheckpointStore::storeMulti(const Workload &workload,
                            std::uint64_t start_inst,
                            std::vector<EmuCheckpoint> emus,
                            const SysWarmState &warm)
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
    const std::uint64_t key = checkpointKey(
        workload, start_inst,
        warmConfigDigest(warm.memParams(), warm.bpParams(),
                         warm.numCores()));
    {
        std::lock_guard<std::mutex> lock(mu_);
        mem_[key] = ckpt;
    }
    if (!dir_.empty())
        writeFileAtomic(dir_, checkpointPath(key), encode(ckpt));
    return ckpt;
}

bool
CheckpointStore::lookupProfile(std::uint64_t key, FuncProfile *out)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = profiles_.find(key);
        if (it != profiles_.end()) {
            *out = it->second;
            return true;
        }
    }
    if (dir_.empty())
        return false;
    std::string text;
    if (!readFile(profilePath(key), &text) ||
        !decodeProfile(text, out))
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    profiles_.emplace(key, *out);
    return true;
}

void
CheckpointStore::storeProfile(std::uint64_t key,
                              const FuncProfile &profile)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        profiles_[key] = profile;
    }
    if (!dir_.empty())
        writeFileAtomic(dir_, profilePath(key),
                        encodeProfile(profile));
}

} // namespace reno::sample
