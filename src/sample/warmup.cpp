#include "sample/warmup.hpp"

#include <bit>

#include "common/digest.hpp"
#include "common/log.hpp"

namespace reno::sample
{

std::uint64_t
warmConfigDigest(const MemHierarchy::Params &mem_params,
                 const BranchPredParams &bp_params,
                 unsigned num_cores)
{
    Fnv64 h;
    // v5: multi-core warm state spans the coherence directory and
    // per-core L1/bpred slices (SysWarmState), so the digest tag
    // bumps with the checkpoint warm-half layout.
    h.update("reno-warmcfg-v5");
    h.update(std::uint64_t{num_cores});
    const auto field = [&h](std::string_view, const auto &v) {
        h.update(paramValue(v));
    };
    visitMemParams(mem_params, field);
    visitBpredParams(bp_params, field);
    return h.value();
}

std::uint64_t
warmConfigDigest(const CoreParams &params)
{
    return warmConfigDigest(params.mem, params.bpred,
                            params.sys.numCores);
}

WarmState::WarmState(const MemHierarchy::Params &mem_params,
                     const BranchPredParams &bp_params)
    : mem(mem_params), bp(bp_params), memParams_(mem_params),
      bpParams_(bp_params)
{
}

WarmState::WarmState(const WarmState &other)
    : mem(other.memParams_), bp(other.bp),
      lastFetchBlock(other.lastFetchBlock),
      memParams_(other.memParams_), bpParams_(other.bpParams_)
{
    mem.copyStateFrom(other.mem);
}

SysWarmState::SysWarmState(const MemHierarchy::Params &mem_params,
                           const BranchPredParams &bp_params,
                           unsigned num_cores)
    : memParams_(mem_params), bpParams_(bp_params),
      numCores_(num_cores), shared_(mem_params)
{
    if (numCores_ < 1)
        fatal("SysWarmState: core count must be positive");

    // Warming-mode bus: default latencies -- the penalties are
    // discarded, only the directory/tag transitions matter.
    SysParams sys;
    sys.numCores = numCores_;
    bus_ = std::make_unique<CoherenceBus>(
        sys, memParams_.dcache.blockBytes, numCores_);

    coreMem_.reserve(numCores_);
    coreBps_.reserve(numCores_);
    for (unsigned i = 0; i < numCores_; ++i) {
        const MemHierarchy::Attach attach{&shared_, bus_.get(), i};
        coreMem_.push_back(
            std::make_unique<MemHierarchy>(memParams_, &attach));
        coreBps_.emplace_back(bpParams_);
    }
    lastFetchBlock_.assign(numCores_, ~Addr{0});
}

SysWarmState::SysWarmState(const SysWarmState &other)
    : SysWarmState(other.memParams_, other.bpParams_, other.numCores_)
{
    shared_.copyStateFrom(other.shared_);
    if (!bus_->importState(other.bus_->exportState()))
        fatal("SysWarmState clone: bus state does not round-trip");
    for (unsigned i = 0; i < numCores_; ++i) {
        coreMem_[i]->copyStateFrom(*other.coreMem_[i]);
        coreBps_[i] = other.coreBps_[i];
    }
    lastFetchBlock_ = other.lastFetchBlock_;
}

namespace
{

/** Feeds one core's access stream into its warm tables: one I$ access
 *  per fetched block (matching the core's fetch), every data access,
 *  and every control outcome into the predictor -- all at cycle 0. */
class WarmSink final : public AccessSink
{
  public:
    WarmSink(MemHierarchy &mem, BranchPredictor &bp,
             Addr &last_fetch_block, unsigned iblock_bytes)
        : mem_(mem), bp_(bp), lastFetchBlock_(last_fetch_block),
          iblockShift_(static_cast<unsigned>(
              std::countr_zero(iblock_bytes)))
    {
    }

    void
    fetch(Addr pc) override
    {
        // The I$ block size is a power of two (Cache validates it).
        const Addr block = pc >> iblockShift_;
        if (block != lastFetchBlock_) {
            mem_.fetchAccess(pc, 0);
            lastFetchBlock_ = block;
        }
    }

    void
    data(Addr addr, bool write) override
    {
        mem_.dataAccess(addr, 0, write);
    }

    void
    control(Addr pc, const Instruction &inst, bool taken,
            Addr npc) override
    {
        bp_.predict(pc, inst);
        bp_.update(pc, inst, taken, npc);
    }

  private:
    MemHierarchy &mem_;
    BranchPredictor &bp_;
    Addr &lastFetchBlock_;
    unsigned iblockShift_;
};

} // namespace

void
warmStepMulti(const std::vector<Emulator *> &emus, SysWarmState &warm,
              std::uint64_t aggregate_bound)
{
    if (emus.size() != warm.numCores())
        fatal("warmStepMulti: %u-core warm state given %zu emulators",
              warm.numCores(), emus.size());

    std::vector<WarmSink> sinks;
    sinks.reserve(emus.size());
    for (unsigned i = 0; i < emus.size(); ++i)
        sinks.emplace_back(warm.coreMem(i), warm.coreBp(i),
                           warm.lastFetchBlock(i),
                           warm.memParams().icache.blockBytes);

    std::uint64_t total = 0;
    for (const Emulator *emu : emus)
        total += emu->instCount();

    while (total < aggregate_bound) {
        // The live emulator with the fewest executed instructions,
        // ties to the lowest core id: the stateless round-robin rule
        // (see the header comment).
        Emulator *next = nullptr;
        unsigned next_core = 0;
        for (unsigned i = 0; i < emus.size(); ++i) {
            if (emus[i]->done())
                continue;
            if (!next || emus[i]->instCount() < next->instCount()) {
                next = emus[i];
                next_core = i;
            }
        }
        if (!next)
            break;  // every program exited before the bound

        next->runUntil(next->instCount() + 1, sinks[next_core]);
        ++total;
    }
}

void
warmStep(Emulator &emu, WarmState &warm, std::uint64_t inst_bound)
{
    if (emu.instCount() >= inst_bound)
        return;
    WarmSink sink(warm.mem, warm.bp, warm.lastFetchBlock,
                  warm.memParams().icache.blockBytes);
    emu.runUntil(inst_bound, sink);
}

} // namespace reno::sample
