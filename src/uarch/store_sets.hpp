/**
 * @file
 * Store-set memory dependence predictor (Chrysos & Emer), as used by
 * the paper ("loads are scheduled aggressively using a 64-entry store
 * sets predictor"). The SSIT maps instruction pcs to store-set ids;
 * the LFST tracks the last in-flight store of each set. A load whose
 * set has an un-issued older store in flight waits for the oldest
 * such store (IssueStage finds it in program order). The LFST alone
 * cannot name that store: stores issue out of order, and
 * storeInactive clears the entry when the set's youngest store issues
 * while older ones still wait.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace reno
{

/** The store-sets predictor. */
class StoreSets
{
  public:
    StoreSets(unsigned ssit_entries, unsigned num_sets);

    static constexpr unsigned InvalidSet = ~0U;

    /** Store-set id of the instruction at @p pc (InvalidSet if none). */
    unsigned setOf(Addr pc) const;

    /** Called when a store is dispatched: it becomes its set's last
     *  fetched store. Returns its set (InvalidSet if untracked). */
    unsigned storeDispatched(Addr pc, InstSeq seq);

    /** Clear the LFST entry if it still names @p seq (store issued,
     *  retired, or squashed). */
    void storeInactive(unsigned set, InstSeq seq);

    /** Last in-flight store seq of @p set, or 0 if none. */
    InstSeq lastStore(unsigned set) const;
    bool hasLastStore(unsigned set) const;

    /** Train on a memory-order violation between a load and a store. */
    void trainViolation(Addr load_pc, Addr store_pc);

    std::uint64_t violationsTrained() const { return trained_; }

  private:
    unsigned index(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 2) % ssit_.size());
    }

    struct SsitEntry {
        bool valid = false;
        unsigned set = 0;
    };
    struct LfstEntry {
        bool valid = false;
        InstSeq seq = 0;
    };

    std::vector<SsitEntry> ssit_;
    std::vector<LfstEntry> lfst_;
    unsigned nextSet_ = 0;
    std::uint64_t trained_ = 0;
};

} // namespace reno
