/**
 * @file
 * The integration table (IT) that drives RENO_CSE and RENO_RA (paper
 * sections 2.2 and 2.4).
 *
 * Each entry is a dataflow tuple
 *     <opcode/imm, [p_in1:d_in1], [p_in2:d_in2] -> [p_out:d_out]>
 * describing one physical register in terms of the instruction that
 * created its value. Displacements are attached to every register name
 * to accommodate RENO_CF.
 *
 *  - Forward entries are created by executed loads and (in the "full
 *    integration" configuration) ALU operations; a later instruction
 *    with the same signature is redundant and shares p_out.
 *  - Reverse entries are created by stores: the store creates the
 *    entry its matching *load* will look up, with the store's data
 *    register in the output position (speculative memory bypassing).
 *    Stack-pointer style register-immediate additions create reverse
 *    entries for the inverse addition in full-integration mode.
 *
 * The table is set-associative and hash-indexed (not associatively
 * searched). Entries referencing a freed physical register are
 * invalidated, which keeps ALU integration non-speculative; load
 * integration remains speculative with respect to intervening stores
 * and is verified by retirement re-execution.
 *
 * Lifetime: each entry holds one reference (paper section 3.1) on its
 * *output* physical register, so integrable values survive past
 * architectural overwrite and retirement ("RENO collapsing works
 * outside the instruction window and persists when an instruction has
 * retired", section 4.5). Input registers are not reference-held;
 * when an input register is freed the entry is invalidated instead,
 * which also protects against physical-register-name reuse. When the
 * free pool empties, the renamer reclaims the least-recently-used
 * entry whose output register is pinned only by the table.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/opcodes.hpp"
#include "reno/map_table.hpp"
#include "reno/physregs.hpp"

namespace reno
{

/** Index of an IT slot, used for targeted invalidation. */
using ItSlot = std::uint32_t;
constexpr ItSlot InvalidItSlot = ~ItSlot{0};

/** One integration-table tuple. */
struct ItEntry {
    bool valid = false;
    bool reverse = false;     //!< created by a store / inverse addi
    Opcode op = Opcode::NumOpcodes;
    std::int32_t imm = 0;
    MapEntry in1;
    MapEntry in2;
    MapEntry out;
    std::uint64_t lruStamp = 0;
};

/** Configuration of the IT. */
struct ItParams {
    unsigned entries = 512;
    unsigned assoc = 2;
};

/** The integration table. */
class IntegrationTable
{
  public:
    explicit IntegrationTable(const ItParams &params = {});

    /**
     * Attach the physical register file whose reference counts this
     * table participates in, sizing the per-register bookkeeping to
     * it. Must be called before any insert().
     */
    void attachRegFile(PhysRegFile *prf);

    /**
     * Look up a tuple matching (@p op, @p imm, @p in1, @p in2).
     * Counts one table access. Returns the slot or InvalidItSlot.
     */
    ItSlot lookup(Opcode op, std::int32_t imm, const MapEntry &in1,
                  const MapEntry &in2);

    /** Entry at @p slot (must be valid). */
    const ItEntry &entry(ItSlot slot) const;

    /** Does @p slot hold a valid tuple? */
    bool valid(ItSlot slot) const { return slots_.at(slot).valid; }

    /**
     * Insert a tuple, evicting LRU within the set. Counts one table
     * access. Returns the slot written.
     */
    ItSlot insert(const ItEntry &tuple);

    /** Invalidate one slot (no-op if already invalid). */
    void invalidateSlot(ItSlot slot);

    /** Invalidate every entry that names @p preg as an *input*
     *  (called when a register is freed). */
    void invalidatePreg(PhysReg preg);

    /**
     * Free-pool pressure relief: invalidate the least-recently-used
     * entry whose output register is held only by this table, freeing
     * that register. Returns true if a register was freed.
     *
     * A failed search is remembered until some register reference
     * drops (PhysRegFile::decRefs): a register becomes reclaimable
     * only when a reference other than a pin goes away, since
     * insert() adds a pin and a reference together. The renamer
     * retries every cycle it is stalled on registers, so the memo
     * spares it a table scan per stalled cycle.
     */
    bool reclaimLru();

    /** Drop everything, releasing held references. */
    void reset();

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t insertions() const { return insertions_; }
    std::uint64_t invalidations() const { return invalidations_; }

    unsigned numEntries() const { return params_.entries; }

  private:
    unsigned setIndex(Opcode op, std::int32_t imm, const MapEntry &in1,
                      const MapEntry &in2) const;

    /** Register @p slot in the per-preg back-pointer lists. */
    void trackPregs(ItSlot slot, const ItEntry &tuple);

    /** Mark @p slot invalid and release its output reference. */
    void release(ItSlot slot);

    ItParams params_;
    PhysRegFile *prf_ = nullptr;
    unsigned numSets_;
    std::vector<ItEntry> slots_;
    std::uint64_t lruClock_ = 0;

    /** preg -> slots that may reference it (lazily cleaned). */
    std::vector<std::vector<ItSlot>> pregSlots_;
    /** preg -> the valid entries whose output it is ("output pins"),
     *  each holding one of its references. Kept while a file is
     *  attached. */
    std::vector<std::vector<ItSlot>> outPins_;
    /** decRefs() generation of the last failed reclaim search. */
    std::uint64_t reclaimFailedAt_ = ~std::uint64_t{0};

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace reno
