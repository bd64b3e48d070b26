/**
 * @file
 * The RENO renamer (paper sections 2 and 3.2): a register renamer with
 * map-table short-circuiting implementing
 *
 *   RENO_ME  - move elimination,
 *   RENO_CF  - constant folding of register-immediate additions via
 *              the extended [p:d] map table,
 *   RENO_CSE - common-subexpression elimination via the integration
 *              table, and
 *   RENO_RA  - speculative memory bypassing via reverse IT entries.
 *
 * The renamer works purely on physical register *names* plus immediate
 * values; it never reads the register file. Oracle values are consulted
 * only (a) to verify the sharing invariant in tests and (b) to detect
 * load misintegration, which real hardware detects by retirement
 * re-execution (the timing charge for that flush is applied by the
 * core at retirement).
 *
 * Per the paper, two dependent instructions are never eliminated in
 * the same rename group (cycle); the simplification is implemented by
 * the beginGroup()/rename() protocol.
 */
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "isa/inst.hpp"
#include "reno/integration_table.hpp"
#include "reno/map_table.hpp"
#include "reno/physregs.hpp"

namespace reno
{

/** How an instruction was collapsed, if at all. */
enum class ElimKind : std::uint8_t {
    None,  //!< renamed conventionally
    Move,  //!< RENO_ME: move (addi with immediate 0)
    Fold,  //!< RENO_CF: register-immediate addition folded
    Cse,   //!< RENO_CSE: redundant with a forward IT entry
    Ra,    //!< RENO_RA: load bypassed through a reverse IT entry
};

/** Number of ElimKind values; sizes every per-kind stat array so a
 *  new elimination kind cannot silently truncate statistics. */
inline constexpr unsigned NumElimKinds =
    static_cast<unsigned>(ElimKind::Ra) + 1;

/** Which optimizations are enabled, and table geometry. */
struct RenoConfig {
    bool me = false;
    bool cf = false;
    bool cse = false;
    bool ra = false;
    ItParams it{512, 2};
    /**
     * Division of labor (paper section 2.4): when true the IT holds
     * only load tuples (forward entries from loads, reverse entries
     * from stores) and RENO_CF handles ALU operations; when false the
     * IT also integrates ALU operations ("full integration").
     */
    bool itLoadsOnly = true;
    /** Use the exact 16-bit overflow check instead of the paper's
     *  conservative top-two-bit check (ablation). */
    bool exactOverflowCheck = false;

    bool usesIt() const { return cse || ra; }
    bool any() const { return me || cf || cse || ra; }

    // --- presets matching the paper's configurations -----------------
    static RenoConfig baseline() { return {}; }
    static RenoConfig meOnly();
    static RenoConfig meCf();
    /** The paper's default RENO: ME+CF plus loads-only integration. */
    static RenoConfig full();
    /** RENO with a full (ALU + load) integration table. */
    static RenoConfig fullIt();
    /** Register integration alone (no CF): full-table CSE+RA. */
    static RenoConfig integrationOnly();
    /** Loads-only integration without CF. */
    static RenoConfig loadsIntegrationOnly();
};

/** Everything the renamer needs to know about one instruction. */
struct RenameIn {
    Instruction inst;
    std::uint64_t result = 0;  //!< oracle destination value
};

/**
 * A map-table checkpoint (paper section 3.4). The snapshot carries the
 * full extended mappings -- physical register names AND accumulated
 * displacements, which the paper notes have "checkpoint-restoration
 * semantics" (as opposed to the instruction-only immediates in the
 * re-order buffer, which have rollback semantics). While live, the
 * checkpoint holds one reference to every mapped physical register, so
 * none of them can be recycled before the checkpoint dies.
 */
struct MapCheckpoint {
    MapEntry map[NumLogRegs];
    bool live = false;
};

/** A renamed source operand: [p : d]. */
struct SrcOp {
    PhysReg preg = InvalidPhysReg;
    std::int16_t disp = 0;
};

/** The renamer's output for one instruction. */
struct RenameOut {
    SrcOp src[2];
    unsigned numSrcs = 0;
    bool hasDest = false;
    PhysReg destPreg = InvalidPhysReg;  //!< allocated or shared
    std::int16_t destDisp = 0;
    MapEntry prevMap;                   //!< overwritten mapping
    ElimKind elim = ElimKind::None;
    bool misintegrated = false;  //!< load whose shared value is stale
    ItSlot createdSlot = InvalidItSlot;
    ItSlot createdSlot2 = InvalidItSlot;  //!< reverse entry (full mode)

    bool eliminated() const { return elim != ElimKind::None; }
};

/** The RENO renamer. */
class RenoRenamer
{
  public:
    RenoRenamer(const RenoConfig &config, unsigned num_pregs);

    /**
     * Establish the initial architectural mappings: one physical
     * register per logical register, loaded with @p reg_values.
     */
    void initialize(const std::uint64_t reg_values[NumLogRegs]);

    /** Start a new rename group (cycle); resets intra-group state. */
    void beginGroup();

    /**
     * True if a physical register is (or can be made) available,
     * reclaiming an IT-pinned register under free-pool pressure.
     */
    bool ensureFreePreg();

    /**
     * Rename one instruction. The caller must guarantee a free
     * physical register when in.inst.hasDest() (a conservatively
     * eliminable instruction may end up not needing it).
     */
    RenameOut rename(const RenameIn &in);

    /**
     * Undo a rename during squash recovery. Must be called in reverse
     * rename order. Restores the map table, drops the new reference,
     * and invalidates IT entries the instruction created.
     */
    void rollback(const Instruction &inst, const RenameOut &out);

    /** Commit a rename at retirement: releases the overwritten
     *  mapping's reference. */
    void retire(const RenameOut &out);

    // --- map-table checkpointing (paper section 3.4) -------------------

    /**
     * Snapshot the current architectural mappings. Each mapped
     * physical register gains one reference for the checkpoint's
     * lifetime.
     */
    MapCheckpoint takeCheckpoint();

    /**
     * Install @p cp as the architectural map (mis-speculation
     * recovery). The checkpoint's references transfer to the map; the
     * caller must still drop the references held by the squashed
     * in-flight instructions themselves (rollback() without its
     * map-table writes, or per-instruction release). Consumes @p cp.
     */
    void restoreCheckpoint(MapCheckpoint &cp);

    /** Drop a checkpoint without restoring it (the speculation it
     *  guarded committed). Consumes @p cp. */
    void releaseCheckpoint(MapCheckpoint &cp);

    /**
     * Drop the references an in-flight instruction holds, without
     * touching the map table: the checkpoint-recovery counterpart of
     * rollback(). Must be called for every squashed instruction when
     * recovering via restoreCheckpoint().
     */
    void releaseRename(const RenameOut &out);

    const MapTable &mapTable() const { return map_; }
    MapTable &mapTable() { return map_; }
    PhysRegFile &physRegs() { return prf_; }
    const PhysRegFile &physRegs() const { return prf_; }
    IntegrationTable &it() { return it_; }
    const IntegrationTable &it() const { return it_; }
    const RenoConfig &config() const { return config_; }

    // --- statistics ---------------------------------------------------
    std::uint64_t renamed() const { return renamed_; }
    std::uint64_t eliminated(ElimKind kind) const
    {
        return elimCounts_[static_cast<unsigned>(kind)];
    }
    std::uint64_t eliminatedTotal() const;
    std::uint64_t overflowCancels() const { return overflowCancels_; }
    std::uint64_t groupDepCancels() const { return groupDepCancels_; }
    std::uint64_t misintegrations() const { return misintegrations_; }

  private:
    /** Decide whether @p in can be collapsed, and how. */
    RenameOut renameInternal(const RenameIn &in);

    void insertItEntries(const RenameIn &in, RenameOut &out);

    /** Map a store opcode to the load opcode of its reverse entry. */
    static Opcode reverseLoadOp(Opcode store_op);

    /** True iff operands of @p op commute (canonicalized IT keys). */
    static bool commutative(Opcode op);

    RenoConfig config_;
    PhysRegFile prf_;
    MapTable map_;
    IntegrationTable it_;

    /** Intra-group tracking: was this logical register written by an
     *  instruction renamed in the current group, and was that
     *  instruction eliminated? */
    struct GroupWrite {
        bool written = false;
        bool eliminated = false;
    };
    GroupWrite group_[NumLogRegs];

    /** Misintegrated loads renamed but not yet squashed; while
     *  nonzero, younger mappings are transiently stale and the value
     *  invariant is not checked. */
    std::uint64_t pendingMisintegrations_ = 0;

    std::uint64_t renamed_ = 0;
    std::uint64_t elimCounts_[NumElimKinds] = {};
    std::uint64_t overflowCancels_ = 0;
    std::uint64_t groupDepCancels_ = 0;
    std::uint64_t misintegrations_ = 0;
};

} // namespace reno
