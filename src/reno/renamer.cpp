#include "reno/renamer.hpp"

#include "common/log.hpp"

namespace reno
{

RenoConfig
RenoConfig::meOnly()
{
    RenoConfig c;
    c.me = true;
    return c;
}

RenoConfig
RenoConfig::meCf()
{
    RenoConfig c;
    c.me = true;
    c.cf = true;
    return c;
}

RenoConfig
RenoConfig::full()
{
    RenoConfig c;
    c.me = true;
    c.cf = true;
    c.cse = true;
    c.ra = true;
    c.itLoadsOnly = true;
    return c;
}

RenoConfig
RenoConfig::fullIt()
{
    RenoConfig c = full();
    c.itLoadsOnly = false;
    return c;
}

RenoConfig
RenoConfig::integrationOnly()
{
    RenoConfig c;
    c.me = true;
    c.cse = true;
    c.ra = true;
    c.itLoadsOnly = false;
    return c;
}

RenoConfig
RenoConfig::loadsIntegrationOnly()
{
    RenoConfig c;
    c.me = true;
    c.cse = true;
    c.ra = true;
    c.itLoadsOnly = true;
    return c;
}

RenoRenamer::RenoRenamer(const RenoConfig &config, unsigned num_pregs)
    : config_(config), prf_(num_pregs), it_(config.it)
{
    prf_.setOnFree([this](PhysReg p) { it_.invalidatePreg(p); });
    it_.attachRegFile(&prf_);
    beginGroup();
}

bool
RenoRenamer::ensureFreePreg()
{
    if (prf_.hasFree())
        return true;
    // The IT extends register lifetimes past retirement; under pool
    // pressure, reclaim the least-recently-used table-only value.
    if (config_.usesIt() && it_.reclaimLru())
        return prf_.hasFree();
    return false;
}

void
RenoRenamer::initialize(const std::uint64_t reg_values[NumLogRegs])
{
    for (unsigned r = 0; r < NumLogRegs; ++r) {
        const PhysReg p = prf_.alloc();
        prf_.setValue(p, r == RegZero ? 0 : reg_values[r]);
        map_.set(static_cast<LogReg>(r), MapEntry{p, 0});
    }
}

void
RenoRenamer::beginGroup()
{
    for (auto &g : group_)
        g = GroupWrite{};
}

std::uint64_t
RenoRenamer::eliminatedTotal() const
{
    std::uint64_t sum = 0;
    for (unsigned k = 1; k < NumElimKinds; ++k)
        sum += elimCounts_[k];
    return sum;
}

Opcode
RenoRenamer::reverseLoadOp(Opcode store_op)
{
    switch (store_op) {
      case Opcode::STQ: return Opcode::LDQ;
      case Opcode::STL: return Opcode::LDL;
      case Opcode::STB: return Opcode::LDBU;
      default: panic("reverseLoadOp on non-store");
    }
}

bool
RenoRenamer::commutative(Opcode op)
{
    switch (op) {
      case Opcode::ADD:
      case Opcode::MUL:
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::SEQ:
        return true;
      default:
        return false;
    }
}

RenameOut
RenoRenamer::rename(const RenameIn &in)
{
    RenameOut out = renameInternal(in);

    ++renamed_;
    ++elimCounts_[static_cast<unsigned>(out.elim)];

    // Intra-group dependence tracking for the dependent-elimination
    // restriction.
    if (out.hasDest) {
        GroupWrite &g = group_[in.inst.dest()];
        g.written = true;
        g.eliminated = out.eliminated();
    }

    if (out.misintegrated)
        ++pendingMisintegrations_;

    // Oracle invariant: the mapping must describe the value the
    // instruction produces. Skipped while a misintegration flush is
    // pending: instructions younger than a misintegrated load rename
    // through its stale mapping, but all of them are squashed and
    // re-renamed when the flush fires at the load's retirement.
    if (out.hasDest && pendingMisintegrations_ == 0) {
        const std::uint64_t mapped =
            prf_.value(out.destPreg) +
            static_cast<std::uint64_t>(
                static_cast<std::int64_t>(out.destDisp));
        if (mapped != in.result) {
            panic("RENO sharing invariant broken: %s maps to p%u+%d "
                  "= 0x%llx but computes 0x%llx",
                  disassemble(in.inst).c_str(),
                  static_cast<unsigned>(out.destPreg),
                  static_cast<int>(out.destDisp),
                  static_cast<unsigned long long>(mapped),
                  static_cast<unsigned long long>(in.result));
        }
    }
    return out;
}

RenameOut
RenoRenamer::renameInternal(const RenameIn &in)
{
    const Instruction &inst = in.inst;
    RenameOut out;

    // ---- rename sources (map-table lookups, MTI) ---------------------
    out.numSrcs = inst.numSrcs();
    bool depends_on_group_elim = false;
    for (unsigned i = 0; i < out.numSrcs; ++i) {
        const LogReg lr = inst.src(i);
        const MapEntry &me = map_.get(lr);
        out.src[i] = SrcOp{me.preg, me.disp};
        if (group_[lr].written && group_[lr].eliminated)
            depends_on_group_elim = true;
    }

    out.hasDest = inst.hasDest();
    if (out.hasDest)
        out.prevMap = map_.get(inst.dest());

    // ---- elimination decision ----------------------------------------
    // 1. RENO_CF (subsumes RENO_ME when enabled): register-immediate
    //    additions fold into the source's mapping.
    if (inst.isCfCandidate() && !depends_on_group_elim) {
        const MapEntry src_map = map_.get(inst.src(0));
        if (config_.cf) {
            const bool safe = config_.exactOverflowCheck
                ? foldSafeExact(src_map.disp, inst.imm)
                : foldSafeConservative(src_map.disp, inst.imm);
            if (safe) {
                out.elim = inst.isMove() ? ElimKind::Move : ElimKind::Fold;
                out.destPreg = src_map.preg;
                out.destDisp =
                    static_cast<std::int16_t>(src_map.disp + inst.imm);
            } else {
                ++overflowCancels_;
            }
        } else if (config_.me && inst.isMove()) {
            // Without CF the map table has no displacements; a move
            // simply shares its source register.
            out.elim = ElimKind::Move;
            out.destPreg = src_map.preg;
            out.destDisp = src_map.disp;  // always 0 when CF is off
        }
    } else if (inst.isCfCandidate() && depends_on_group_elim &&
               (config_.cf || (config_.me && inst.isMove()))) {
        ++groupDepCancels_;
    }

    // 2. Integration (RENO_CSE / RENO_RA) via the IT.
    if (!out.eliminated() && config_.usesIt() && !depends_on_group_elim) {
        if (isLoad(inst.op) && out.hasDest) {
            const MapEntry base{out.src[0].preg, out.src[0].disp};
            const ItSlot slot =
                it_.lookup(inst.op, inst.imm, base, MapEntry{});
            if (slot != InvalidItSlot) {
                const ItEntry &e = it_.entry(slot);
                // Reverse entries come from RENO_RA, forward from CSE;
                // honor the individual enables.
                if ((e.reverse && config_.ra) ||
                    (!e.reverse && config_.cse)) {
                    out.elim = e.reverse ? ElimKind::Ra : ElimKind::Cse;
                    out.destPreg = e.out.preg;
                    out.destDisp = e.out.disp;
                    // Oracle staleness check, standing in for the
                    // retirement re-execution of register integration.
                    const std::uint64_t shared =
                        prf_.value(e.out.preg) +
                        static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(e.out.disp));
                    if (shared != in.result) {
                        out.misintegrated = true;
                        ++misintegrations_;
                        // The flush refetches this load; drop the stale
                        // tuple so it renames conventionally next time.
                        it_.invalidateSlot(slot);
                    }
                }
            }
        } else if (config_.cse && !config_.itLoadsOnly && out.hasDest &&
                   inst.info().cls == InstClass::IntAlu) {
            MapEntry in1{out.src[0].preg, out.src[0].disp};
            MapEntry in2;
            if (out.numSrcs > 1)
                in2 = MapEntry{out.src[1].preg, out.src[1].disp};
            if (commutative(inst.op) && out.numSrcs == 2 &&
                (in2.preg < in1.preg ||
                 (in2.preg == in1.preg && in2.disp < in1.disp))) {
                std::swap(in1, in2);
            }
            const ItSlot slot = it_.lookup(inst.op, inst.imm, in1, in2);
            if (slot != InvalidItSlot) {
                const ItEntry &e = it_.entry(slot);
                out.elim = ElimKind::Cse;
                out.destPreg = e.out.preg;
                out.destDisp = e.out.disp;
            }
        }
    }

    // ---- destination handling (output selection + MTW) ---------------
    if (out.hasDest) {
        if (out.eliminated()) {
            prf_.incRef(out.destPreg);
        } else {
            out.destPreg = prf_.alloc();
            out.destDisp = 0;
            prf_.setValue(out.destPreg, in.result);
        }
        map_.set(inst.dest(), MapEntry{out.destPreg, out.destDisp});
    }

    // ---- IT entry creation for non-eliminated instructions -----------
    if (!out.eliminated() && config_.usesIt())
        insertItEntries(in, out);

    return out;
}

void
RenoRenamer::insertItEntries(const RenameIn &in, RenameOut &out)
{
    const Instruction &inst = in.inst;

    if (isLoad(inst.op) && out.hasDest && config_.cse) {
        // Forward entry: a later identical load shares our output.
        ItEntry e;
        e.op = inst.op;
        e.imm = inst.imm;
        e.in1 = MapEntry{out.src[0].preg, out.src[0].disp};
        e.out = MapEntry{out.destPreg, 0};
        out.createdSlot = it_.insert(e);
        return;
    }

    if (isStore(inst.op) && config_.ra) {
        // Reverse entry: the matching future load shares the store's
        // data register (speculative memory bypassing).
        ItEntry e;
        e.reverse = true;
        e.op = reverseLoadOp(inst.op);
        e.imm = inst.imm;
        e.in1 = MapEntry{out.src[0].preg, out.src[0].disp};
        e.out = MapEntry{out.src[1].preg, out.src[1].disp};
        out.createdSlot = it_.insert(e);
        return;
    }

    if (!config_.itLoadsOnly && config_.cse && out.hasDest &&
        inst.info().cls == InstClass::IntAlu) {
        MapEntry in1{out.src[0].preg, out.src[0].disp};
        MapEntry in2;
        if (out.numSrcs > 1)
            in2 = MapEntry{out.src[1].preg, out.src[1].disp};
        if (commutative(inst.op) && out.numSrcs == 2 &&
            (in2.preg < in1.preg ||
             (in2.preg == in1.preg && in2.disp < in1.disp))) {
            std::swap(in1, in2);
        }
        ItEntry e;
        e.op = inst.op;
        e.imm = inst.imm;
        e.in1 = in1;
        e.in2 = in2;
        e.out = MapEntry{out.destPreg, 0};
        out.createdSlot = it_.insert(e);

        // Reverse entry for register-immediate additions: lets the
        // inverse addition (stack-pointer increment) integrate (paper
        // Figure 3, bottom).
        if (inst.op == Opcode::ADDI && inst.imm != 0 &&
            fitsSigned(-std::int64_t{inst.imm}, 16)) {
            ItEntry r;
            r.reverse = true;
            r.op = Opcode::ADDI;
            r.imm = -inst.imm;
            r.in1 = MapEntry{out.destPreg, 0};
            r.out = in1;
            out.createdSlot2 = it_.insert(r);
        }
    }
}

void
RenoRenamer::rollback(const Instruction &inst, const RenameOut &out)
{
    if (out.misintegrated) {
        if (pendingMisintegrations_ == 0)
            panic("misintegration rollback underflow");
        --pendingMisintegrations_;
    }
    if (out.createdSlot != InvalidItSlot)
        it_.invalidateSlot(out.createdSlot);
    if (out.createdSlot2 != InvalidItSlot)
        it_.invalidateSlot(out.createdSlot2);
    if (out.hasDest) {
        map_.set(inst.dest(), out.prevMap);
        prf_.decRef(out.destPreg);
    }
}

void
RenoRenamer::retire(const RenameOut &out)
{
    if (out.hasDest)
        prf_.decRef(out.prevMap.preg);
}

MapCheckpoint
RenoRenamer::takeCheckpoint()
{
    MapCheckpoint cp;
    for (unsigned r = 0; r < NumLogRegs; ++r) {
        cp.map[r] = map_.get(static_cast<LogReg>(r));
        prf_.incRef(cp.map[r].preg);
    }
    cp.live = true;
    return cp;
}

void
RenoRenamer::restoreCheckpoint(MapCheckpoint &cp)
{
    if (!cp.live)
        panic("restoreCheckpoint on a dead checkpoint");
    // Reinstall the snapshot and drop the checkpoint's pin references.
    // The references representing the restored mappings themselves are
    // still held by their original (pre-checkpoint) writers: those
    // writers' overwriters are all younger than the checkpoint, hence
    // squashed, never retired. Callers must drop the squashed
    // instructions' own references via releaseRename(). Restoring a
    // checkpoint older than a retired instruction is illegal (real
    // hardware releases checkpoints no later than retirement).
    for (unsigned r = 0; r < NumLogRegs; ++r) {
        map_.set(static_cast<LogReg>(r), cp.map[r]);
        prf_.decRef(cp.map[r].preg);
    }
    cp.live = false;
    beginGroup();
}

void
RenoRenamer::releaseCheckpoint(MapCheckpoint &cp)
{
    if (!cp.live)
        panic("releaseCheckpoint on a dead checkpoint");
    for (unsigned r = 0; r < NumLogRegs; ++r)
        prf_.decRef(cp.map[r].preg);
    cp.live = false;
}

void
RenoRenamer::releaseRename(const RenameOut &out)
{
    if (out.misintegrated) {
        if (pendingMisintegrations_ == 0)
            panic("misintegration release underflow");
        --pendingMisintegrations_;
    }
    if (out.createdSlot != InvalidItSlot)
        it_.invalidateSlot(out.createdSlot);
    if (out.createdSlot2 != InvalidItSlot)
        it_.invalidateSlot(out.createdSlot2);
    if (out.hasDest)
        prf_.decRef(out.destPreg);
}

} // namespace reno
