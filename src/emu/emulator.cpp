#include "emu/emulator.hpp"

#include <algorithm>
#include <climits>
#include <limits>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

// Threaded dispatch (computed goto) removes the per-op switch's bounds
// check and gives each handler its own indirect-branch site, which the
// host BTB predicts far better than one shared switch branch. Portable
// fallback: a plain switch over Handler.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(RENO_NO_COMPUTED_GOTO)
#define RENO_COMPUTED_GOTO 1
#else
#define RENO_COMPUTED_GOTO 0
#endif

namespace reno
{

namespace
{

bool decodedDefault = true;

} // namespace

bool
defaultDecodedExec()
{
    return decodedDefault;
}

void
setDefaultDecodedExec(bool decoded)
{
    decodedDefault = decoded;
}

std::uint64_t
evalAlu(Opcode op, std::uint64_t a, std::uint64_t b, std::int32_t imm)
{
    const auto sa = static_cast<std::int64_t>(a);
    const std::uint64_t immS =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(imm));
    const std::uint64_t immZ = static_cast<std::uint64_t>(imm) & 0xffff;
    const auto sb = static_cast<std::int64_t>(b);

    switch (op) {
      case Opcode::ADD:  return a + b;
      case Opcode::SUB:  return a - b;
      case Opcode::MUL:  return a * b;
      case Opcode::DIV:
        // Divide by zero yields 0; INT64_MIN / -1 wraps to itself
        // (the C++ expression would overflow and trap).
        if (sb == 0)
            return 0;
        if (sa == INT64_MIN && sb == -1)
            return static_cast<std::uint64_t>(sa);
        return static_cast<std::uint64_t>(sa / sb);
      case Opcode::DIVU: return b == 0 ? 0 : a / b;
      case Opcode::REM:
        if (sb == 0)
            return 0;
        if (sa == INT64_MIN && sb == -1)
            return 0;
        return static_cast<std::uint64_t>(sa % sb);
      case Opcode::AND:  return a & b;
      case Opcode::OR:   return a | b;
      case Opcode::XOR:  return a ^ b;
      case Opcode::BIC:  return a & ~b;
      case Opcode::SLL:  return a << (b & 63);
      case Opcode::SRL:  return a >> (b & 63);
      case Opcode::SRA:  return static_cast<std::uint64_t>(sa >> (b & 63));
      case Opcode::SEQ:  return a == b ? 1 : 0;
      case Opcode::SLT:  return sa < sb ? 1 : 0;
      case Opcode::SLE:  return sa <= sb ? 1 : 0;
      case Opcode::SLTU: return a < b ? 1 : 0;
      case Opcode::SLEU: return a <= b ? 1 : 0;
      case Opcode::ADDI: return a + immS;
      case Opcode::MULI: return a * immS;
      case Opcode::ANDI: return a & immZ;
      case Opcode::ORI:  return a | immZ;
      case Opcode::XORI: return a ^ immZ;
      case Opcode::SLLI: return a << (imm & 63);
      case Opcode::SRLI: return a >> (imm & 63);
      case Opcode::SRAI: return static_cast<std::uint64_t>(sa >> (imm & 63));
      case Opcode::SEQI: return a == immS ? 1 : 0;
      case Opcode::SLTI: return sa < static_cast<std::int64_t>(imm) ? 1 : 0;
      case Opcode::SLEI: return sa <= static_cast<std::int64_t>(imm) ? 1 : 0;
      case Opcode::SLTUI: return a < immS ? 1 : 0;
      case Opcode::SLEUI: return a <= immS ? 1 : 0;
      case Opcode::LUI:
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(imm) << 16);
      default:
        panic("evalAlu: opcode %s is not an ALU operation",
              std::string(mnemonic(op)).c_str());
    }
}

Emulator::Emulator(const Program &prog, Options opts)
    : prog_(prog), opts_(opts), randState_(opts.randSeed),
      code_(prog.text), textBase_(prog.textBase),
      textEnd_(prog.textBase + prog.text.size() * 4)
{
    // Load text and data images.
    for (size_t i = 0; i < prog.text.size(); ++i)
        mem_.write(prog.textBase + i * 4, prog.text[i], 4);
    if (!prog.data.empty())
        mem_.load(prog.dataBase, prog.data.data(), prog.data.size());
    state_.pc = prog.entry;
    state_.setReg(RegSp, opts.stackTop);
}

Emulator::Emulator(Emulator &&other) noexcept
    : prog_(other.prog_), opts_(other.opts_), state_(other.state_),
      mem_(std::move(other.mem_)), output_(std::move(other.output_)),
      instCount_(other.instCount_), exitCode_(other.exitCode_),
      randState_(other.randState_), done_(other.done_),
      code_(std::move(other.code_)), textBase_(other.textBase_),
      textEnd_(other.textEnd_), cache_(std::move(other.cache_)),
      curBlock_(other.curBlock_), curIdx_(other.curIdx_),
      decodedInsts_(other.decodedInsts_),
      interpInsts_(other.interpInsts_)
{
    // Zero the source's stats so its destructor flush is a no-op
    // (a moved-from unordered_map keeps no blocks, but the plain
    //  stats struct would otherwise be flushed twice).
    other.cache_ = BlockCache{};
    other.curBlock_ = nullptr;
    other.decodedInsts_ = 0;
    other.interpInsts_ = 0;
}

Emulator::~Emulator()
{
    flushBlockMetrics();
}

std::uint64_t
Emulator::doSyscall()
{
    const std::uint64_t num = state_.reg(RegV0);
    const std::uint64_t a0 = state_.reg(RegA0);
    switch (num) {
      case SysExit:
        done_ = true;
        exitCode_ = a0;
        return 0;
      case SysPrintInt:
        output_ += strprintf("%lld",
                             static_cast<long long>(a0));
        return 0;
      case SysPrintStr:
        output_ += mem_.readString(a0);
        return 0;
      case SysPrintChar:
        output_ += static_cast<char>(a0);
        return 0;
      case SysClock:
        return instCount_;
      case SysRand:
        randState_ = randState_ * 6364136223846793005ULL +
                     1442695040888963407ULL;
        return randState_ >> 16;
      case SysCoreId:
        return opts_.coreId;
      default:
        fatal("unknown syscall %llu at pc 0x%llx",
              static_cast<unsigned long long>(num),
              static_cast<unsigned long long>(state_.pc));
    }
}

ExecRecord
Emulator::step()
{
    if (done_)
        panic("Emulator::step after exit (pc 0x%llx, %llu instructions "
              "retired)",
              static_cast<unsigned long long>(state_.pc),
              static_cast<unsigned long long>(instCount_));
    if (instCount_ >= opts_.maxInsts)
        fatal("emulator exceeded %llu instructions (runaway program?)",
              static_cast<unsigned long long>(opts_.maxInsts));
    if (!prog_.inText(state_.pc))
        fatal("pc 0x%llx outside text segment",
              static_cast<unsigned long long>(state_.pc));

    // Source the decoded form from the block cache when possible. The
    // cursor tracks the position inside the current block across
    // step() calls, so the detailed core's per-step oracle skips both
    // the hash lookup and the re-decode on every instruction of a
    // block.
    const DecodedOp *dop = nullptr;
    if (opts_.decodedExec) {
        if (!(curBlock_ != nullptr && curIdx_ < curBlock_->ops.size() &&
              curBlock_->ops[curIdx_].pc == state_.pc)) {
            curBlock_ = lookupOrDecode(state_.pc);
            curIdx_ = 0;
        }
        if (curBlock_ != nullptr && curIdx_ < curBlock_->ops.size() &&
            curBlock_->ops[curIdx_].pc == state_.pc)
            dop = &curBlock_->ops[curIdx_];
        else
            curBlock_ = nullptr;
    }

    ExecRecord rec;
    rec.pc = state_.pc;
    rec.inst = dop != nullptr
                   ? dop->inst
                   : decode(code_[(state_.pc - textBase_) >> 2]);
    const Instruction &inst = rec.inst;
    const unsigned nsrc = inst.numSrcs();
    for (unsigned i = 0; i < nsrc; ++i)
        rec.srcVal[i] = state_.reg(inst.src(i));

    Addr npc = rec.pc + 4;
    const Addr branch_target =
        rec.pc + 4 + static_cast<Addr>(
            static_cast<std::int64_t>(inst.imm) * 4);

    switch (inst.info().cls) {
      case InstClass::IntAlu:
      case InstClass::IntMul:
      case InstClass::IntDiv:
        rec.result = evalAlu(inst.op, rec.srcVal[0], rec.srcVal[1],
                             inst.imm);
        state_.setReg(inst.rc, rec.result);
        break;
      case InstClass::Load: {
        rec.effAddr = rec.srcVal[0] +
                      static_cast<Addr>(
                          static_cast<std::int64_t>(inst.imm));
        std::uint64_t v = mem_.read(rec.effAddr, inst.info().memSize);
        if (inst.info().signedLoad)
            v = static_cast<std::uint64_t>(
                signExtend(v, inst.info().memSize * 8));
        rec.result = v;
        state_.setReg(inst.rc, v);
        break;
      }
      case InstClass::Store:
        rec.effAddr = rec.srcVal[0] +
                      static_cast<Addr>(
                          static_cast<std::int64_t>(inst.imm));
        rec.storeData = rec.srcVal[1];
        mem_.write(rec.effAddr, rec.storeData, inst.info().memSize);
        // Write-to-code guard: keep the executable image coherent and
        // drop decoded blocks built from the overwritten words.
        if (rec.effAddr < textEnd_ &&
            rec.effAddr + inst.info().memSize > textBase_)
            noteCodeWrite(rec.effAddr, inst.info().memSize);
        break;
      case InstClass::CtrlCond: {
        const auto v = static_cast<std::int64_t>(rec.srcVal[0]);
        bool taken = false;
        switch (inst.op) {
          case Opcode::BEQ: taken = v == 0; break;
          case Opcode::BNE: taken = v != 0; break;
          case Opcode::BLT: taken = v < 0; break;
          case Opcode::BGE: taken = v >= 0; break;
          case Opcode::BLE: taken = v <= 0; break;
          case Opcode::BGT: taken = v > 0; break;
          default: panic("bad conditional branch");
        }
        if (taken)
            npc = branch_target;
        rec.taken = taken;
        break;
      }
      case InstClass::CtrlUncond:
        npc = branch_target;
        rec.taken = true;
        break;
      case InstClass::CtrlCall:
        rec.result = rec.pc + 4;
        state_.setReg(inst.rc, rec.result);
        npc = inst.op == Opcode::BSR ? branch_target
                                     : (rec.srcVal[0] & ~Addr{3});
        rec.taken = true;
        break;
      case InstClass::CtrlRet:
        npc = rec.srcVal[0] & ~Addr{3};
        rec.taken = true;
        break;
      case InstClass::Syscall: {
        const std::uint64_t ret = doSyscall();
        rec.result = ret;
        state_.setReg(RegV0, ret);
        break;
      }
    }

    state_.pc = npc;
    rec.npc = npc;
    rec.exited = done_;
    ++instCount_;

    if (dop != nullptr) {
        ++decodedInsts_;
        // Keep the cursor when execution continues inside this block
        // (fall-through, or a chained transfer in a superblock).
        // noteCodeWrite() may have nulled curBlock_; dop is then
        // dangling, so only the pointer test below may touch it.
        if (curBlock_ != nullptr && curIdx_ + 1 < curBlock_->ops.size() &&
            curBlock_->ops[curIdx_ + 1].pc == npc)
            ++curIdx_;
        else
            curBlock_ = nullptr;
    } else {
        ++interpInsts_;
    }
    return rec;
}

std::uint64_t
Emulator::run()
{
    return runBounded(std::numeric_limits<std::uint64_t>::max(),
                      nullptr);
}

std::uint64_t
Emulator::runUntil(std::uint64_t inst_bound)
{
    return runBounded(inst_bound, nullptr);
}

std::uint64_t
Emulator::runUntil(std::uint64_t inst_bound, AccessSink &sink)
{
    return runBounded(inst_bound, &sink);
}

void
Emulator::stepInto(AccessSink *sink)
{
    const ExecRecord rec = step();
    if (sink == nullptr)
        return;
    sink->fetch(rec.pc);
    const InstClass cls = rec.inst.info().cls;
    if (cls == InstClass::Load || cls == InstClass::Store)
        sink->data(rec.effAddr, cls == InstClass::Store);
    else if (isControl(rec.inst.op))
        sink->control(rec.pc, rec.inst, rec.taken, rec.npc);
}

std::uint64_t
Emulator::runBounded(std::uint64_t inst_bound, AccessSink *sink)
{
    if (inst_bound < instCount_)
        fatal("Emulator::runUntil: bound %llu is below the %llu "
              "instructions already retired",
              static_cast<unsigned long long>(inst_bound),
              static_cast<unsigned long long>(instCount_));
    if (!opts_.decodedExec) {
        while (!done_ && instCount_ < inst_bound)
            stepInto(sink);
        return instCount_;
    }

    // The decoded engine reads registers unguarded; it relies on
    // regs[RegZero] being 0 (SET_REG re-zeroes it after every write).
    state_.regs[RegZero] = 0;
    while (!done_ && instCount_ < inst_bound) {
        if (instCount_ >= opts_.maxInsts)
            fatal("emulator exceeded %llu instructions (runaway "
                  "program?)",
                  static_cast<unsigned long long>(opts_.maxInsts));

        DecodedBlock *blk;
        std::size_t idx = 0;
        if (curBlock_ != nullptr && curIdx_ < curBlock_->ops.size() &&
            curBlock_->ops[curIdx_].pc == state_.pc) {
            // Resume mid-block (step()/checkpoint-chop cursor).
            blk = curBlock_;
            idx = curIdx_;
        } else {
            blk = lookupOrDecode(state_.pc);
        }
        curBlock_ = nullptr;
        if (blk == nullptr) {
            // pc outside text or an un-decodable word: one interpreter
            // step reproduces the exact fatal/panic diagnostics.
            stepInto(sink);
            continue;
        }
        const std::uint64_t before = instCount_;
        const std::uint64_t limit = std::min(inst_bound, opts_.maxInsts);
        if (sink != nullptr)
            execDecoded<true>(blk, idx, limit, sink);
        else
            execDecoded<false>(blk, idx, limit, nullptr);
        decodedInsts_ += instCount_ - before;
    }
    return instCount_;
}

DecodedBlock *
Emulator::lookupOrDecode(Addr pc)
{
    constexpr DecodeLimits kLimits{};
    if (DecodedBlock *blk = cache_.find(pc)) {
        ++blk->execCount;
        if (!blk->isSuperblock && blk->chainable &&
            blk->execCount >= opts_.hotThreshold) {
            // Hot block ending in a direct unconditional transfer:
            // re-decode it chained through into a superblock.
            DecodedBlock sb = decodeBlock(code_.data(), textBase_,
                                          code_.size(), pc,
                                          /*superblock=*/true, kLimits);
            sb.isSuperblock = true;
            sb.execCount = blk->execCount;
            blk = cache_.replace(std::move(sb));
        }
        return blk;
    }
    if (!prog_.inText(pc))
        return nullptr;
    DecodedBlock blk = decodeBlock(code_.data(), textBase_, code_.size(),
                                   pc, /*superblock=*/false, kLimits);
    if (blk.ops.empty())
        return nullptr;
    blk.execCount = 1;
    return cache_.insert(std::move(blk));
}

void
Emulator::noteCodeWrite(Addr addr, unsigned size)
{
    // mem_ already holds the new bytes; re-sync the touched words.
    const Addr lo = std::max(addr, textBase_) & ~Addr{3};
    const Addr hi = std::min(addr + size, textEnd_);
    for (Addr w = lo; w < hi; w += 4)
        code_[(w - textBase_) >> 2] =
            static_cast<std::uint32_t>(mem_.read(w, 4));
    cache_.invalidateRange(addr, addr + size);
    curBlock_ = nullptr;  // may point at a dropped block
}

void
Emulator::syncCodeFromMemory()
{
    for (std::size_t i = 0; i < code_.size(); ++i)
        code_[i] = static_cast<std::uint32_t>(
            mem_.read(textBase_ + i * 4, 4));
}

void
Emulator::flushBlockMetrics() const
{
    const BlockCacheStats &s = cache_.stats();
    if (s.lookups == 0 && decodedInsts_ == 0 && interpInsts_ == 0)
        return;
    auto &reg = obs::MetricsRegistry::instance();
    reg.counter("emu.block_cache.lookups").inc(s.lookups);
    reg.counter("emu.block_cache.hits").inc(s.hits);
    reg.counter("emu.block_cache.blocks_decoded").inc(s.blocksDecoded);
    reg.counter("emu.block_cache.superblocks_chained")
        .inc(s.superblocksChained);
    reg.counter("emu.block_cache.ops_decoded").inc(s.opsDecoded);
    reg.counter("emu.block_cache.invalidation_events")
        .inc(s.invalidationEvents);
    reg.counter("emu.block_cache.invalidated_blocks")
        .inc(s.invalidatedBlocks);
    reg.counter("emu.insts.decoded").inc(decodedInsts_);
    reg.counter("emu.insts.interpreted").inc(interpInsts_);
}

// The decoded loop's speed, like SparseMemory::read's, depends on its
// offset within a 64-byte line: changes that never touched the
// emulator have shifted it and moved the functional-warming time of a
// sampled run by 21-30%. Starting each instantiation on a line keeps
// its speed independent of the code linked before it.
template <bool WithSink>
[[gnu::aligned(64)]] void
Emulator::execDecoded(DecodedBlock *blk, std::size_t start_idx,
                      std::uint64_t limit, AccessSink *sink)
{
    std::uint64_t *const regs = state_.regs;

// Write a destination register, preserving the regs[RegZero] == 0
// invariant branchlessly (a write to r31 lands and is re-zeroed).
#define SET_REG(r, v)                                                   \
    do {                                                                \
        regs[(r)] = (v);                                                \
        regs[RegZero] = 0;                                              \
    } while (0)

#define S64(x) static_cast<std::int64_t>(x)

// Retire a non-terminal op and fall through to the next one.
#define ADVANCE()                                                       \
    do {                                                                \
        ++instCount_;                                                   \
        ++op;                                                           \
        if (op == opEnd) {                                              \
            npc = op[-1].pc + 4;                                        \
            takenEdge = false;                                          \
            goto block_done;                                            \
        }                                                               \
        if (instCount_ >= limit)                                        \
            goto pause;                                                 \
        DISPATCH();                                                     \
    } while (0)

// Retire the block's terminal (control) op and redirect to next_pc.
#define FINISH(next_pc, taken)                                          \
    do {                                                                \
        ++instCount_;                                                   \
        npc = (next_pc);                                                \
        takenEdge = (taken);                                            \
        if constexpr (WithSink)                                         \
            sink->control(op->pc, op->inst, takenEdge, npc);            \
        goto block_done;                                                \
    } while (0)

// BR/BSR: chained through inside a superblock (the next op sits at the
// transfer target), terminal otherwise.
#define CHAIN_OR_FINISH()                                               \
    do {                                                                \
        if (op + 1 != opEnd) {                                          \
            if constexpr (WithSink)                                     \
                sink->control(op->pc, op->inst, true, op->target);      \
            ++instCount_;                                               \
            ++op;                                                       \
            if (instCount_ >= limit)                                    \
                goto pause;                                             \
            DISPATCH();                                                 \
        }                                                               \
        FINISH(op->target, true);                                       \
    } while (0)

#if RENO_COMPUTED_GOTO
    // One entry per Handler, in exact enum order (decoded.hpp).
    static const void *const kJump[] = {
        &&lbl_Add, &&lbl_Sub, &&lbl_Mul, &&lbl_Div, &&lbl_Divu,
        &&lbl_Rem, &&lbl_And, &&lbl_Or, &&lbl_Xor, &&lbl_Bic,
        &&lbl_Sll, &&lbl_Srl, &&lbl_Sra, &&lbl_Seq, &&lbl_Slt,
        &&lbl_Sle, &&lbl_Sltu, &&lbl_Sleu, &&lbl_AddI, &&lbl_MulI,
        &&lbl_AndI, &&lbl_OrI, &&lbl_XorI, &&lbl_SllI, &&lbl_SrlI,
        &&lbl_SraI, &&lbl_SeqI, &&lbl_SltI, &&lbl_SleI, &&lbl_SltuI,
        &&lbl_SleuI, &&lbl_Lui, &&lbl_Load, &&lbl_Store, &&lbl_Beq,
        &&lbl_Bne, &&lbl_Blt, &&lbl_Bge, &&lbl_Ble, &&lbl_Bgt,
        &&lbl_Br, &&lbl_Bsr, &&lbl_Jsr, &&lbl_Jmp, &&lbl_Syscall,
    };
    static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                  static_cast<std::size_t>(Handler::NumHandlers));
// Every dispatch reports the op's fetch first (program order: an op's
// data/control event follows its own fetch, precedes the next one's).
#define HANDLER(name) lbl_##name
#define DISPATCH()                                                      \
    do {                                                                \
        if constexpr (WithSink)                                         \
            sink->fetch(op->pc);                                        \
        goto *kJump[static_cast<std::size_t>(op->handler)];             \
    } while (0)
#else
#define HANDLER(name) case Handler::name
#define DISPATCH() goto dispatch
#endif

    for (;;) {
        const DecodedOp *op = blk->ops.data() + start_idx;
        const DecodedOp *const opEnd = blk->ops.data() + blk->ops.size();
        start_idx = 0;
        Addr npc = 0;
        bool takenEdge = false;

#if RENO_COMPUTED_GOTO
        DISPATCH();
#else
      dispatch:
        if constexpr (WithSink)
            sink->fetch(op->pc);
        switch (op->handler) {
#endif

    HANDLER(Add):
        SET_REG(op->rc, regs[op->ra] + regs[op->rb]);
        ADVANCE();
    HANDLER(Sub):
        SET_REG(op->rc, regs[op->ra] - regs[op->rb]);
        ADVANCE();
    HANDLER(Mul):
        SET_REG(op->rc, regs[op->ra] * regs[op->rb]);
        ADVANCE();
    HANDLER(Div):
        // DIV/DIVU/REM share evalAlu's edge-case semantics
        // (divide-by-zero, INT64_MIN / -1); they are rare enough that
        // the call costs nothing measurable.
        SET_REG(op->rc,
                evalAlu(Opcode::DIV, regs[op->ra], regs[op->rb], 0));
        ADVANCE();
    HANDLER(Divu):
        SET_REG(op->rc,
                evalAlu(Opcode::DIVU, regs[op->ra], regs[op->rb], 0));
        ADVANCE();
    HANDLER(Rem):
        SET_REG(op->rc,
                evalAlu(Opcode::REM, regs[op->ra], regs[op->rb], 0));
        ADVANCE();
    HANDLER(And):
        SET_REG(op->rc, regs[op->ra] & regs[op->rb]);
        ADVANCE();
    HANDLER(Or):
        SET_REG(op->rc, regs[op->ra] | regs[op->rb]);
        ADVANCE();
    HANDLER(Xor):
        SET_REG(op->rc, regs[op->ra] ^ regs[op->rb]);
        ADVANCE();
    HANDLER(Bic):
        SET_REG(op->rc, regs[op->ra] & ~regs[op->rb]);
        ADVANCE();
    HANDLER(Sll):
        SET_REG(op->rc, regs[op->ra] << (regs[op->rb] & 63));
        ADVANCE();
    HANDLER(Srl):
        SET_REG(op->rc, regs[op->ra] >> (regs[op->rb] & 63));
        ADVANCE();
    HANDLER(Sra):
        SET_REG(op->rc,
                static_cast<std::uint64_t>(
                    S64(regs[op->ra]) >> (regs[op->rb] & 63)));
        ADVANCE();
    HANDLER(Seq):
        SET_REG(op->rc, regs[op->ra] == regs[op->rb] ? 1 : 0);
        ADVANCE();
    HANDLER(Slt):
        SET_REG(op->rc, S64(regs[op->ra]) < S64(regs[op->rb]) ? 1 : 0);
        ADVANCE();
    HANDLER(Sle):
        SET_REG(op->rc, S64(regs[op->ra]) <= S64(regs[op->rb]) ? 1 : 0);
        ADVANCE();
    HANDLER(Sltu):
        SET_REG(op->rc, regs[op->ra] < regs[op->rb] ? 1 : 0);
        ADVANCE();
    HANDLER(Sleu):
        SET_REG(op->rc, regs[op->ra] <= regs[op->rb] ? 1 : 0);
        ADVANCE();

    HANDLER(AddI):
        SET_REG(op->rc,
                regs[op->ra] + static_cast<std::uint64_t>(op->immS));
        ADVANCE();
    HANDLER(MulI):
        SET_REG(op->rc,
                regs[op->ra] * static_cast<std::uint64_t>(op->immS));
        ADVANCE();
    HANDLER(AndI):
        SET_REG(op->rc, regs[op->ra] & op->immZ);
        ADVANCE();
    HANDLER(OrI):
        SET_REG(op->rc, regs[op->ra] | op->immZ);
        ADVANCE();
    HANDLER(XorI):
        SET_REG(op->rc, regs[op->ra] ^ op->immZ);
        ADVANCE();
    HANDLER(SllI):
        SET_REG(op->rc,
                regs[op->ra] << static_cast<unsigned>(op->immS & 63));
        ADVANCE();
    HANDLER(SrlI):
        SET_REG(op->rc,
                regs[op->ra] >> static_cast<unsigned>(op->immS & 63));
        ADVANCE();
    HANDLER(SraI):
        SET_REG(op->rc,
                static_cast<std::uint64_t>(
                    S64(regs[op->ra]) >>
                    static_cast<unsigned>(op->immS & 63)));
        ADVANCE();
    HANDLER(SeqI):
        SET_REG(op->rc,
                regs[op->ra] == static_cast<std::uint64_t>(op->immS)
                    ? 1 : 0);
        ADVANCE();
    HANDLER(SltI):
        SET_REG(op->rc, S64(regs[op->ra]) < op->immS ? 1 : 0);
        ADVANCE();
    HANDLER(SleI):
        SET_REG(op->rc, S64(regs[op->ra]) <= op->immS ? 1 : 0);
        ADVANCE();
    HANDLER(SltuI):
        SET_REG(op->rc,
                regs[op->ra] < static_cast<std::uint64_t>(op->immS)
                    ? 1 : 0);
        ADVANCE();
    HANDLER(SleuI):
        SET_REG(op->rc,
                regs[op->ra] <= static_cast<std::uint64_t>(op->immS)
                    ? 1 : 0);
        ADVANCE();
    HANDLER(Lui):
        SET_REG(op->rc, static_cast<std::uint64_t>(op->immS << 16));
        ADVANCE();

    HANDLER(Load): {
        const Addr ea = regs[op->ra] + static_cast<Addr>(op->immS);
        if constexpr (WithSink)
            sink->data(ea, false);
        std::uint64_t v = mem_.read(ea, op->memSize);
        if (op->signedLoad)
            v = static_cast<std::uint64_t>(
                signExtend(v, op->memSize * 8u));
        SET_REG(op->rc, v);
        ADVANCE();
    }
    HANDLER(Store): {
        const Addr ea = regs[op->ra] + static_cast<Addr>(op->immS);
        const unsigned size = op->memSize;
        if constexpr (WithSink)
            sink->data(ea, true);
        mem_.write(ea, regs[op->rb], size);
        if (ea < textEnd_ && ea + size > textBase_) {
            // Self-modifying code: the invalidation below may free
            // the very block being executed, so read everything we
            // still need from *op first, then leave the block. The
            // outer loop re-decodes from the patched image.
            const Addr next = op->pc + 4;
            noteCodeWrite(ea, size);
            ++instCount_;
            state_.pc = next;
            return;
        }
        ADVANCE();
    }

    HANDLER(Beq): {
        const bool t = S64(regs[op->ra]) == 0;
        FINISH(t ? op->target : op->pc + 4, t);
    }
    HANDLER(Bne): {
        const bool t = S64(regs[op->ra]) != 0;
        FINISH(t ? op->target : op->pc + 4, t);
    }
    HANDLER(Blt): {
        const bool t = S64(regs[op->ra]) < 0;
        FINISH(t ? op->target : op->pc + 4, t);
    }
    HANDLER(Bge): {
        const bool t = S64(regs[op->ra]) >= 0;
        FINISH(t ? op->target : op->pc + 4, t);
    }
    HANDLER(Ble): {
        const bool t = S64(regs[op->ra]) <= 0;
        FINISH(t ? op->target : op->pc + 4, t);
    }
    HANDLER(Bgt): {
        const bool t = S64(regs[op->ra]) > 0;
        FINISH(t ? op->target : op->pc + 4, t);
    }

    HANDLER(Br):
        CHAIN_OR_FINISH();
    HANDLER(Bsr):
        SET_REG(op->rc, op->pc + 4);
        CHAIN_OR_FINISH();
    HANDLER(Jsr): {
        // Read the jump target before the link write (ra may be rc).
        const Addr t = regs[op->ra] & ~Addr{3};
        SET_REG(op->rc, op->pc + 4);
        FINISH(t, true);
    }
    HANDLER(Jmp):
        FINISH(regs[op->ra] & ~Addr{3}, true);

    HANDLER(Syscall): {
        // doSyscall's diagnostics (and nothing else) read state_.pc.
        state_.pc = op->pc;
        const std::uint64_t ret = doSyscall();
        SET_REG(RegV0, ret);
        if (done_) {
            state_.pc = op->pc + 4;
            ++instCount_;
            return;
        }
        ADVANCE();
    }

#if !RENO_COMPUTED_GOTO
        }
        panic("execDecoded: bad handler");
#endif

      block_done:
        state_.pc = npc;
        if (instCount_ >= limit)
            return;
        {
            // Block linking: follow the cached successor for this edge
            // when it is still the right one and is not due for
            // superblock promotion; otherwise take the slow path
            // (hash lookup + decode/promotion) and re-link.
            DecodedBlock *next =
                takenEdge ? blk->linkTaken : blk->linkFall;
            if (next != nullptr && next->entry == npc &&
                (next->isSuperblock || !next->chainable ||
                 next->execCount + 1 < opts_.hotThreshold)) {
                ++next->execCount;
                blk = next;
                continue;
            }
            const std::uint64_t gen = cache_.generation();
            next = lookupOrDecode(npc);
            if (next == nullptr)
                return;  // caller's step() fallback diagnoses this pc
            // A generation bump means blocks were freed (superblock
            // promotion) and blk may dangle -- skip re-linking then.
            if (cache_.generation() == gen)
                (takenEdge ? blk->linkTaken : blk->linkFall) = next;
            blk = next;
            continue;
        }

      pause:
        // Budget exhausted mid-block: park the architectural pc at the
        // next op and remember the position so run/step can resume
        // without a lookup.
        state_.pc = op->pc;
        curBlock_ = blk;
        curIdx_ = static_cast<std::size_t>(op - blk->ops.data());
        return;
    }

#undef HANDLER
#undef DISPATCH
#undef CHAIN_OR_FINISH
#undef FINISH
#undef ADVANCE
#undef S64
#undef SET_REG
}

std::uint64_t
programDigest(const Program &prog)
{
    Fnv64 h;
    h.update("reno-program-v1");
    h.update(prog.textBase);
    for (const std::uint32_t word : prog.text)
        h.update(std::uint64_t{word});
    h.update(prog.dataBase);
    h.update(std::uint64_t{prog.data.size()});
    if (!prog.data.empty())
        h.update(prog.data.data(), prog.data.size());
    h.update(prog.entry);
    return h.value();
}

EmuCheckpoint
Emulator::checkpoint() const
{
    EmuCheckpoint ckpt;
    ckpt.state = state_;
    ckpt.mem = mem_.snapshot();
    ckpt.output = output_;
    ckpt.instCount = instCount_;
    ckpt.exitCode = exitCode_;
    ckpt.randState = randState_;
    ckpt.done = done_;
    ckpt.progDigest = programDigest(prog_);
    return ckpt;
}

void
Emulator::restore(const EmuCheckpoint &ckpt)
{
    if (ckpt.progDigest != programDigest(prog_))
        fatal("checkpoint restore onto a different program "
              "(digest %llx, expected %llx)",
              static_cast<unsigned long long>(ckpt.progDigest),
              static_cast<unsigned long long>(programDigest(prog_)));
    state_ = ckpt.state;
    state_.regs[RegZero] = 0;  // decoded engine relies on this
    mem_.restore(ckpt.mem);
    output_ = ckpt.output;
    instCount_ = ckpt.instCount;
    exitCode_ = ckpt.exitCode;
    randState_ = ckpt.randState;
    done_ = ckpt.done;
    // The checkpoint's memory image is authoritative for code too (it
    // may carry self-modified text). Decoded blocks are a pure
    // function of the text bytes, so instead of dropping the whole
    // cache, re-sync word by word and invalidate only the words the
    // checkpoint actually changed -- a sampled run restoring many
    // windows of the same program keeps its decode work.
    for (std::size_t i = 0; i < code_.size(); ++i) {
        const Addr w = textBase_ + i * 4;
        const auto word =
            static_cast<std::uint32_t>(mem_.read(w, 4));
        if (code_[i] == word)
            continue;
        code_[i] = word;
        cache_.invalidateRange(w, w + 4);
    }
    curBlock_ = nullptr;  // the cursor may point at a dropped block
    curIdx_ = 0;
}

} // namespace reno
