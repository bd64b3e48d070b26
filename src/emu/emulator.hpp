/**
 * @file
 * Functional emulator for the RENO ISA.
 *
 * Runs programs architecturally, one instruction per step(). The
 * timing core uses it as an oracle: each step yields an ExecRecord
 * with the instruction's source values, result, effective address and
 * next pc, which the cycle-level model then schedules (SimpleScalar
 * style functional-first simulation).
 *
 * System calls (v0 = number, a0.. = arguments):
 *   0 exit(a0)
 *   1 print_int(a0)     appends decimal to the captured output
 *   2 print_str(a0)     a0 = address of NUL-terminated string
 *   3 print_char(a0)
 *   4 clock()           v0 = retired instruction count (deterministic)
 *   5 rand()            v0 = next value of a deterministic LCG
 *   6 core_id()         v0 = Options::coreId (0 outside a System) --
 *                       SPMD kernels derive core-private addresses
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/types.hpp"
#include "emu/decoded.hpp"
#include "isa/inst.hpp"
#include "mem/sparse_memory.hpp"

namespace reno
{

/**
 * Process-wide default for Options::decodedExec: the decoded engine.
 * The per-step interpreter stays as the reference the decoded engine
 * is checked against; tests select it here or per emulator. Outputs
 * are bit-exact either way; the decoded engine is simply faster.
 */
bool defaultDecodedExec();
void setDefaultDecodedExec(bool decoded);

/** Syscall numbers. */
enum : std::uint64_t {
    SysExit = 0,
    SysPrintInt = 1,
    SysPrintStr = 2,
    SysPrintChar = 3,
    SysClock = 4,
    SysRand = 5,
    SysCoreId = 6,
};

/** Architectural register file + pc. */
struct ArchState {
    std::uint64_t regs[NumLogRegs] = {};
    Addr pc = 0;

    std::uint64_t
    reg(LogReg r) const
    {
        return r == RegZero ? 0 : regs[r];
    }

    void
    setReg(LogReg r, std::uint64_t v)
    {
        if (r != RegZero)
            regs[r] = v;
    }
};

/** Everything the timing model needs to know about one executed inst. */
struct ExecRecord {
    Instruction inst;
    Addr pc = 0;
    Addr npc = 0;              //!< actual next pc (branch outcome)
    std::uint64_t srcVal[2] = {0, 0};
    std::uint64_t result = 0;  //!< destination value (if any)
    Addr effAddr = 0;          //!< memory ops: effective address
    std::uint64_t storeData = 0;
    bool taken = false;        //!< control: did the pc redirect?
    bool exited = false;       //!< this instruction ended the program
};

/**
 * Observer of the access stream an instruction sequence makes, in
 * program order: the stream functional warming feeds into cache and
 * predictor models (sample/warmup.hpp). Emulator::runUntil(bound,
 * sink) reports through it from the decoded engine at full speed --
 * no ExecRecord is built -- and derives the identical events from
 * the per-step interpreter wherever that engine falls back to it.
 *
 * Per executed instruction: fetch(pc) first, then data() for a load
 * or store, or control() for a branch, jump, call or return (never
 * both). An instruction that ends the program reports its fetch too.
 */
class AccessSink
{
  public:
    virtual ~AccessSink() = default;
    /** The instruction at @p pc executes (every instruction). */
    virtual void fetch(Addr pc) = 0;
    /** A load (@p write false) or store touched @p addr. */
    virtual void data(Addr addr, bool write) = 0;
    /** Control instruction @p inst at @p pc resolved: @p taken is
     *  whether the pc redirected, @p npc the actual next pc. */
    virtual void control(Addr pc, const Instruction &inst, bool taken,
                         Addr npc) = 0;
};

/** Evaluate a non-memory, non-control operation (shared with tests). */
std::uint64_t evalAlu(Opcode op, std::uint64_t a, std::uint64_t b,
                      std::int32_t imm);

/** Content digest of a program image (text, data, bases, entry). */
std::uint64_t programDigest(const Program &prog);

/**
 * A full functional checkpoint: everything Emulator needs to resume
 * exactly where a previous run stopped. A resumed run is byte-identical
 * to an uninterrupted one, including the clock syscall (instCount), the
 * rand syscall stream (randState) and the accumulated program output.
 * progDigest guards against restoring onto a different program.
 */
struct EmuCheckpoint {
    ArchState state;
    SparseMemory mem;
    std::string output;
    std::uint64_t instCount = 0;
    std::uint64_t exitCode = 0;
    std::uint64_t randState = 0;
    bool done = false;
    std::uint64_t progDigest = 0;
};

/** The functional emulator. */
class Emulator
{
  public:
    struct Options {
        Addr stackTop = DefaultStackTop;
        std::uint64_t maxInsts = 100'000'000;  //!< runaway guard
        std::uint64_t randSeed = 1;
        /** Returned by the core_id syscall; a multi-core System's
         *  harness sets it to the core index. */
        std::uint64_t coreId = 0;
        /** Execute over pre-decoded superblocks (src/emu/decoded.hpp)
         *  instead of decoding every instruction on every step. A
         *  pure accelerator: state transitions, ExecRecords, output,
         *  digests and checkpoints are bit-exact either way. */
        bool decodedExec = defaultDecodedExec();
        /** Block executions before a chainable block is re-decoded
         *  as a superblock across its unconditional transfers. */
        std::uint64_t hotThreshold = 16;
    };

    explicit Emulator(const Program &prog, Options opts);
    explicit Emulator(const Program &prog) : Emulator(prog, Options{}) {}
    ~Emulator();

    Emulator(const Emulator &) = delete;
    Emulator &operator=(const Emulator &) = delete;
    /** Movable (the source keeps running state but forfeits its
     *  block cache and stats, so metrics are flushed exactly once). */
    Emulator(Emulator &&other) noexcept;
    Emulator &operator=(Emulator &&) = delete;

    /** Execute one instruction. Invalid after done(). */
    ExecRecord step();

    /** Run to exit (or maxInsts); returns retired instruction count. */
    std::uint64_t run();

    /**
     * Fast-forward: run until at least @p inst_bound instructions have
     * executed (or the program exits). Returns the instruction count.
     * fatal() on a bound below the instructions already retired.
     */
    std::uint64_t runUntil(std::uint64_t inst_bound);

    /** runUntil(), reporting every executed instruction's fetch, data
     *  and control events to @p sink (see AccessSink). */
    std::uint64_t runUntil(std::uint64_t inst_bound, AccessSink &sink);

    /** Snapshot the complete functional state. */
    EmuCheckpoint checkpoint() const;

    /**
     * Resume from a checkpoint taken on the same program (fatal() on a
     * program-digest mismatch). Replaces all functional state.
     */
    void restore(const EmuCheckpoint &ckpt);

    bool done() const { return done_; }

    /** Exit code passed to the exit syscall (0 if still running). */
    std::uint64_t exitCode() const { return exitCode_; }

    std::uint64_t instCount() const { return instCount_; }
    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    const SparseMemory &memory() const { return mem_; }
    SparseMemory &memory() { return mem_; }
    const std::string &output() const { return output_; }
    const Program &program() const { return prog_; }

    /** Cumulative decoded-block cache statistics (see decoded.hpp). */
    const BlockCacheStats &blockStats() const { return cache_.stats(); }
    std::size_t cachedBlocks() const { return cache_.numBlocks(); }

    /** Instructions retired via the decoded engine / the per-step
     *  interpreter (they sum to instCount()). */
    std::uint64_t decodedInsts() const { return decodedInsts_; }
    std::uint64_t interpInsts() const { return interpInsts_; }

  private:
    std::uint64_t doSyscall();

    /** Shared bounded-run loop behind run()/runUntil(): retire
     *  instructions until exit or instCount() reaches @p inst_bound,
     *  reporting to @p sink when it is non-null. */
    std::uint64_t runBounded(std::uint64_t inst_bound, AccessSink *sink);

    /** One interpreter step(), its events derived from the ExecRecord
     *  and reported to @p sink when it is non-null. */
    void stepInto(AccessSink *sink);

    /** Threaded-dispatch engine: execute @p blk from @p start_idx,
     *  following block links, until exit, an un-decodable pc, or
     *  instCount() reaches @p limit, reporting to @p sink when
     *  @p WithSink. Pre: instCount() < limit. Instantiated for both,
     *  so runs without a sink carry no per-op sink test (measured
     *  ~10% of plain emulation on branch-heavy code). */
    template <bool WithSink>
    void execDecoded(DecodedBlock *blk, std::size_t start_idx,
                     std::uint64_t limit, AccessSink *sink);

    /** Cached block entered at @p pc, decoding (and, when hot,
     *  superblock-promoting) on demand. nullptr when @p pc cannot be
     *  decoded -- the caller falls back to step(). */
    DecodedBlock *lookupOrDecode(Addr pc);

    /** A store overlapped [addr, addr+size) in the text segment:
     *  re-sync the affected code words from memory and invalidate
     *  every overlapping decoded block. */
    void noteCodeWrite(Addr addr, unsigned size);

    /** Rebuild the mutable code image from memory (restore path). */
    void syncCodeFromMemory();

    /** Accumulate block-cache stats into the obs MetricsRegistry. */
    void flushBlockMetrics() const;

    const Program &prog_;
    Options opts_;
    ArchState state_;
    SparseMemory mem_;
    std::string output_;
    std::uint64_t instCount_ = 0;
    std::uint64_t exitCode_ = 0;
    std::uint64_t randState_;
    bool done_ = false;

    // Decoded-execution engine (pure accelerator; src/emu/decoded.hpp).
    std::vector<std::uint32_t> code_;  //!< mutable text image (SMC)
    Addr textBase_ = 0;
    Addr textEnd_ = 0;
    BlockCache cache_;
    /** Cursor into the block containing pc, kept across step() calls
     *  and mid-block pauses; valid iff curBlock_ != nullptr and
     *  curBlock_->ops[curIdx_].pc == state_.pc. */
    DecodedBlock *curBlock_ = nullptr;
    std::size_t curIdx_ = 0;
    std::uint64_t decodedInsts_ = 0;
    std::uint64_t interpInsts_ = 0;
};

} // namespace reno
