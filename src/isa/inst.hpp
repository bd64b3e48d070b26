/**
 * @file
 * Decoded instruction representation, 32-bit binary encoding, and the
 * operand-query interface used by the rename stage and the emulator.
 *
 * Formats (fields of the decoded form):
 *   R:      rc <- ra OP rb
 *   I:      rc <- ra OP imm16      (LUI: rc <- imm16 << 16, no source)
 *   Mem:    load  rc <- MEM[ra + imm16]
 *           store MEM[ra + imm16] <- rb
 *   Branch: Bxx ra, target         (target = pc + 4 + imm16 * 4)
 *   Jump:   BSR rc, target / JSR rc, (ra) / JMP (ra)
 *
 * Writes to r31 (zero) are discarded; an instruction whose destination
 * is r31 "has no destination" for renaming purposes.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "isa/opcodes.hpp"

namespace reno
{

/** A decoded instruction. Plain data; copy freely. */
struct Instruction {
    Opcode op = Opcode::SYSCALL;
    std::uint8_t ra = RegZero;  //!< first source / base / branch source
    std::uint8_t rb = RegZero;  //!< second source / store data
    std::uint8_t rc = RegZero;  //!< destination
    std::int32_t imm = 0;       //!< sign-extended 16-bit immediate

    // --- Constructors for each format -------------------------------
    static Instruction rr(Opcode op, unsigned rc, unsigned ra, unsigned rb);
    static Instruction ri(Opcode op, unsigned rc, unsigned ra,
                          std::int32_t imm);
    /** Load rc <- imm(ra), or store: @p reg is the data register. */
    static Instruction mem(Opcode op, unsigned reg, unsigned base,
                           std::int32_t imm);
    static Instruction branch(Opcode op, unsigned ra, std::int32_t imm);
    static Instruction jump(Opcode op, unsigned rc, unsigned ra,
                            std::int32_t imm);
    static Instruction syscall();
    /** MOV rd, rs == ADDI rd, rs, 0. */
    static Instruction move(unsigned rd, unsigned rs);
    static Instruction nop();

    // --- Operand queries (renaming interface) -----------------------
    /** Number of logical source registers (0..2). */
    unsigned numSrcs() const;
    /** The i-th logical source register. */
    LogReg src(unsigned i) const;
    /** True iff the instruction writes an architectural register. */
    bool hasDest() const;
    /** Destination logical register (only valid when hasDest()). */
    LogReg dest() const;

    // --- RENO-relevant idioms ----------------------------------------
    /** Register move: ADDI with immediate 0 (and a real destination). */
    bool isMove() const { return op == Opcode::ADDI && imm == 0; }
    /** RENO_CF folding candidate: any register-immediate addition. */
    bool isCfCandidate() const
    {
        return opInfo(op).cfCandidate && hasDest();
    }

    const OpInfo &info() const { return opInfo(op); }

    bool operator==(const Instruction &other) const = default;

  private:
    /** Out-of-line (cold) report of src() past the last source. */
    [[noreturn, gnu::cold]] static void noSuchSource(unsigned i);
};

inline unsigned
Instruction::numSrcs() const
{
    switch (info().fmt) {
      case InstFormat::R:
        return 2;
      case InstFormat::I:
        return op == Opcode::LUI ? 0 : 1;
      case InstFormat::Mem:
        return isStore(op) ? 2 : 1;
      case InstFormat::Branch:
        return op == Opcode::BR ? 0 : 1;
      case InstFormat::Jump:
        return op == Opcode::BSR ? 0 : 1;
      case InstFormat::None:
        // SYSCALL reads v0 (the number) and a0 (the argument).
        return 2;
    }
    return 0;
}

inline LogReg
Instruction::src(unsigned i) const
{
    switch (info().fmt) {
      case InstFormat::R:
        return i == 0 ? ra : rb;
      case InstFormat::I:
      case InstFormat::Branch:
      case InstFormat::Jump:
        return ra;
      case InstFormat::Mem:
        // Source 0 is the address base; source 1 (stores) is the data.
        return i == 0 ? ra : rb;
      case InstFormat::None:
        return i == 0 ? RegV0 : RegA0;
    }
    noSuchSource(i);
}

inline bool
Instruction::hasDest() const
{
    switch (info().fmt) {
      case InstFormat::R:
      case InstFormat::I:
        return rc != RegZero;
      case InstFormat::Mem:
        return isLoad(op) && rc != RegZero;
      case InstFormat::Jump:
        return isCall(op) && rc != RegZero;
      case InstFormat::Branch:
        return false;
      case InstFormat::None:
        // SYSCALL writes its return value to v0.
        return true;
    }
    return false;
}

inline LogReg
Instruction::dest() const
{
    return info().fmt == InstFormat::None ? RegV0 : rc;
}

/** Encode to the 32-bit binary format. */
std::uint32_t encode(const Instruction &inst);

/** Decode from the 32-bit binary format. Panics on a bad opcode field. */
Instruction decode(std::uint32_t word);

/**
 * Disassemble for tracing. @p pc is used to render branch targets as
 * absolute addresses; pass 0 to render relative offsets.
 */
std::string disassemble(const Instruction &inst, Addr pc = 0);

} // namespace reno
