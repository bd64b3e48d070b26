/**
 * @file
 * Opcode definitions for the RENO ISA: a 64-bit Alpha-like RISC.
 *
 * The properties RENO cares about are attached here:
 *  - register moves are register-immediate additions with immediate 0
 *    (ADDI rd, rs, 0), exactly as the paper assumes;
 *  - immediates are 16 bits, so RENO_CF displacements are 16 bits;
 *  - each opcode carries an execution class, a latency, and fusion
 *    attributes for RENO_CF timing (paper section 3.3).
 */
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace reno
{

/** Execution class; controls issue slot usage and base latency. */
enum class InstClass : std::uint8_t {
    IntAlu,     //!< single-cycle integer ALU operation
    IntMul,     //!< pipelined multiply
    IntDiv,     //!< unpipelined divide
    Load,       //!< memory load
    Store,      //!< memory store
    CtrlCond,   //!< conditional branch
    CtrlUncond, //!< unconditional direct jump
    CtrlCall,   //!< call (direct or indirect), writes the link register
    CtrlRet,    //!< indirect jump (return or computed jump)
    Syscall,    //!< system call; serializes the pipeline
};

/** Instruction encoding format. */
enum class InstFormat : std::uint8_t {
    R,       //!< op rc <- ra, rb
    I,       //!< op rc <- ra, imm16
    Mem,     //!< load rc <- imm16(ra) / store rb -> imm16(ra)
    Branch,  //!< op ra, imm16 (pc-relative, instruction units)
    Jump,    //!< op rc, (ra) indirect; or op imm16 direct
    None,    //!< no operands (syscall)
};

/**
 * Opcodes of the RENO ISA. MOV/NOP/LI/LA are assembler pseudo-ops that
 * expand to these (MOV rd,rs == ADDI rd,rs,0).
 */
enum class Opcode : std::uint8_t {
    // Register-register integer ALU.
    ADD, SUB, MUL, DIV, DIVU, REM,
    AND, OR, XOR, BIC,
    SLL, SRL, SRA,
    SEQ, SLT, SLE, SLTU, SLEU,
    // Register-immediate integer ALU (16-bit signed immediates).
    ADDI, MULI,
    ANDI, ORI, XORI,
    SLLI, SRLI, SRAI,
    SEQI, SLTI, SLEI, SLTUI, SLEUI,
    LUI,          //!< rc = imm16 << 16
    // Memory.
    LDQ, LDL, LDBU,
    STQ, STL, STB,
    // Control: conditional branches compare ra against zero.
    BEQ, BNE, BLT, BGE, BLE, BGT,
    BR,           //!< unconditional pc-relative branch
    BSR,          //!< direct call, rc = return address
    JSR,          //!< indirect call through ra, rc = return address
    JMP,          //!< indirect jump through ra (also used for RET)
    SYSCALL,
    NumOpcodes,
};

constexpr unsigned NumOpcodeValues =
    static_cast<unsigned>(Opcode::NumOpcodes);

/** Static properties of an opcode. */
struct OpInfo {
    std::string_view mnemonic;
    InstClass cls;
    InstFormat fmt;
    unsigned latency;   //!< execute latency in cycles (loads: agen only)
    unsigned memSize;   //!< access size in bytes for loads/stores, else 0
    bool signedLoad;    //!< sign-extend loaded value (LDL)
    /**
     * RENO_CF candidate: a register-immediate addition. Only these are
     * folded into map-table displacements (paper section 2.3). Includes
     * register moves since MOV == ADDI with immediate 0.
     */
    bool cfCandidate;
    /**
     * Fusion penalty class: true for general shifts, multiplies and
     * divides; a deferred displacement on an input of such an operation
     * costs one extra cycle (paper section 3.3). Add-like operations,
     * address generation, store data and branch direction paths absorb
     * the displacement for free via 3-input / extra 2-input adders.
     */
    bool fusePenalty;
};

namespace detail
{

using IC = InstClass;
using IF = InstFormat;

// mnemonic, class, format, latency, memSize, signedLoad, cf, fusePenalty
inline constexpr std::array<OpInfo, NumOpcodeValues> opTable = {{
    {"add",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sub",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"mul",    IC::IntMul, IF::R, 3, 0, false, false, true},
    {"div",    IC::IntDiv, IF::R, 20, 0, false, false, true},
    {"divu",   IC::IntDiv, IF::R, 20, 0, false, false, true},
    {"rem",    IC::IntDiv, IF::R, 20, 0, false, false, true},
    {"and",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"or",     IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"xor",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"bic",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sll",    IC::IntAlu, IF::R, 1, 0, false, false, true},
    {"srl",    IC::IntAlu, IF::R, 1, 0, false, false, true},
    {"sra",    IC::IntAlu, IF::R, 1, 0, false, false, true},
    {"seq",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"slt",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sle",    IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sltu",   IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"sleu",   IC::IntAlu, IF::R, 1, 0, false, false, false},
    {"addi",   IC::IntAlu, IF::I, 1, 0, false, true,  false},
    {"muli",   IC::IntMul, IF::I, 3, 0, false, false, true},
    {"andi",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"ori",    IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"xori",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"slli",   IC::IntAlu, IF::I, 1, 0, false, false, true},
    {"srli",   IC::IntAlu, IF::I, 1, 0, false, false, true},
    {"srai",   IC::IntAlu, IF::I, 1, 0, false, false, true},
    {"seqi",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"slti",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"slei",   IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"sltui",  IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"sleui",  IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"lui",    IC::IntAlu, IF::I, 1, 0, false, false, false},
    {"ldq",    IC::Load,  IF::Mem, 1, 8, false, false, false},
    {"ldl",    IC::Load,  IF::Mem, 1, 4, true,  false, false},
    {"ldbu",   IC::Load,  IF::Mem, 1, 1, false, false, false},
    {"stq",    IC::Store, IF::Mem, 1, 8, false, false, false},
    {"stl",    IC::Store, IF::Mem, 1, 4, false, false, false},
    {"stb",    IC::Store, IF::Mem, 1, 1, false, false, false},
    {"beq",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"bne",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"blt",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"bge",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"ble",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"bgt",    IC::CtrlCond,   IF::Branch, 1, 0, false, false, false},
    {"br",     IC::CtrlUncond, IF::Branch, 1, 0, false, false, false},
    {"bsr",    IC::CtrlCall,   IF::Jump,   1, 0, false, false, false},
    {"jsr",    IC::CtrlCall,   IF::Jump,   1, 0, false, false, false},
    {"jmp",    IC::CtrlRet,    IF::Jump,   1, 0, false, false, false},
    {"syscall", IC::Syscall,   IF::None,   1, 0, false, false, false},
}};

/** Out-of-line (cold) report of an out-of-range opcode. */
[[noreturn, gnu::cold]] void badOpcode(unsigned idx);

} // namespace detail

/** Table of opcode properties, indexed by Opcode. Inline: the timing
 *  model and the emulator query it on every instruction. */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto idx = static_cast<unsigned>(op);
    if (idx >= NumOpcodeValues) [[unlikely]]
        detail::badOpcode(idx);
    return detail::opTable[idx];
}

/** Convenience accessors. */
inline bool isLoad(Opcode op) { return opInfo(op).cls == InstClass::Load; }
inline bool isStore(Opcode op) { return opInfo(op).cls == InstClass::Store; }

inline bool
isMemOp(Opcode op)
{
    return isLoad(op) || isStore(op);
}

inline bool
isControl(Opcode op)
{
    const InstClass c = opInfo(op).cls;
    return c == InstClass::CtrlCond || c == InstClass::CtrlUncond ||
           c == InstClass::CtrlCall || c == InstClass::CtrlRet;
}

inline bool
isCondBranch(Opcode op)
{
    return opInfo(op).cls == InstClass::CtrlCond;
}

inline bool
isCall(Opcode op)
{
    return opInfo(op).cls == InstClass::CtrlCall;
}

/** Mnemonic for an opcode. */
std::string_view mnemonic(Opcode op);

/** Look up an opcode by mnemonic; returns NumOpcodes if unknown. */
Opcode opcodeFromMnemonic(std::string_view name);

} // namespace reno
