#include "isa/inst.hpp"

#include "common/log.hpp"
#include "isa/regs.hpp"

namespace reno
{

namespace
{

void
checkReg(unsigned r)
{
    if (r >= NumLogRegs)
        panic("bad register index %u", r);
}

void
checkImm(std::int32_t imm)
{
    if (!fitsSigned(imm, 16))
        panic("immediate %d does not fit in 16 bits", imm);
}

} // namespace

Instruction
Instruction::rr(Opcode op, unsigned rc, unsigned ra, unsigned rb)
{
    checkReg(rc); checkReg(ra); checkReg(rb);
    Instruction i;
    i.op = op;
    i.ra = static_cast<std::uint8_t>(ra);
    i.rb = static_cast<std::uint8_t>(rb);
    i.rc = static_cast<std::uint8_t>(rc);
    return i;
}

Instruction
Instruction::ri(Opcode op, unsigned rc, unsigned ra, std::int32_t imm)
{
    checkReg(rc); checkReg(ra); checkImm(imm);
    Instruction i;
    i.op = op;
    i.ra = static_cast<std::uint8_t>(ra);
    i.rc = static_cast<std::uint8_t>(rc);
    i.imm = imm;
    return i;
}

Instruction
Instruction::mem(Opcode op, unsigned reg, unsigned base, std::int32_t imm)
{
    checkReg(reg); checkReg(base); checkImm(imm);
    Instruction i;
    i.op = op;
    i.ra = static_cast<std::uint8_t>(base);
    if (isStore(op))
        i.rb = static_cast<std::uint8_t>(reg);
    else
        i.rc = static_cast<std::uint8_t>(reg);
    i.imm = imm;
    return i;
}

Instruction
Instruction::branch(Opcode op, unsigned ra, std::int32_t imm)
{
    checkReg(ra); checkImm(imm);
    Instruction i;
    i.op = op;
    i.ra = static_cast<std::uint8_t>(ra);
    i.imm = imm;
    return i;
}

Instruction
Instruction::jump(Opcode op, unsigned rc, unsigned ra, std::int32_t imm)
{
    checkReg(rc); checkReg(ra); checkImm(imm);
    Instruction i;
    i.op = op;
    i.ra = static_cast<std::uint8_t>(ra);
    i.rc = static_cast<std::uint8_t>(rc);
    i.imm = imm;
    return i;
}

Instruction
Instruction::syscall()
{
    Instruction i;
    i.op = Opcode::SYSCALL;
    return i;
}

Instruction
Instruction::move(unsigned rd, unsigned rs)
{
    return ri(Opcode::ADDI, rd, rs, 0);
}

Instruction
Instruction::nop()
{
    return ri(Opcode::ADDI, RegZero, RegZero, 0);
}

void
Instruction::noSuchSource(unsigned i)
{
    panic("src(%u) on instruction with no sources", i);
}

std::uint32_t
encode(const Instruction &inst)
{
    const auto opc = static_cast<std::uint32_t>(inst.op);
    std::uint32_t word = opc << 26;
    word |= static_cast<std::uint32_t>(inst.ra) << 21;
    if (inst.info().fmt == InstFormat::R) {
        word |= static_cast<std::uint32_t>(inst.rb) << 16;
        word |= static_cast<std::uint32_t>(inst.rc);
    } else {
        const std::uint8_t rx = isStore(inst.op) ? inst.rb : inst.rc;
        word |= static_cast<std::uint32_t>(rx) << 16;
        word |= static_cast<std::uint32_t>(inst.imm) & 0xffff;
    }
    return word;
}

Instruction
decode(std::uint32_t word)
{
    const unsigned opc = word >> 26;
    if (opc >= NumOpcodeValues)
        panic("decode: bad opcode field %u in word 0x%08x", opc, word);
    Instruction inst;
    inst.op = static_cast<Opcode>(opc);
    inst.ra = static_cast<std::uint8_t>((word >> 21) & 0x1f);
    if (inst.info().fmt == InstFormat::R) {
        inst.rb = static_cast<std::uint8_t>((word >> 16) & 0x1f);
        inst.rc = static_cast<std::uint8_t>(word & 0x1f);
    } else {
        const auto rx = static_cast<std::uint8_t>((word >> 16) & 0x1f);
        if (isStore(inst.op))
            inst.rb = rx;
        else
            inst.rc = rx;
        inst.imm = static_cast<std::int32_t>(signExtend(word & 0xffff, 16));
    }
    return inst;
}

std::string
disassemble(const Instruction &inst, Addr pc)
{
    const auto m = std::string(mnemonic(inst.op));
    const auto r = [](unsigned reg) { return regAbiName(
        static_cast<LogReg>(reg)); };
    const std::int64_t target =
        static_cast<std::int64_t>(pc) + 4 + std::int64_t{inst.imm} * 4;

    switch (inst.info().fmt) {
      case InstFormat::R:
        return strprintf("%s %s, %s, %s", m.c_str(), r(inst.rc).c_str(),
                         r(inst.ra).c_str(), r(inst.rb).c_str());
      case InstFormat::I:
        if (inst.op == Opcode::LUI) {
            return strprintf("%s %s, %d", m.c_str(), r(inst.rc).c_str(),
                             inst.imm);
        }
        if (inst.isMove()) {
            return strprintf("mov %s, %s", r(inst.rc).c_str(),
                             r(inst.ra).c_str());
        }
        return strprintf("%s %s, %s, %d", m.c_str(), r(inst.rc).c_str(),
                         r(inst.ra).c_str(), inst.imm);
      case InstFormat::Mem: {
        const unsigned reg = isStore(inst.op) ? inst.rb : inst.rc;
        return strprintf("%s %s, %d(%s)", m.c_str(), r(reg).c_str(),
                         inst.imm, r(inst.ra).c_str());
      }
      case InstFormat::Branch:
        if (inst.op == Opcode::BR)
            return strprintf("%s 0x%llx", m.c_str(),
                             static_cast<unsigned long long>(target));
        return strprintf("%s %s, 0x%llx", m.c_str(), r(inst.ra).c_str(),
                         static_cast<unsigned long long>(target));
      case InstFormat::Jump:
        if (inst.op == Opcode::BSR) {
            return strprintf("%s %s, 0x%llx", m.c_str(), r(inst.rc).c_str(),
                             static_cast<unsigned long long>(target));
        }
        if (inst.op == Opcode::JSR) {
            return strprintf("%s %s, (%s)", m.c_str(), r(inst.rc).c_str(),
                             r(inst.ra).c_str());
        }
        return strprintf("%s (%s)", m.c_str(), r(inst.ra).c_str());
      case InstFormat::None:
        return m;
    }
    return m;
}

} // namespace reno
