#include "isa/opcodes.hpp"

#include "common/log.hpp"

namespace reno
{

namespace detail
{

void
badOpcode(unsigned idx)
{
    panic("opInfo: bad opcode %u", idx);
}

} // namespace detail

std::string_view
mnemonic(Opcode op)
{
    return opInfo(op).mnemonic;
}

Opcode
opcodeFromMnemonic(std::string_view name)
{
    for (unsigned i = 0; i < NumOpcodeValues; ++i) {
        if (detail::opTable[i].mnemonic == name)
            return static_cast<Opcode>(i);
    }
    return Opcode::NumOpcodes;
}

} // namespace reno
