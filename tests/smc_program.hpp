/**
 * @file
 * A self-modifying test program shared by the decoded-engine and
 * warming tests.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/log.hpp"
#include "isa/inst.hpp"

namespace reno
{

/** A hot loop that, halfway through, overwrites its own increment
 *  instruction (addi r1, r1, 1 -> addi r1, r1, 2). Iterations 1..50
 *  add 1, 51..100 add 2: prints 150 iff the patch takes effect. */
inline std::string
smcSource()
{
    const std::uint32_t patched =
        encode(Instruction::ri(Opcode::ADDI, 1, 1, 2));
    return strprintf(R"(
_start:
    li r1, 0
    li r2, 0
    la r3, patchme
    li r4, %u
    li r5, 100
loop:
patchme:
    addi r1, r1, 1
    addi r2, r2, 1
    seqi r6, r2, 50
    beq r6, skip
    stl r4, 0(r3)
skip:
    slt r6, r2, r5
    bne r6, loop
    mov a0, r1
    li v0, 1
    syscall
    li v0, 0
    syscall
)", patched);
}

} // namespace reno
