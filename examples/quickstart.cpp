/**
 * @file
 * Quickstart: assemble a small program, run it functionally, then run
 * it through the cycle-level core (a 1-core System) with and without
 * RENO and compare.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/quickstart
 */
#include <cstdio>

#include "asm/assembler.hpp"
#include "emu/emulator.hpp"
#include "sys/system.hpp"

namespace
{

// A loop whose body is full of RENO food: a register move, several
// register-immediate additions (address arithmetic and loop control),
// and stack spill/reload pairs around a helper call.
const char *const program = R"(
        .data
array:  .space 8192
        .text
# sum3(a0 = base) -> v0 = arr[0] + arr[8] + arr[16]
sum3:
        ldq  t0, 0(a0)
        ldq  t1, 8(a0)
        ldq  t2, 16(a0)
        add  v0, t0, t1
        add  v0, v0, t2
        ret
_start:
        la   s0, array
        # fill the array with random small values (they double as
        # pointer-chase offsets, so iterations are data dependent the
        # way linked-structure code is)
        li   t0, 0
fill:
        li   v0, 5
        syscall
        andi t1, v0, 1023
        slli t2, t0, 3
        add  t3, s0, t2
        stq  t1, 0(t3)
        addi t0, t0, 1
        slti t4, t0, 1024
        bne  t4, fill

        li   s1, 1000         # iterations
        li   s2, 0            # checksum
        mov  s3, s0           # chase pointer
        subi sp, sp, 16       # loop frame            (RENO_CF)
loop:
        stq  s3, 8(sp)        # spill the pointer
        add  s2, s2, s1       # off-chain bookkeeping
        ldq  t4, 8(sp)        # reload it             (RENO_RA)
        stq  ra, 0(sp)
        mov  a0, t4           # argument move         (RENO_ME)
        call sum3
        ldq  ra, 0(sp)        # reload                (RENO_RA)
        andi t5, v0, 1020     # next element index
        slli t5, t5, 3
        add  s3, s0, t5       # data-dependent walk
        add  s2, s2, v0
        subi s1, s1, 1
        bne  s1, loop
        addi sp, sp, 16
        li   v0, 1
        mov  a0, s2
        syscall
        li   v0, 0
        li   a0, 0
        syscall
)";

void
report(const char *name, const reno::SimResult &r)
{
    std::printf("%-10s cycles=%-8llu IPC=%.3f eliminated=%.1f%% "
                "(ME %.1f%%, CF %.1f%%, CSE+RA %.1f%%)\n",
                name,
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                r.elimFraction() * 100.0,
                r.elimFraction(reno::ElimKind::Move) * 100.0,
                r.elimFraction(reno::ElimKind::Fold) * 100.0,
                (r.elimFraction(reno::ElimKind::Cse) +
                 r.elimFraction(reno::ElimKind::Ra)) * 100.0);
}

} // namespace

int
main()
{
    using namespace reno;

    const Program prog = assemble(program);

    // 1. Functional run: the architectural reference.
    Emulator ref(prog);
    ref.run();
    std::printf("functional: %llu instructions, output \"%s\"\n",
                static_cast<unsigned long long>(ref.instCount()),
                ref.output().c_str());

    // 2. Cycle-level baseline (RENO disabled), on a 1-core System.
    Emulator emu_base(prog);
    System base(CoreParams::fourWide(), {&emu_base});
    const SimResult r_base = base.run();
    report("baseline", r_base);

    // 3. Full RENO.
    Emulator emu_reno(prog);
    CoreParams params = CoreParams::fourWide();
    params.reno = RenoConfig::full();
    System reno_sys(params, {&emu_reno});
    const SimResult r_reno = reno_sys.run();
    report("RENO", r_reno);

    if (emu_base.output() != ref.output() ||
        emu_reno.output() != ref.output()) {
        std::printf("ERROR: outputs diverged!\n");
        return 1;
    }
    std::printf("all outputs match; RENO speedup: %.1f%%\n",
                (double(r_base.cycles) / double(r_reno.cycles) - 1.0) *
                    100.0);
    return 0;
}
