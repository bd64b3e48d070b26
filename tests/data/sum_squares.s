# Sum of squares 1..500 through a helper call: argument and result
# moves (RENO_ME), stack-pointer and loop-counter immediates (RENO_CF)
# and a spill/reload pair around the call (RENO_RA). Prints 41791750.
        .text
square:
        mul  v0, a0, a0
        ret
_start:
        li   s0, 500          # n
        li   s1, 0            # sum
loop:
        subi sp, sp, 8
        stq  s0, 0(sp)        # spill n
        mov  a0, s0
        call square
        ldq  s0, 0(sp)        # reload n
        addi sp, sp, 8
        add  s1, s1, v0
        subi s0, s0, 1
        bne  s0, loop
        li   v0, 1
        mov  a0, s1
        syscall
        li   v0, 0
        li   a0, 0
        syscall
