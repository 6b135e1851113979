; The return MD probe: a callee ends its 32-step multiply in the delay
; slots of its return, and the caller's continuation writes MD at once.
; The last step writes MD back at WB, after the `movtos` at the return
; landing has committed at ALU, so the written value is lost on the
; machine; `mipsx lint` must report `md-write-after-step` at the landing.
; The callee comes first so that nothing but zero words follows the halt.
        .entry main
mul:    movtos md, r2
        li r3, 0
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        mstep r3, r1, r3
        ret
        mstep r3, r1, r3
        mstep r3, r1, r3
main:   li r1, 21             ; multiplicand
        li r2, 2              ; multiplier
        li r10, 7
        call mul
        nop
        nop
        movtos md, r10        ; one fetch behind the callee's last step
        movfrs r4, md
        halt
