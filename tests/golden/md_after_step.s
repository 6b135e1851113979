; The unpadded MD probe: a 32-step multiply whose last step is followed
; immediately by a `movtos md`. The step writes MD back at WB, after the
; `movtos` has committed at ALU, so the written value is lost on the
; machine; `mipsx lint` must report `md-write-after-step` here.
        .entry main
main:   li r1, 21             ; multiplicand
        li r2, 2              ; multiplier
        movtos md, r2
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
        mstep r3, r1, r3
        mstep r3, r1, r3
        movtos md, r1         ; one fetch behind the last step
        movfrs r4, md
        halt
