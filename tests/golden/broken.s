; Deliberately broken program for the `mipsx lint` golden test.
; Each section violates a different rule of the pipeline contract; the
; expected diagnostic listing is checked into broken.lint next to this
; file (regenerate with UPDATE_GOLDEN=1).
        .entry main
main:   li r20, 64
        ld r1, 0(r20)
        add r2, r1, r1        ; load-use in the load delay slot
        ld r3, 1(r20)
        bne r3, r0, squashy   ; branch sources resolve early: same hazard
        nop
        nop
squashy:
        beqsq r1, r2, chain
        st r2, 2(r20)         ; a store cannot be annulled
        addi r0, r1, 1        ; writes the hardwired zero register
; A multiply that runs to completion, then an MD write one fetch behind
; its last step (on the fall-through path of the branch above).
        movtos md, r1
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        mstep r11, r12, r11
        movtos md, r13        ; overwritten by the last step's MD write-back
        add r14, r12, r12
chain:  movtos md, r1
        mstep r4, r5, r4
        mstep r4, r5, r4
        movtos md, r6         ; clobbers the partial product mid-chain
        mstep r4, r5, r4
        add r7, r8, r9
        nop                   ; pads no load: redundant (timing lint)
        add r10, r8, r9
        halt
