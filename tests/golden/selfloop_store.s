; The self-modifying loop probe: the loop body is one block whose taken
; successor is itself, and every trip stores into that body. The store
; rewrites the loop's first word with the instruction at `bump2`, so the
; first trip adds 1 to r3 and the four after it add 2 each: r3 ends at 9.
; The store lands five fetches before the next fetch of the word it
; rewrites, behind the pipeline's shadow, so every engine sees the new
; word on the next trip. `mipsx run --engine checked` must agree with
; the machine, and `--engine block` must halt in the same state as
; `--engine interp`, caches included.
        .entry main
main:   li r1, 5              ; trips
        li r3, 0              ; accumulator
        ld r5, bump2(r0)      ; the replacement word
loop:   addi r3, r3, 1        ; rewritten by the store below
        st r5, loop(r0)       ; store into the loop's own body
        addi r1, r1, -1
        bne r1, r0, loop
        nop
        nop
        halt
        nop                   ; the halt's fetch shadow
        nop
        nop
bump2:  addi r3, r3, 2        ; data: the replacement instruction
