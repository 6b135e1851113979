; The halt fetch-shadow illegal-word probe: the program never flows past
; the `halt`, but the pipeline fetches the two words behind it before the
; `halt` retires, and both reach ALU, which traps on a word that does not
; decode. `mipsx run` faults here (`illegal instruction 0xffffffff at
; 0x2`), so `mipsx lint` must report `illegal-instr` on the word.
        .entry main
main:   li r1, 5
        halt
        .word 0xffffffff      ; fetched in the halt's shadow
