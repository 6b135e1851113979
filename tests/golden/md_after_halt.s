; The halt-shadow MD probe: a `movtos md` fetched right behind the `halt`.
; The pipeline keeps fetching after the `halt`, and the `movtos` reaches
; ALU, where it commits MD, before the `halt` retires from WB, so the run
; ends with MD = 5. `mipsx lint` reports nothing here, and
; `mipsx run --engine checked` must agree with the machine.
        .entry main
main:   li r1, 5
        halt
        movtos md, r1         ; fetched in the halt's shadow
