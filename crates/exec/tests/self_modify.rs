//! Self-modifying code through the decode-once layer.
//!
//! The decoded side-car table memoizes `Instr::decode` per word address, so
//! a store into instruction memory must drop the stale entry — in the
//! pipeline (`phase_mem`), in the reference interpreter (`write_mem`), and
//! on the direct `Machine::write_word` test-setup path. This test runs a
//! program that overwrites one of its own instructions and checks that all
//! three execution paths observe the *new* instruction.
//!
//! Layout note: the patched word sits six words after the store. The store
//! retires from the MEM stage three cycles after its own fetch (and memory
//! phases run before the fetch phase within a cycle), and the icache's
//! 2-word fetch-back can validate at most one word ahead of the fetch
//! stream — so nothing can capture a stale copy of the patch site before
//! the store lands.

use mipsx_asm::Program;
use mipsx_core::{Machine, MachineConfig};
use mipsx_exec::{CheckedBackend, ExecBackend};
use mipsx_isa::{Instr, Reg};
use mipsx_ref::RefMachine;

const ORIGIN: u32 = 0x100;
const PATCH: u32 = ORIGIN + 8;
const DATA: u32 = ORIGIN + 12;

fn li(rd: u8, imm: i32) -> Instr {
    Instr::Addi {
        rs1: Reg::ZERO,
        rd: Reg::new(rd),
        imm,
    }
}

/// The word the program stores over its own text: `li r2, 99`.
fn new_instr() -> Instr {
    li(2, 99)
}

/// A straight-line program that patches `li r2, 55` into `li r2, 99`
/// before executing it. The replacement encoding is embedded in the image
/// as a data word (every word decodes — data words round-trip through
/// `Instr::Illegal`).
fn self_patching_program() -> Program {
    let words = vec![
        Instr::Ld {
            rs1: Reg::ZERO,
            rd: Reg::new(1),
            offset: DATA as i32,
        }
        .encode(),
        Instr::Nop.encode(), // load delay slot
        Instr::St {
            rs1: Reg::ZERO,
            rsrc: Reg::new(1),
            offset: PATCH as i32,
        }
        .encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        li(2, 55).encode(), // PATCH: overwritten before it is fetched
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        Instr::Halt.encode(),
        new_instr().encode(), // DATA: the replacement word, never executed
    ];
    assert_eq!(words[(PATCH - ORIGIN) as usize], li(2, 55).encode());
    Program::from_words(ORIGIN, words)
}

#[test]
fn machine_store_invalidates_decoded_entry() {
    let program = self_patching_program();
    let mut m = Machine::new(MachineConfig::default());
    m.load_program(&program);
    m.run(10_000).expect("runs to halt");
    assert_eq!(m.read_word(PATCH), new_instr().encode(), "store landed");
    assert_eq!(
        m.cpu().reg(Reg::new(2)),
        99,
        "pipeline executed the new instruction"
    );
}

#[test]
fn machine_without_decode_cache_agrees() {
    let program = self_patching_program();
    let mut m = Machine::new(MachineConfig::default());
    m.set_decode_cache_enabled(false);
    m.load_program(&program);
    m.run(10_000).expect("runs to halt");
    assert_eq!(m.cpu().reg(Reg::new(2)), 99, "word-decode baseline agrees");
}

#[test]
fn reference_model_store_invalidates_decoded_entry() {
    let program = self_patching_program();
    let mut r = RefMachine::new(MachineConfig::default().exception_vector);
    r.load_program(&program);
    for _ in 0..10_000 {
        r.step_retire();
        if r.halted() {
            break;
        }
    }
    assert!(r.halted(), "reference model halts");
    assert_eq!(r.mem_word(PATCH), new_instr().encode());
    assert_eq!(
        r.reg(Reg::new(2)),
        99,
        "reference model executed the new instruction"
    );
}

#[test]
fn lockstep_agrees_on_self_modifying_code() {
    let program = self_patching_program();
    let mut m = Machine::new(MachineConfig::default());
    m.load_program(&program);
    let mut checked = CheckedBackend::new(&m, &program);
    checked
        .run(&mut m, 10_000)
        .and_then(|_| checked.final_check(&m))
        .expect("no divergence on self-modifying code");
    assert_eq!(m.cpu().reg(Reg::new(2)), 99);
    assert_eq!(checked.shadow().oracle().reg(Reg::new(2)), 99);
}

#[test]
fn write_word_invalidates_decoded_entry() {
    // Direct image patching (the install_handler path): `write_word` must
    // drop any cached entry for the patched address, even one cached by a
    // fetch between loading and patching.
    let program = self_patching_program();
    let mut m = Machine::new(MachineConfig::default());
    m.load_program(&program);
    // Overwrite the *store* with a nop so only the direct patch applies,
    // and patch the target by hand to `li r2, 77`.
    m.write_word(ORIGIN + 2, Instr::Nop.encode());
    m.write_word(PATCH, li(2, 77).encode());
    m.run(10_000).expect("runs to halt");
    assert_eq!(
        m.cpu().reg(Reg::new(2)),
        77,
        "direct write_word patch is visible"
    );
}
