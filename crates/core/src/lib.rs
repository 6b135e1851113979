//! # mipsx-core — the cycle-accurate MIPS-X pipeline
//!
//! This crate is the processor itself: the five-stage pipeline (IF, RF, ALU,
//! MEM, WB) with
//!
//! - **two-level bypassing** and **delayed write-back** (*"instructions only
//!   change machine state during their last pipeline cycle, making exception
//!   handling much easier"*),
//! - the **squash FSM** and **cache-miss FSM** of the paper's Figures 3
//!   and 4 — the only two finite state machines in the whole control
//!   section,
//! - the **PC unit**: displacement adder, incrementer, and the three-deep PC
//!   shift chain used to restart the machine after an exception,
//! - **exception handling** by pipeline halt: nothing in flight completes,
//!   PC ← 0, the PC chain freezes, PSW → PSWold, and the handler returns via
//!   three special jumps through the chain,
//! - the **qualified clock (ψ1)** stall model: an instruction- or
//!   external-cache miss withholds ψ1 and the entire pipeline freezes in
//!   place — there are no bubbles, only frozen cycles,
//! - the **coprocessor interface** driving up to seven coprocessors over the
//!   address pins, and
//! - software-visible interlocks: like the real machine, the hardware does
//!   not interlock a load-use hazard — the code reorganizer must schedule
//!   around it. [`InterlockPolicy::Detect`] turns violations into errors for
//!   testing; [`InterlockPolicy::Trust`] models the silicon (the stale value
//!   is read).
//!
//! ## Example
//!
//! ```
//! use mipsx_asm::assemble;
//! use mipsx_core::{Machine, MachineConfig};
//! use mipsx_isa::Reg;
//!
//! let program = assemble("li r1, 20\nli r2, 22\nadd r3, r1, r2\nhalt")?;
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load_program(&program);
//! let stats = machine.run(1_000)?;
//! assert_eq!(machine.cpu().reg(Reg::new(3)), 42);
//! assert!(stats.instructions > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod cpu;
mod error;
mod fsm;
pub mod inject;
mod machine;
pub mod probe;
pub mod snapshot;
mod stats;

pub use config::{InterlockPolicy, MachineConfig, SimConfig};
pub use cpu::{Cpu, PcChainEntry};
pub use error::RunError;
pub use fsm::{CacheMissFsm, CacheMissState, SquashFsm, SquashLines};
pub use inject::{FaultEvent, FaultKind, FaultPlan};
pub use machine::Machine;
#[doc(hidden)]
pub use mipsx_mem::counters;
pub use probe::{
    CpiAttribution, JsonlSink, NullSink, PipeDiagram, SquashReason, Stage, StallCause, TraceSink,
};
pub use snapshot::{SnapshotError, SnapshotInfo, SNAPSHOT_VERSION};
pub use stats::RunStats;
