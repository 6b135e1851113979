//! # mipsx-ref — functional reference model and lockstep differ
//!
//! The paper's exception story rests on one claim: because *"instructions
//! only change machine state during their last pipeline cycle"*, an
//! exception can kill everything in flight, save three PCs in the shift
//! chain, and later replay them — *"all instructions are restartable"*.
//! This crate is the apparatus that checks the claim mechanically:
//!
//! - [`RefMachine`] — a functional interpreter of the MIPS-X ISA with no
//!   pipeline, caches or stalls. It knows only what the ISA makes
//!   architectural: delay slots, squashing, the PC chain, and the PSW
//!   exception rules.
//! - [`Shadow`] — follows a caller-owned cycle-accurate pipeline with the
//!   reference model over the same program and the same injected-fault
//!   schedule (interrupts, NMIs, Icache parity refetches, Ecache latency
//!   jitter, coprocessor-busy stalls), comparing every retirement and the
//!   final architectural state. The first disagreement becomes a
//!   [`Divergence`] report.
//!
//! `mipsx-exec`'s `CheckedBackend` runs a machine under a [`Shadow`]; the
//! `mipsx soak` subcommand drives it over random programs and random fault
//! plans, and `crates/exec/tests/lockstep.rs` drives it over the workload
//! kernels and proves a deliberately corrupted restart path is caught.

mod differ;
mod interp;

pub use differ::{Divergence, Shadow, NULL_HANDLER};
pub use interp::{RefMachine, RetireStep};
