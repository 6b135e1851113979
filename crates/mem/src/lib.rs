//! # mipsx-mem — the MIPS-X memory hierarchy
//!
//! MIPS-X is memory-bandwidth limited by its package pins: *"At the projected
//! clock frequency of 20 MHz it is very difficult to satisfy instruction and
//! data fetch requirements across the available package pins."* The paper's
//! answer is a two-level hierarchy, fully modeled here:
//!
//! - [`Icache`]: the on-chip 512-word instruction cache — 8-way
//!   set-associative, 4 sets (rows), 16-word blocks, **sub-block placement**
//!   with one valid bit per word (512 valid bits, 32 tags), a 2-cycle miss
//!   service and a **double-word fetch-back** that almost halves the miss
//!   ratio. Every organization parameter is configurable so the paper's
//!   design sweep (block size, penalty, single vs double fetch) can be rerun.
//! - [`Ecache`]: the 64K-word external cache with the **late-miss protocol**:
//!   the hit/miss answer arrives a cycle after the access, and on a miss the
//!   processor *"would effectively go back and re-execute φ2 of MEM to try
//!   the access again"* until the data returns.
//! - [`MainMemory`]: a sparse word-addressed store behind the Ecache.
//!
//! The caches are usable in two modes: plugged into the cycle-accurate core
//! (`mipsx-core`), or driven directly by an address trace for the cache
//! organization experiments. A trace is given as sequential `(start, len)`
//! runs ([`Icache::simulate_runs`]) or one address per fetch
//! ([`Icache::simulate_trace`], which merges consecutive addresses into
//! runs); one kernel books each line a run touches in one step, in closed
//! form from the line's valid mask, exactly what word-by-word fetches
//! would.
//!
//! The Icache keeps each row's tags, valid masks and recency stamps in
//! parallel flat arrays, so a row scan reads only the row's tags, and a
//! miss scans its row once.

mod block_set;
mod ecache;
mod icache;
mod main_memory;
mod stats;

pub use ecache::{Ecache, EcacheConfig, EcacheState};
pub use icache::{FetchOutcome, HitMemo, Icache, IcacheConfig, IcacheState, Replacement};
pub use main_memory::{MainMemory, MainMemoryState};
pub use stats::{CacheStats, MissCause};
