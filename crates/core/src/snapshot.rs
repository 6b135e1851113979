//! Versioned, checksummed machine snapshots — checkpoint/restore.
//!
//! A snapshot serializes the *entire* mutable state of a [`Machine`] —
//! architectural CPU state, every pipeline latch, both control FSMs, the
//! instruction and external caches (tags, valid bits, replacement state,
//! statistics), every resident memory page, the run statistics, and
//! (optionally) the consumption progress of a [`FaultPlan`] — into a
//! self-describing binary image. A restored machine continues
//! **cycle-identically**: the differential suite proves `save → restore →
//! run` indistinguishable from an uninterrupted run, per-cycle trace
//! included.
//!
//! The one piece of state deliberately *not* serialized is the decode-once
//! fetch cache ([`DecodedMem`](mipsx_asm::DecodedMem)): it is rebuilt lazily
//! after restore. Every store to memory invalidates its address in that
//! cache, so its contents are always equivalent to a fresh decode of the
//! words in memory — only the enabled/disabled flag is architectural enough
//! to keep.
//!
//! ## Format
//!
//! Little-endian throughout:
//!
//! ```text
//! magic   "MXSN"        4 bytes
//! version u32           readers reject versions newer than their own
//! length  u64           payload length in bytes
//! payload               a sequence of sections
//! checksum u64          FNV-1a 64 over every preceding byte
//! ```
//!
//! The payload is a sequence of sections, each `tag [4 bytes] + body length
//! u64 + body`:
//!
//! | tag    | body |
//! |--------|------|
//! | `CFG ` | the full [`MachineConfig`] |
//! | `CPU ` | registers, PC, PC chain, PSW/PSWold, MD, machine flags |
//! | `PIPE` | the five pipeline latches (instruction word + stage results) |
//! | `FSM ` | cache-miss FSM state and both FSMs' instrumentation |
//! | `STAT` | [`RunStats`], field count prefixed |
//! | `ICHE` | instruction-cache tags/valid/replacement state + stats |
//! | `ECHE` | external-cache tags + stats |
//! | `MEM ` | resident memory pages, sorted by page number |
//! | `PLAN` | fault-plan events + consumption cursor (optional) |
//!
//! **Versioning policy:** readers skip sections with unknown tags, so a
//! same-version writer may *append* new sections without breaking old
//! readers; any change to an existing section's body layout bumps
//! [`SNAPSHOT_VERSION`]. A reader confronted with a newer version refuses
//! with [`SnapshotError::UnsupportedVersion`] rather than guessing.
//!
//! **Checksum policy:** the trailing FNV-1a 64 covers the header and the
//! whole payload. It is an integrity check against torn writes and bit rot,
//! not an authenticity check; a snapshot that passes it was produced intact
//! by [`Machine::save_snapshot`]. Corruption anywhere yields
//! [`SnapshotError::ChecksumMismatch`] before any state is interpreted.
//!
//! **Determinism:** the same machine state always encodes to the same
//! bytes. Hash-ordered collections (cache block sets, memory pages) are
//! sorted on capture, so `save(restore(save(m))) == save(m)` byte-for-byte
//! — the roundtrip tests rely on exactly this.
//!
//! **One layout per section:** each section's body is described once, as a
//! walk over its fields through a private `Wire` trait. The writer appends
//! every field the walk visits; the reader overwrites every field the walk
//! visits and enforces the rule the field carries (flag bytes 0/1, known
//! enum codes, fixed counts, capped allocations).
//! [`Machine::save_snapshot`], [`Machine::restore_snapshot`] and [`inspect`]
//! all go through the same walks, so the writer and the reader cannot
//! drift.

use std::fmt;

use mipsx_asm::DecodedEntry;
use mipsx_coproc::InterfaceScheme;
use mipsx_isa::{Psw, Reg, PC_CHAIN_DEPTH};
use mipsx_mem::{CacheStats, EcacheState, IcacheState, MainMemoryState, Replacement};

use crate::inject::{FaultEvent, FaultKind, FaultPlan};
use crate::machine::Slot;
use crate::{
    CacheMissFsm, CacheMissState, Cpu, InterlockPolicy, Machine, MachineConfig, RunStats, SquashFsm,
};

/// Current snapshot format version. Bumped whenever an existing section's
/// body layout changes; new sections may be appended without a bump.
pub const SNAPSHOT_VERSION: u32 = 1;

/// File magic: "MXSN" (MIPS-X SNapshot).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MXSN";

const TAG_CFG: [u8; 4] = *b"CFG ";
const TAG_CPU: [u8; 4] = *b"CPU ";
const TAG_PIPE: [u8; 4] = *b"PIPE";
const TAG_FSM: [u8; 4] = *b"FSM ";
const TAG_STAT: [u8; 4] = *b"STAT";
const TAG_ICACHE: [u8; 4] = *b"ICHE";
const TAG_ECACHE: [u8; 4] = *b"ECHE";
const TAG_MEM: [u8; 4] = *b"MEM ";
const TAG_PLAN: [u8; 4] = *b"PLAN";

/// Why a snapshot could not be written or read back.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The byte buffer is shorter than the fixed envelope.
    TooShort,
    /// The magic bytes are not `MXSN`.
    BadMagic,
    /// The snapshot was written by a newer format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
    /// The trailing FNV-1a checksum does not match the contents.
    ChecksumMismatch,
    /// A section or the payload ends before its declared length.
    Truncated,
    /// The bytes checksum clean but decode to an impossible state.
    Malformed(String),
    /// Coprocessor devices hold opaque state and cannot be serialized;
    /// detach them (or use a machine that never attached any) to snapshot.
    CoprocessorAttached,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => f.write_str("snapshot shorter than its envelope"),
            SnapshotError::BadMagic => f.write_str("not a MIPS-X snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format v{found} is newer than supported v{supported}"
            ),
            SnapshotError::ChecksumMismatch => f.write_str("snapshot checksum mismatch"),
            SnapshotError::Truncated => f.write_str("snapshot truncated mid-section"),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            SnapshotError::CoprocessorAttached => {
                f.write_str("machines with attached coprocessors cannot be snapshotted")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Summary of a snapshot's envelope and contents, without building a
/// machine (`mipsx snapshot info`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotInfo {
    /// Format version.
    pub version: u32,
    /// Machine cycle count at capture.
    pub cycles: u64,
    /// PC at capture.
    pub pc: u32,
    /// Whether the machine had halted.
    pub halted: bool,
    /// Whether a fault plan rides along.
    pub has_fault_plan: bool,
    /// The verified trailing checksum.
    pub checksum: u64,
    /// `(tag, body length)` per section, in file order.
    pub sections: Vec<(String, u64)>,
}

impl fmt::Display for SnapshotInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "snapshot v{}: cycle {} pc 0x{:07x}{}{}",
            self.version,
            self.cycles,
            self.pc,
            if self.halted { " halted" } else { "" },
            if self.has_fault_plan {
                " +fault-plan"
            } else {
                ""
            }
        )?;
        writeln!(f, "checksum fnv1a:{:016x}", self.checksum)?;
        for (tag, len) in &self.sections {
            writeln!(f, "  {tag:<4} {len:>10} bytes")?;
        }
        Ok(())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64 hash over `bytes`.
#[inline]
fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 over `bytes`: the snapshot checksum, and the hash behind the
/// sweep layer's job keys and store checksums.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a 64 over a `u32` word stream, each word little-endian (the
/// sweep layer's program-image and trace digests).
pub fn fnv1a_words<I: IntoIterator<Item = u32>>(words: I) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |hash, w| fnv1a_from(hash, &w.to_le_bytes()))
}

// --- the wire: one writer, one reader ------------------------------------

/// What a section walk returns.
type Walked = Result<(), SnapshotError>;

fn malformed(why: String) -> SnapshotError {
    SnapshotError::Malformed(why)
}

/// One direction of a section walk, little-endian throughout. Every method
/// takes the field in place: the writer (`Vec<u8>`) appends it, the reader
/// (`&[u8]`) overwrites it with the next bytes.
trait Wire: Sized {
    /// Whether this side reads (so sequences start empty).
    const READS: bool;

    /// `N` raw bytes; the reader fails with [`SnapshotError::Truncated`]
    /// when fewer remain.
    fn bytes<const N: usize>(&mut self, v: &mut [u8; N]) -> Walked;

    /// `v` through its wire form: `to` it for the writer, `from` what the
    /// reader read.
    fn via<T: Copy, F>(
        &mut self,
        v: &mut T,
        to: fn(T) -> F,
        from: fn(F) -> T,
        walk: impl FnOnce(&mut Self, &mut F) -> Walked,
    ) -> Walked {
        let mut wire = to(*v);
        walk(self, &mut wire)?;
        *v = from(wire);
        Ok(())
    }

    fn u8(&mut self, v: &mut u8) -> Walked {
        self.bytes(std::array::from_mut(v))
    }

    fn u32(&mut self, v: &mut u32) -> Walked {
        self.via(v, u32::to_le_bytes, u32::from_le_bytes, Self::bytes)
    }

    fn u64(&mut self, v: &mut u64) -> Walked {
        self.via(v, u64::to_le_bytes, u64::from_le_bytes, Self::bytes)
    }

    fn u64s<const N: usize>(&mut self, vs: &mut [u64; N]) -> Walked {
        vs.iter_mut().try_for_each(|v| self.u64(v))
    }

    /// A flag byte, 0 or 1.
    fn flag(&mut self, v: &mut bool) -> Walked {
        let mut b = u8::from(*v);
        self.u8(&mut b)?;
        *v = match b {
            0 => false,
            1 => true,
            other => return Err(malformed(format!("flag byte is {other}, expected 0 or 1"))),
        };
        Ok(())
    }

    /// An enum as one byte: its index in `table`, the one code table of
    /// that enum.
    fn choice<T: Copy + PartialEq>(&mut self, v: &mut T, table: &[T], what: &str) -> Walked {
        let mut code = table
            .iter()
            .position(|t| t == v)
            .expect("enum missing from its table") as u8;
        self.u8(&mut code)?;
        *v = *table
            .get(usize::from(code))
            .ok_or_else(|| malformed(format!("unknown {what} {code}")))?;
        Ok(())
    }

    /// An enum with a `u32` payload: the index of its constructor in
    /// `table` (one byte), then the payload `arg` extracts (0 for bare
    /// variants).
    fn tagged<T: Copy + PartialEq>(
        &mut self,
        v: &mut T,
        arg: fn(T) -> u32,
        table: &[fn(u32) -> T],
        what: &str,
    ) -> Walked {
        let mut payload = arg(*v);
        let mut code = table
            .iter()
            .position(|make| make(payload) == *v)
            .expect("enum missing from its table") as u8;
        self.u8(&mut code)?;
        self.u32(&mut payload)?;
        let make = table
            .get(usize::from(code))
            .ok_or_else(|| malformed(format!("unknown {what} {code}")))?;
        *v = make(payload);
        Ok(())
    }

    /// A presence flag, then the value when present (`blank` seeds a read).
    fn opt<T>(
        &mut self,
        v: &mut Option<T>,
        blank: T,
        walk: impl FnOnce(&mut Self, &mut T) -> Walked,
    ) -> Walked {
        let mut present = v.is_some();
        self.flag(&mut present)?;
        if !present {
            *v = None;
            return Ok(());
        }
        walk(self, v.get_or_insert(blank))
    }

    /// A `u32` count, then each item. A read starts from `blank` per item
    /// and reserves at most `cap` items before the bytes prove they exist.
    fn seq<T: Clone>(
        &mut self,
        items: &mut Vec<T>,
        cap: usize,
        blank: T,
        mut walk: impl FnMut(&mut Self, &mut T) -> Walked,
    ) -> Walked {
        let mut n = items.len() as u32;
        self.u32(&mut n)?;
        if !Self::READS {
            return items.iter_mut().try_for_each(|item| walk(self, item));
        }
        *items = Vec::with_capacity((n as usize).min(cap));
        for _ in 0..n {
            let mut item = blank.clone();
            walk(self, &mut item)?;
            items.push(item);
        }
        Ok(())
    }
}

/// The writer.
impl Wire for Vec<u8> {
    const READS: bool = false;

    fn bytes<const N: usize>(&mut self, v: &mut [u8; N]) -> Walked {
        self.extend_from_slice(v);
        Ok(())
    }
}

/// The reader: consumes the slice from the front.
impl Wire for &[u8] {
    const READS: bool = true;

    fn bytes<const N: usize>(&mut self, v: &mut [u8; N]) -> Walked {
        let (head, rest) = self.split_first_chunk().ok_or(SnapshotError::Truncated)?;
        *v = *head;
        *self = rest;
        Ok(())
    }
}

// --- one walk per section ------------------------------------------------

/// `CFG `: the full [`MachineConfig`], in declaration order (slots as a
/// `u32`, the clock as its IEEE-754 bits).
fn cfg<W: Wire>(w: &mut W, c: &mut MachineConfig) -> Walked {
    use InterfaceScheme::{AddressLines, CoprocBit, CoprocField, NonCached};
    use InterlockPolicy::{Detect, Trust};
    use Replacement::{Fifo, Lru, Random};
    w.via(
        &mut c.branch_delay_slots,
        |n| n as u32,
        |n| n as usize,
        W::u32,
    )?;
    w.choice(&mut c.interlock, &[Trust, Detect], "interlock policy")?;
    let ic = &mut c.icache;
    for v in [
        &mut ic.rows,
        &mut ic.ways,
        &mut ic.block_words,
        &mut ic.fetch_words,
        &mut ic.miss_penalty,
    ] {
        w.u32(v)?;
    }
    w.choice(
        &mut ic.replacement,
        &[Fifo, Lru, Random],
        "replacement policy",
    )?;
    w.flag(&mut ic.enabled)?;
    w.flag(&mut ic.whole_block_fill)?;
    let ec = &mut c.ecache;
    for v in [
        &mut ec.size_words,
        &mut ec.block_words,
        &mut ec.late_miss_overhead,
    ] {
        w.u32(v)?;
    }
    w.flag(&mut ec.enabled)?;
    w.u32(&mut c.mem_latency)?;
    let schemes = [CoprocBit, CoprocField, NonCached, AddressLines];
    w.choice(&mut c.coproc_scheme, &schemes, "coprocessor scheme")?;
    w.via(&mut c.clock_mhz, f64::to_bits, f64::from_bits, W::u64)?;
    w.u32(&mut c.exception_vector)?;
    if !(1..=2).contains(&c.branch_delay_slots) {
        return Err(malformed(format!(
            "{} branch delay slots",
            c.branch_delay_slots
        )));
    }
    c.check().map_err(malformed)
}

/// `CPU `: the register file, PC, the PC chain (its depth first), PSW,
/// PSWold and MD, then the machine's `flags`: halted, pending fetch kill,
/// interrupt line, pending NMI and decode-once cache enabled.
fn cpu<W: Wire>(w: &mut W, cpu: &mut Cpu, flags: [&mut bool; 5]) -> Walked {
    for i in 0..32 {
        let r = Reg::new(i);
        let mut v = cpu.reg(r);
        w.u32(&mut v)?;
        cpu.set_reg(r, v);
    }
    w.u32(&mut cpu.pc)?;
    let mut depth = PC_CHAIN_DEPTH as u8;
    w.u8(&mut depth)?;
    if usize::from(depth) != PC_CHAIN_DEPTH {
        return Err(malformed(format!(
            "PC chain depth {depth}, expected {PC_CHAIN_DEPTH}"
        )));
    }
    for entry in &mut cpu.pc_chain {
        w.u32(&mut entry.pc)?;
        w.flag(&mut entry.squashed)?;
    }
    for psw in [&mut cpu.psw, &mut cpu.psw_old] {
        w.via(psw, Psw::bits, Psw::from_bits, W::u32)?;
    }
    w.u32(&mut cpu.md)?;
    flags.into_iter().try_for_each(|f| w.flag(f))
}

/// `PIPE`: per latch (IF to WB) a presence flag, then the instruction's PC,
/// its word, kill bit, result, address, memory datum, pending MD update
/// (flag + value) and overflow bit.
fn pipe<W: Wire>(w: &mut W, slots: &mut [Option<Slot>; 5]) -> Walked {
    let blank = Slot::new(0, DecodedEntry::decode(0), false);
    for slot in slots {
        w.opt(slot, blank, |w, s| {
            w.u32(&mut s.pc)?;
            // The instruction latch is rebuilt by decoding its word —
            // decode is total and `decode(encode(i)) == i` for every
            // decodable instruction, so the slot's metadata comes back
            // with it.
            let mut word = s.instr.encode();
            w.u32(&mut word)?;
            let entry = DecodedEntry::decode(word);
            (s.instr, s.meta) = (entry.instr, entry.meta);
            w.flag(&mut s.kill)?;
            for v in [&mut s.result, &mut s.addr, &mut s.mem_data] {
                w.u32(v)?;
            }
            w.opt(&mut s.md_out, 0, W::u32)?;
            w.flag(&mut s.overflow)
        })?;
    }
    Ok(())
}

/// `FSM `: the miss FSM's state (code 0 run / 1 stalled, then the cycles
/// left), its frozen-cycle and miss counters, then the squash FSM's
/// counters.
fn fsm<W: Wire>(w: &mut W, miss: &mut CacheMissFsm, squash: &mut SquashFsm) -> Walked {
    let mut state = miss.state();
    let left = |s| match s {
        CacheMissState::Run => 0,
        CacheMissState::Stalled(left) => left,
    };
    let states = [|_| CacheMissState::Run, CacheMissState::Stalled];
    w.tagged(&mut state, left, &states, "miss FSM state")?;
    if state == CacheMissState::Stalled(0) {
        return Err(malformed("stalled miss FSM with zero cycles left".into()));
    }
    for v in [
        &mut miss.frozen_cycles,
        &mut miss.misses_serviced,
        &mut squash.branch_squashes,
        &mut squash.exceptions,
        &mut squash.instructions_killed,
    ] {
        w.u64(v)?;
    }
    *miss = CacheMissFsm::from_parts(state, miss.frozen_cycles, miss.misses_serviced);
    Ok(())
}

/// `STAT`: the field count, then [`RunStats::to_fields`].
fn stat<W: Wire>(w: &mut W, s: &mut RunStats) -> Walked {
    let mut count = RunStats::FIELDS.len() as u32;
    w.u32(&mut count)?;
    if count as usize != RunStats::FIELDS.len() {
        return Err(malformed(format!(
            "{count} statistics fields, expected {}",
            RunStats::FIELDS.len()
        )));
    }
    w.via(s, RunStats::to_fields, RunStats::from_fields, W::u64s)
}

/// A cache-statistics block: [`CacheStats::to_fields`], in order.
fn cache_stats<W: Wire>(w: &mut W, s: &mut CacheStats) -> Walked {
    w.via(s, CacheStats::to_fields, CacheStats::from_fields, W::u64s)
}

/// `ICHE`: the blocks (tag flag + tag, valid bits, recency stamp), the FIFO
/// pointers, LRU clock, xorshift state, blocks ever seen, then the
/// statistics.
fn icache<W: Wire>(w: &mut W, s: &mut IcacheState) -> Walked {
    w.seq(
        &mut s.blocks,
        1 << 20,
        (None, 0, 0),
        |w, (tag, valid, stamp)| {
            w.opt(tag, 0, W::u32)?;
            w.u64(valid)?;
            w.u64(stamp)
        },
    )?;
    w.seq(&mut s.fifo, 1 << 20, 0, W::u32)?;
    w.u64(&mut s.clock)?;
    w.u64(&mut s.rng)?;
    w.seq(&mut s.seen_blocks, 1 << 20, 0, W::u32)?;
    cache_stats(w, &mut s.stats)
}

/// `ECHE`: the frame tags (flag + tag), blocks ever seen, then the
/// statistics.
fn ecache<W: Wire>(w: &mut W, s: &mut EcacheState) -> Walked {
    w.seq(&mut s.tags, 1 << 22, None, |w, tag| w.opt(tag, 0, W::u32))?;
    w.seq(&mut s.seen_blocks, 1 << 22, 0, W::u32)?;
    cache_stats(w, &mut s.stats)
}

/// `MEM `: latency, read and write counts, then the resident pages: page
/// number and all 4096 words of each.
fn mem<W: Wire>(w: &mut W, s: &mut MainMemoryState) -> Walked {
    w.u32(&mut s.latency_cycles)?;
    w.u64(&mut s.reads)?;
    w.u64(&mut s.writes)?;
    w.seq(
        &mut s.pages,
        1 << 16,
        (0, vec![0; 4096]),
        |w, (n, words)| {
            w.u32(n)?;
            words.iter_mut().try_for_each(|v| w.u32(v))
        },
    )
}

/// Fault kinds by wire code, each built from the event's `u32` argument.
const FAULT_KINDS: [fn(u32) -> FaultKind; 5] = [
    |hold| FaultKind::Interrupt { hold },
    |_| FaultKind::Nmi,
    |_| FaultKind::IcacheParity,
    |extra| FaultKind::EcacheJitter { extra },
    |cycles| FaultKind::CoprocBusy { cycles },
];

/// `PLAN`: the events (cycle, kind code, kind argument), the consumption
/// cursor, then the pending interrupt release (flag + cycle).
fn fault_plan<W: Wire>(w: &mut W, plan: &mut FaultPlan) -> Walked {
    let mut events = plan.events().to_vec();
    let blank = FaultEvent {
        cycle: 0,
        kind: FaultKind::Nmi,
    };
    let arg = |kind| match kind {
        FaultKind::Interrupt { hold: a }
        | FaultKind::EcacheJitter { extra: a }
        | FaultKind::CoprocBusy { cycles: a } => a,
        FaultKind::Nmi | FaultKind::IcacheParity => 0,
    };
    w.seq(&mut events, 1 << 20, blank, |w, e| {
        w.u64(&mut e.cycle)?;
        w.tagged(&mut e.kind, arg, &FAULT_KINDS, "fault kind")
    })?;
    let mut cursor = plan.cursor() as u64;
    w.u64(&mut cursor)?;
    let mut release = plan.irq_release();
    w.opt(&mut release, 0, W::u64)?;
    *plan = FaultPlan::new(events);
    plan.restore_progress(cursor as usize, release);
    Ok(())
}

/// Frame one section onto `out`: tag, body length, then the body `walk`
/// writes.
fn section(out: &mut Vec<u8>, tag: [u8; 4], walk: impl FnOnce(&mut Vec<u8>) -> Walked) -> Walked {
    out.extend_from_slice(&tag);
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    walk(out)?;
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

// --- envelope ------------------------------------------------------------

/// Check magic/version/length/checksum; return the payload slice.
fn verify_envelope(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 24 {
        return Err(SnapshotError::TooShort);
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version > SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let expected_total = 16usize
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or(SnapshotError::Truncated)?;
    if bytes.len() != expected_total {
        return Err(SnapshotError::Truncated);
    }
    let stored = u64::from_le_bytes(bytes[16 + payload_len..].try_into().unwrap());
    if fnv1a(&bytes[..16 + payload_len]) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(&bytes[16..16 + payload_len])
}

/// A section list: `(tag, body)` pairs in payload order.
type Sections<'a> = Vec<([u8; 4], &'a [u8])>;

/// Split the payload into `(tag, body)` sections.
fn split_sections(mut payload: &[u8]) -> Result<Sections<'_>, SnapshotError> {
    let mut sections = Vec::new();
    while !payload.is_empty() {
        let (mut tag, mut len) = ([0; 4], 0);
        payload.bytes(&mut tag)?;
        payload.u64(&mut len)?;
        let (body, rest) = payload
            .split_at_checked(len as usize)
            .ok_or(SnapshotError::Truncated)?;
        sections.push((tag, body));
        payload = rest;
    }
    Ok(sections)
}

impl Machine {
    /// Serialize the machine's entire state (and, if given, a fault plan's
    /// consumption progress) into the snapshot byte format.
    ///
    /// # Errors
    /// [`SnapshotError::CoprocessorAttached`] if any coprocessor device is
    /// attached — devices hold opaque state the snapshot cannot marshal.
    pub fn save_snapshot(&self, plan: Option<&FaultPlan>) -> Result<Vec<u8>, SnapshotError> {
        if self.coprocs.iter().any(Option::is_some) {
            return Err(SnapshotError::CoprocessorAttached);
        }
        // The walks take their fields in place; the writer walks copies.
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&[0; 8]);
        section(&mut out, TAG_CFG, |w| cfg(w, &mut { self.cfg }))?;
        section(&mut out, TAG_CPU, |w| {
            let flags = [
                &mut { self.halted },
                &mut { self.pending_fetch_kill },
                &mut { self.interrupt_line },
                &mut { self.nmi_pending },
                &mut self.decoded.enabled(),
            ];
            cpu(w, &mut self.cpu.clone(), flags)
        })?;
        section(&mut out, TAG_PIPE, |w| pipe(w, &mut { self.slots }))?;
        section(&mut out, TAG_FSM, |w| {
            fsm(w, &mut { self.miss_fsm }, &mut { self.squash_fsm })
        })?;
        section(&mut out, TAG_STAT, |w| stat(w, &mut { self.stats }))?;
        section(&mut out, TAG_ICACHE, |w| {
            icache(w, &mut self.icache.snapshot_state())
        })?;
        section(&mut out, TAG_ECACHE, |w| {
            ecache(w, &mut self.ecache.snapshot_state())
        })?;
        section(&mut out, TAG_MEM, |w| {
            mem(w, &mut self.mem.snapshot_state())
        })?;
        if let Some(p) = plan {
            section(&mut out, TAG_PLAN, |w| fault_plan(w, &mut p.clone()))?;
        }
        let payload_len = (out.len() - 16) as u64;
        out[8..16].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }

    /// Rebuild a machine (and any fault plan saved with it) from snapshot
    /// bytes. The restored machine continues cycle-identically with the one
    /// that was saved; its decode-once fetch cache starts cold and refills
    /// lazily (simulated behaviour is identical either way).
    ///
    /// # Errors
    /// Any [`SnapshotError`]: bad magic, newer version, checksum mismatch,
    /// truncation, or a state that does not fit its own configuration.
    pub fn restore_snapshot(bytes: &[u8]) -> Result<(Machine, Option<FaultPlan>), SnapshotError> {
        let sections = split_sections(verify_envelope(bytes)?)?;
        let mut cfg_body = sections
            .iter()
            .find(|(tag, _)| *tag == TAG_CFG)
            .map(|(_, body)| *body)
            .ok_or_else(|| malformed("missing CFG section".into()))?;
        let mut config = MachineConfig::mipsx();
        cfg(&mut cfg_body, &mut config)?;
        let mut m = Machine::new(config);
        let mut plan = None;
        let mut seen_cpu = false;
        for (tag, mut body) in sections {
            let r = &mut body;
            match tag {
                TAG_CPU => {
                    let mut decode = false;
                    let flags = [
                        &mut m.halted,
                        &mut m.pending_fetch_kill,
                        &mut m.interrupt_line,
                        &mut m.nmi_pending,
                        &mut decode,
                    ];
                    cpu(r, &mut m.cpu, flags)?;
                    m.decoded.set_enabled(decode);
                    seen_cpu = true;
                }
                TAG_PIPE => pipe(r, &mut m.slots)?,
                TAG_FSM => fsm(r, &mut m.miss_fsm, &mut m.squash_fsm)?,
                TAG_STAT => stat(r, &mut m.stats)?,
                // A cache or memory reads into its own fresh state, which
                // then checks the shape against the organization.
                TAG_ICACHE => {
                    let mut state = m.icache.snapshot_state();
                    icache(r, &mut state)?;
                    m.icache.restore_state(&state).map_err(malformed)?;
                }
                TAG_ECACHE => {
                    let mut state = m.ecache.snapshot_state();
                    ecache(r, &mut state)?;
                    m.ecache.restore_state(&state).map_err(malformed)?;
                }
                TAG_MEM => {
                    let mut state = m.mem.snapshot_state();
                    mem(r, &mut state)?;
                    m.mem.restore_state(&state).map_err(malformed)?;
                }
                TAG_PLAN => {
                    let mut p = FaultPlan::none();
                    fault_plan(r, &mut p)?;
                    plan = Some(p);
                }
                // CFG is already read. An unknown tag is a section a
                // same-version writer appended that this reader does not
                // know: skip it.
                _ => {}
            }
        }
        if !seen_cpu {
            return Err(malformed("missing CPU section".into()));
        }
        Ok((m, plan))
    }
}

/// Summarize a snapshot without building the machine: envelope fields,
/// section inventory, cycle/PC/halted at capture.
///
/// # Errors
/// As [`Machine::restore_snapshot`] for envelope and section-framing
/// problems, and for malformed CPU and STAT sections.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let payload = verify_envelope(bytes)?;
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let sections = split_sections(payload)?;
    let mut info = SnapshotInfo {
        version,
        cycles: 0,
        pc: 0,
        halted: false,
        has_fault_plan: false,
        checksum,
        sections: Vec::with_capacity(sections.len()),
    };
    for (tag, mut body) in sections {
        info.sections.push((
            String::from_utf8_lossy(&tag).trim_end().to_string(),
            body.len() as u64,
        ));
        match tag {
            TAG_CPU => {
                let mut c = Cpu::new();
                let flags = [
                    &mut info.halted,
                    &mut false,
                    &mut false,
                    &mut false,
                    &mut false,
                ];
                cpu(&mut body, &mut c, flags)?;
                info.pc = c.pc;
            }
            TAG_STAT => {
                let mut stats = RunStats::default();
                stat(&mut body, &mut stats)?;
                info.cycles = stats.cycles;
            }
            TAG_PLAN => info.has_fault_plan = true,
            _ => {}
        }
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_asm::assemble;

    /// A program that exercises registers, memory, branches and both
    /// caches: sum 1..=n while streaming partial sums through memory.
    fn busy_program() -> mipsx_asm::Program {
        assemble(
            "li r1, 50\n\
             li r2, 0\n\
             li r3, 2000\n\
             loop: add r2, r2, r1\n\
             st r2, 0(r3)\n\
             addi r3, r3, 1\n\
             ld r4, -1(r3)\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             nop\n\
             nop\n\
             halt",
        )
        .unwrap()
    }

    fn machine_mid_run(cycles: u64) -> Machine {
        let mut m = Machine::new(MachineConfig::mipsx());
        m.load_program(&busy_program());
        match m.run(cycles) {
            Err(crate::RunError::CycleLimit { .. }) => {}
            other => panic!("expected the cycle budget to expire, got {other:?}"),
        }
        m
    }

    /// The STAT section layout is part of the format: the field count,
    /// then every counter as a little-endian `u64` in this order.
    #[test]
    fn stat_section_layout_is_pinned() {
        let stats = RunStats {
            cycles: 1,
            instructions: 2,
            nops: 3,
            squashed: 4,
            branches: 5,
            branches_taken: 6,
            branch_slot_nops: 7,
            branch_slot_squashed: 8,
            jumps: 9,
            loads: 10,
            stores: 11,
            coproc_ops: 12,
            exceptions: 13,
            icache_stall_cycles: 14,
            ecache_stall_cycles: 15,
            coproc_stall_cycles: 16,
            coproc_forced_miss_cycles: 17,
            frozen_cycles: 18,
            interlock_stall_cycles: 19,
            injected_interrupts: 20,
            injected_nmis: 21,
            injected_parity_retries: 22,
            injected_jitter_cycles: 23,
            injected_coproc_busy_cycles: 24,
        };
        let mut expected = 24u32.to_le_bytes().to_vec();
        for v in 1..=24u64 {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        let mut bytes = Vec::new();
        stat(&mut bytes, &mut { stats }).unwrap();
        assert_eq!(bytes, expected);
        let mut back = RunStats::default();
        stat(&mut &bytes[..], &mut back).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn cache_stats_layout_is_pinned() {
        let stats = CacheStats::from_fields(std::array::from_fn(|i| i as u64 + 1));
        // The historic order, by name: changing it changes snapshot bytes.
        let by_name = CacheStats {
            accesses: 1,
            hits: 2,
            misses: 3,
            stall_cycles: 4,
            words_filled: 5,
            cold_misses: 6,
            conflict_misses: 7,
            sub_block_misses: 8,
        };
        assert_eq!(stats, by_name);
        let mut bytes = Vec::new();
        cache_stats(&mut bytes, &mut { stats }).unwrap();
        let expected: Vec<u8> = (1..=8u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(bytes, expected);
        let mut back = CacheStats::default();
        cache_stats(&mut &bytes[..], &mut back).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn save_restore_save_is_byte_identical() {
        let m = machine_mid_run(37);
        let first = m.save_snapshot(None).unwrap();
        let (restored, plan) = Machine::restore_snapshot(&first).unwrap();
        assert!(plan.is_none());
        let second = restored.save_snapshot(None).unwrap();
        assert_eq!(first, second, "save→restore→save must be bit-exact");
    }

    #[test]
    fn restored_machine_finishes_identically() {
        let mut straight = Machine::new(MachineConfig::mipsx());
        straight.load_program(&busy_program());
        let full = straight.run(10_000).unwrap();

        let m = machine_mid_run(37);
        let bytes = m.save_snapshot(None).unwrap();
        let (mut resumed, _) = Machine::restore_snapshot(&bytes).unwrap();
        let resumed_stats = resumed.run(10_000).unwrap();

        assert_eq!(full, resumed_stats);
        assert_eq!(
            straight.cpu().regs_snapshot(),
            resumed.cpu().regs_snapshot()
        );
        for addr in 2000..2050 {
            assert_eq!(straight.read_word(addr), resumed.read_word(addr));
        }
    }

    #[test]
    fn fault_plan_progress_rides_along() {
        let mut plan = FaultPlan::parse("10:parity,25:jitter3,2000:nmi").unwrap();
        let mut m = Machine::new(MachineConfig::mipsx());
        m.load_program(&busy_program());
        match m.run_with_faults(40, &mut crate::probe::NullSink, &mut plan) {
            Err(crate::RunError::CycleLimit { .. }) => {}
            other => panic!("expected the cycle budget to expire, got {other:?}"),
        }
        assert!(plan.cursor() > 0, "some events must have fired by cycle 40");

        let bytes = m.save_snapshot(Some(&plan)).unwrap();
        let (mut resumed, restored_plan) = Machine::restore_snapshot(&bytes).unwrap();
        let mut restored_plan = restored_plan.expect("plan section must round-trip");
        assert_eq!(restored_plan.events(), plan.events());
        assert_eq!(restored_plan.cursor(), plan.cursor());
        assert_eq!(restored_plan.irq_release(), plan.irq_release());

        let a = m
            .run_with_faults(100_000, &mut crate::probe::NullSink, &mut plan)
            .unwrap();
        let b = resumed
            .run_with_faults(100_000, &mut crate::probe::NullSink, &mut restored_plan)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn checksum_detects_corruption() {
        let bytes = machine_mid_run(20).save_snapshot(None).unwrap();
        // Flip one bit in every byte position class: header, payload, tail.
        for pos in [5, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let err = Machine::restore_snapshot(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch | SnapshotError::UnsupportedVersion { .. }
                ),
                "corruption at {pos} gave {err:?}"
            );
        }
    }

    #[test]
    fn newer_versions_are_refused() {
        let mut bytes = machine_mid_run(20).save_snapshot(None).unwrap();
        bytes[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let len = bytes.len();
        let sum = fnv1a(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Machine::restore_snapshot(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1,
                supported: SNAPSHOT_VERSION
            }
        );
    }

    #[test]
    fn truncation_and_magic_are_detected() {
        let bytes = machine_mid_run(20).save_snapshot(None).unwrap();
        assert_eq!(
            Machine::restore_snapshot(&bytes[..bytes.len() - 3]).unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            Machine::restore_snapshot(&bytes[..10]).unwrap_err(),
            SnapshotError::TooShort
        );
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert_eq!(
            Machine::restore_snapshot(&bad).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let bytes = machine_mid_run(20).save_snapshot(None).unwrap();
        // Append a section with an unknown tag, re-frame, re-checksum.
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let mut extended = bytes[..16 + payload_len].to_vec();
        extended.extend_from_slice(b"ZZZZ");
        extended.extend_from_slice(&4u64.to_le_bytes());
        extended.extend_from_slice(&[1, 2, 3, 4]);
        let new_len = (extended.len() - 16) as u64;
        extended[8..16].copy_from_slice(&new_len.to_le_bytes());
        let sum = fnv1a(&extended);
        extended.extend_from_slice(&sum.to_le_bytes());

        let (restored, _) = Machine::restore_snapshot(&extended).unwrap();
        assert_eq!(
            restored.save_snapshot(None).unwrap(),
            bytes,
            "the unknown section must be ignored, everything else restored"
        );
    }

    #[test]
    fn coprocessors_block_snapshotting() {
        struct Dummy;
        impl mipsx_coproc::Coprocessor for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn execute(&mut self, _op: u16) {}
            fn write(&mut self, _op: u16, _data: u32) {}
            fn read(&mut self, _op: u16) -> u32 {
                0
            }
            fn load_direct(&mut self, _fr: u8, _data: u32) {}
            fn store_direct(&mut self, _fr: u8) -> u32 {
                0
            }
        }
        let mut m = Machine::new(MachineConfig::mipsx());
        m.attach_coprocessor(1, Box::new(Dummy));
        assert_eq!(
            m.save_snapshot(None).unwrap_err(),
            SnapshotError::CoprocessorAttached
        );
    }

    #[test]
    fn inspect_summarizes_without_restoring() {
        let m = machine_mid_run(37);
        let plan = FaultPlan::parse("100:nmi").unwrap();
        let bytes = m.save_snapshot(Some(&plan)).unwrap();
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.cycles, 37);
        assert_eq!(info.pc, m.cpu().pc);
        assert!(!info.halted);
        assert!(info.has_fault_plan);
        let tags: Vec<&str> = info.sections.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(
            tags,
            ["CFG", "CPU", "PIPE", "FSM", "STAT", "ICHE", "ECHE", "MEM", "PLAN"]
        );
        let text = info.to_string();
        assert!(text.contains("cycle 37"), "{text}");
        assert!(text.contains("+fault-plan"), "{text}");
    }

    /// Rebuild `bytes` with `edit` applied to the section list, then
    /// re-frame and re-seal it, so the checksum passes and the readers see
    /// the edit.
    fn resealed(bytes: &[u8], edit: impl FnOnce(&mut Vec<([u8; 4], Vec<u8>)>)) -> Vec<u8> {
        let mut sections = Vec::new();
        let mut rest = &bytes[16..bytes.len() - 8];
        while !rest.is_empty() {
            let len = u64::from_le_bytes(rest[4..12].try_into().unwrap()) as usize;
            sections.push((rest[..4].try_into().unwrap(), rest[12..12 + len].to_vec()));
            rest = &rest[12 + len..];
        }
        edit(&mut sections);
        let mut out = bytes[..8].to_vec();
        let payload: Vec<u8> = sections
            .iter()
            .flat_map(|(tag, body)| [&tag[..], &(body.len() as u64).to_le_bytes(), body].concat())
            .collect();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Patch `at` of the `tag` section's body with `patch`, then re-seal.
    fn patched(bytes: &[u8], tag: &[u8; 4], at: usize, patch: &[u8]) -> Vec<u8> {
        resealed(bytes, |sections| {
            let body = &mut sections.iter_mut().find(|(t, _)| t == tag).unwrap().1;
            body[at..at + patch.len()].copy_from_slice(patch);
        })
    }

    /// Every reader rule past a valid checksum: a real board-config
    /// snapshot, one body edit per case, re-sealed, and the exact error.
    #[test]
    fn sealed_malformations_name_their_rule() {
        let plan = FaultPlan::parse("10:parity,25:jitter3,2000:nmi").unwrap();
        let bytes = machine_mid_run(37).save_snapshot(Some(&plan)).unwrap();
        let malformed = |why: &str| Err(SnapshotError::Malformed(why.into()));
        let restore = |bytes: &[u8]| Machine::restore_snapshot(bytes).map(|_| ());
        // CFG: slots u32 @0, interlock @4, replacement @25, Icache enabled
        // flag @26, coprocessor scheme @45.
        let cases: [(&[u8; 4], usize, &[u8], &str); 10] = [
            (b"CFG ", 4, &[2], "unknown interlock policy 2"),
            (b"CFG ", 25, &[3], "unknown replacement policy 3"),
            (b"CFG ", 45, &[4], "unknown coprocessor scheme 4"),
            (b"CFG ", 0, &[3, 0, 0, 0], "3 branch delay slots"),
            (b"CFG ", 26, &[2], "flag byte is 2, expected 0 or 1"),
            (b"CPU ", 132, &[4], "PC chain depth 4, expected 3"),
            (
                b"FSM ",
                0,
                &[1, 0, 0, 0, 0],
                "stalled miss FSM with zero cycles left",
            ),
            (b"FSM ", 0, &[7], "unknown miss FSM state 7"),
            (
                b"STAT",
                0,
                &[23, 0, 0, 0],
                "23 statistics fields, expected 24",
            ),
            // PLAN: event count u32, then the first event's cycle u64.
            (b"PLAN", 12, &[9], "unknown fault kind 9"),
        ];
        for (tag, at, patch, why) in cases {
            let bad = patched(&bytes, tag, at, patch);
            assert_eq!(restore(&bad), malformed(why), "{why}");
        }
        // inspect reads CPU and STAT through the same rules.
        assert_eq!(
            inspect(&patched(&bytes, b"CPU ", 132, &[4])).map(|_| ()),
            malformed("PC chain depth 4, expected 3")
        );
        assert_eq!(
            inspect(&patched(&bytes, b"STAT", 0, &[23])).map(|_| ()),
            malformed("23 statistics fields, expected 24")
        );

        // ICHE: drop the last block and its count, so the body parses
        // clean and the cache refuses the shape.
        let short = resealed(&bytes, |sections| {
            let body = &mut sections.iter_mut().find(|(t, _)| t == b"ICHE").unwrap().1;
            let n = u32::from_le_bytes(body[..4].try_into().unwrap());
            let mut at = 4;
            for _ in 0..n - 1 {
                at += 1 + 4 * body[at] as usize + 16;
            }
            let last = 1 + 4 * body[at] as usize + 16;
            body.drain(at..at + last);
            body[..4].copy_from_slice(&(n - 1).to_le_bytes());
        });
        assert_eq!(
            restore(&short),
            malformed("icache state has 31 blocks, organization needs 32")
        );

        // A body cut mid-field (CPU's PC), framed at its cut length.
        let cut = resealed(&bytes, |sections| {
            sections
                .iter_mut()
                .find(|(t, _)| t == b"CPU ")
                .unwrap()
                .1
                .truncate(130);
        });
        assert_eq!(restore(&cut), Err(SnapshotError::Truncated));
        assert_eq!(inspect(&cut).map(|_| ()), Err(SnapshotError::Truncated));

        for (tag, why) in [
            (b"CFG ", "missing CFG section"),
            (b"CPU ", "missing CPU section"),
        ] {
            let without = resealed(&bytes, |sections| sections.retain(|(t, _)| t != tag));
            assert_eq!(restore(&without), malformed(why), "{why}");
        }
    }

    /// A sealed CFG no machine can be built from is refused, not a panic
    /// in `Machine::new`.
    #[test]
    fn sealed_unbuildable_config_is_malformed() {
        let bytes = machine_mid_run(20).save_snapshot(None).unwrap();
        // CFG: Icache rows u32 @5.
        let bad = patched(&bytes, b"CFG ", 5, &3u32.to_le_bytes());
        match Machine::restore_snapshot(&bad).map(|_| ()) {
            Err(SnapshotError::Malformed(why)) => {
                assert!(why.starts_with("rows must be a power of two"), "{why}")
            }
            other => panic!("expected a malformed config, got {other:?}"),
        }
    }

    #[test]
    fn halted_machines_snapshot_too() {
        let mut m = Machine::new(MachineConfig::mipsx());
        m.load_program(&busy_program());
        m.run(10_000).unwrap();
        assert!(m.halted());
        let bytes = m.save_snapshot(None).unwrap();
        let (restored, _) = Machine::restore_snapshot(&bytes).unwrap();
        assert!(restored.halted());
        assert_eq!(restored.stats(), m.stats());
        assert_eq!(restored.save_snapshot(None).unwrap(), bytes);
    }
}
