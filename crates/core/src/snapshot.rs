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

use std::fmt;

use mipsx_asm::DecodedEntry;
use mipsx_coproc::InterfaceScheme;
use mipsx_isa::{Psw, Reg, PC_CHAIN_DEPTH};
use mipsx_mem::{
    CacheStats, EcacheConfig, EcacheState, IcacheConfig, IcacheState, MainMemoryState, Replacement,
};

use crate::cpu::PcChainEntry;
use crate::inject::{FaultEvent, FaultKind, FaultPlan};
use crate::machine::Slot;
use crate::{CacheMissFsm, CacheMissState, InterlockPolicy, Machine, MachineConfig, RunStats};

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

/// FNV-1a 64 over `bytes` — the snapshot integrity checksum. (The sweep
/// layer has its own copy for job keys; core cannot depend on it.)
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// --- little-endian encode/decode helpers ---------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn flag(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64s(&mut self, vs: &[u64]) {
        for &v in vs {
            self.u64(v);
        }
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn flag(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "flag byte is {other}, expected 0 or 1"
            ))),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u64s<const N: usize>(&mut self) -> Result<[u64; N], SnapshotError> {
        let mut vs = [0; N];
        for v in &mut vs {
            *v = self.u64()?;
        }
        Ok(vs)
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn push_section(payload: &mut Vec<u8>, tag: [u8; 4], body: Enc) {
    payload.extend_from_slice(&tag);
    payload.extend_from_slice(&(body.buf.len() as u64).to_le_bytes());
    payload.extend_from_slice(&body.buf);
}

// --- section encoders ----------------------------------------------------

fn encode_cfg(cfg: &MachineConfig) -> Enc {
    let mut e = Enc::new();
    e.u32(cfg.branch_delay_slots as u32);
    e.u8(match cfg.interlock {
        InterlockPolicy::Trust => 0,
        InterlockPolicy::Detect => 1,
    });
    e.u32(cfg.icache.rows);
    e.u32(cfg.icache.ways);
    e.u32(cfg.icache.block_words);
    e.u32(cfg.icache.fetch_words);
    e.u32(cfg.icache.miss_penalty);
    e.u8(match cfg.icache.replacement {
        Replacement::Fifo => 0,
        Replacement::Lru => 1,
        Replacement::Random => 2,
    });
    e.flag(cfg.icache.enabled);
    e.flag(cfg.icache.whole_block_fill);
    e.u32(cfg.ecache.size_words);
    e.u32(cfg.ecache.block_words);
    e.u32(cfg.ecache.late_miss_overhead);
    e.flag(cfg.ecache.enabled);
    e.u32(cfg.mem_latency);
    e.u8(match cfg.coproc_scheme {
        InterfaceScheme::CoprocBit => 0,
        InterfaceScheme::CoprocField => 1,
        InterfaceScheme::NonCached => 2,
        InterfaceScheme::AddressLines => 3,
    });
    e.u64(cfg.clock_mhz.to_bits());
    e.u32(cfg.exception_vector);
    e
}

fn decode_cfg(body: &[u8]) -> Result<MachineConfig, SnapshotError> {
    let mut d = Dec::new(body);
    let branch_delay_slots = d.u32()? as usize;
    let interlock = match d.u8()? {
        0 => InterlockPolicy::Trust,
        1 => InterlockPolicy::Detect,
        other => {
            return Err(SnapshotError::Malformed(format!(
                "unknown interlock policy {other}"
            )))
        }
    };
    let icache = IcacheConfig {
        rows: d.u32()?,
        ways: d.u32()?,
        block_words: d.u32()?,
        fetch_words: d.u32()?,
        miss_penalty: d.u32()?,
        replacement: match d.u8()? {
            0 => Replacement::Fifo,
            1 => Replacement::Lru,
            2 => Replacement::Random,
            other => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown replacement policy {other}"
                )))
            }
        },
        enabled: d.flag()?,
        whole_block_fill: d.flag()?,
    };
    let ecache = EcacheConfig {
        size_words: d.u32()?,
        block_words: d.u32()?,
        late_miss_overhead: d.u32()?,
        enabled: d.flag()?,
    };
    let mem_latency = d.u32()?;
    let coproc_scheme = match d.u8()? {
        0 => InterfaceScheme::CoprocBit,
        1 => InterfaceScheme::CoprocField,
        2 => InterfaceScheme::NonCached,
        3 => InterfaceScheme::AddressLines,
        other => {
            return Err(SnapshotError::Malformed(format!(
                "unknown coprocessor scheme {other}"
            )))
        }
    };
    let clock_mhz = f64::from_bits(d.u64()?);
    let exception_vector = d.u32()?;
    if !(branch_delay_slots == 1 || branch_delay_slots == 2) {
        return Err(SnapshotError::Malformed(format!(
            "{branch_delay_slots} branch delay slots"
        )));
    }
    Ok(MachineConfig {
        branch_delay_slots,
        interlock,
        icache,
        ecache,
        mem_latency,
        coproc_scheme,
        clock_mhz,
        exception_vector,
    })
}

fn encode_cpu(m: &Machine) -> Enc {
    let mut e = Enc::new();
    for r in m.cpu.regs_snapshot() {
        e.u32(r);
    }
    e.u32(m.cpu.pc);
    e.u8(PC_CHAIN_DEPTH as u8);
    for entry in m.cpu.pc_chain {
        e.u32(entry.pc);
        e.flag(entry.squashed);
    }
    e.u32(m.cpu.psw.bits());
    e.u32(m.cpu.psw_old.bits());
    e.u32(m.cpu.md);
    e.flag(m.halted);
    e.flag(m.pending_fetch_kill);
    e.flag(m.interrupt_line);
    e.flag(m.nmi_pending);
    e.flag(m.decoded.enabled());
    e
}

struct CpuBody {
    regs: [u32; 32],
    pc: u32,
    chain: [PcChainEntry; PC_CHAIN_DEPTH],
    psw: Psw,
    psw_old: Psw,
    md: u32,
    halted: bool,
    pending_fetch_kill: bool,
    interrupt_line: bool,
    nmi_pending: bool,
    decode_enabled: bool,
}

fn decode_cpu(body: &[u8]) -> Result<CpuBody, SnapshotError> {
    let mut d = Dec::new(body);
    let mut regs = [0u32; 32];
    for r in &mut regs {
        *r = d.u32()?;
    }
    let pc = d.u32()?;
    let depth = d.u8()? as usize;
    if depth != PC_CHAIN_DEPTH {
        return Err(SnapshotError::Malformed(format!(
            "PC chain depth {depth}, expected {PC_CHAIN_DEPTH}"
        )));
    }
    let mut chain = [PcChainEntry::default(); PC_CHAIN_DEPTH];
    for entry in &mut chain {
        entry.pc = d.u32()?;
        entry.squashed = d.flag()?;
    }
    let psw = Psw::from_bits(d.u32()?);
    let psw_old = Psw::from_bits(d.u32()?);
    let md = d.u32()?;
    Ok(CpuBody {
        regs,
        pc,
        chain,
        psw,
        psw_old,
        md,
        halted: d.flag()?,
        pending_fetch_kill: d.flag()?,
        interrupt_line: d.flag()?,
        nmi_pending: d.flag()?,
        decode_enabled: d.flag()?,
    })
}

fn encode_pipe(slots: &[Option<Slot>; 5]) -> Enc {
    let mut e = Enc::new();
    for slot in slots {
        match slot {
            None => e.flag(false),
            Some(s) => {
                e.flag(true);
                e.u32(s.pc);
                e.u32(s.instr.encode());
                e.flag(s.kill);
                e.u32(s.result);
                e.u32(s.addr);
                e.u32(s.mem_data);
                match s.md_out {
                    None => e.flag(false),
                    Some(md) => {
                        e.flag(true);
                        e.u32(md);
                    }
                }
                e.flag(s.overflow);
            }
        }
    }
    e
}

fn decode_pipe(body: &[u8]) -> Result<[Option<Slot>; 5], SnapshotError> {
    let mut d = Dec::new(body);
    let mut slots = [None; 5];
    for slot in &mut slots {
        if !d.flag()? {
            continue;
        }
        let pc = d.u32()?;
        // The instruction latch is rebuilt by decoding its word — decode is
        // total and `decode(encode(i)) == i` for every decodable
        // instruction, so the slot's metadata comes back with it.
        let entry = DecodedEntry::decode(d.u32()?);
        let kill = d.flag()?;
        let result = d.u32()?;
        let addr = d.u32()?;
        let mem_data = d.u32()?;
        let md_out = if d.flag()? { Some(d.u32()?) } else { None };
        let overflow = d.flag()?;
        *slot = Some(Slot {
            pc,
            instr: entry.instr,
            meta: entry.meta,
            kill,
            result,
            addr,
            mem_data,
            md_out,
            overflow,
        });
    }
    Ok(slots)
}

fn encode_fsms(m: &Machine) -> Enc {
    let mut e = Enc::new();
    match m.miss_fsm.state() {
        CacheMissState::Run => {
            e.u8(0);
            e.u32(0);
        }
        CacheMissState::Stalled(left) => {
            e.u8(1);
            e.u32(left);
        }
    }
    e.u64(m.miss_fsm.frozen_cycles);
    e.u64(m.miss_fsm.misses_serviced);
    e.u64(m.squash_fsm.branch_squashes);
    e.u64(m.squash_fsm.exceptions);
    e.u64(m.squash_fsm.instructions_killed);
    e
}

fn apply_fsms(m: &mut Machine, body: &[u8]) -> Result<(), SnapshotError> {
    let mut d = Dec::new(body);
    let state = match (d.u8()?, d.u32()?) {
        (0, _) => CacheMissState::Run,
        (1, 0) => {
            return Err(SnapshotError::Malformed(
                "stalled miss FSM with zero cycles left".into(),
            ))
        }
        (1, left) => CacheMissState::Stalled(left),
        (other, _) => {
            return Err(SnapshotError::Malformed(format!(
                "unknown miss FSM state {other}"
            )))
        }
    };
    m.miss_fsm = CacheMissFsm::from_parts(state, d.u64()?, d.u64()?);
    m.squash_fsm.branch_squashes = d.u64()?;
    m.squash_fsm.exceptions = d.u64()?;
    m.squash_fsm.instructions_killed = d.u64()?;
    Ok(())
}

/// The STAT section: the field count, then [`RunStats::to_fields`].
fn encode_stats(s: &RunStats) -> Enc {
    let mut e = Enc::new();
    e.u32(RunStats::FIELDS.len() as u32);
    e.u64s(&s.to_fields());
    e
}

fn decode_stats(body: &[u8]) -> Result<RunStats, SnapshotError> {
    let mut d = Dec::new(body);
    let count = d.u32()? as usize;
    if count != RunStats::FIELDS.len() {
        return Err(SnapshotError::Malformed(format!(
            "{count} statistics fields, expected {}",
            RunStats::FIELDS.len()
        )));
    }
    Ok(RunStats::from_fields(d.u64s()?))
}

/// A cache-statistics block: [`CacheStats::to_fields`], in order.
fn encode_cache_stats(e: &mut Enc, s: &CacheStats) {
    e.u64s(&s.to_fields());
}

fn decode_cache_stats(d: &mut Dec) -> Result<CacheStats, SnapshotError> {
    Ok(CacheStats::from_fields(d.u64s()?))
}

fn encode_icache(state: &IcacheState) -> Enc {
    let mut e = Enc::new();
    e.u32(state.blocks.len() as u32);
    for &(tag, valid, stamp) in &state.blocks {
        match tag {
            None => e.flag(false),
            Some(t) => {
                e.flag(true);
                e.u32(t);
            }
        }
        e.u64(valid);
        e.u64(stamp);
    }
    e.u32(state.fifo.len() as u32);
    for &f in &state.fifo {
        e.u32(f);
    }
    e.u64(state.clock);
    e.u64(state.rng);
    e.u32(state.seen_blocks.len() as u32);
    for &b in &state.seen_blocks {
        e.u32(b);
    }
    encode_cache_stats(&mut e, &state.stats);
    e
}

fn decode_icache(body: &[u8]) -> Result<IcacheState, SnapshotError> {
    let mut d = Dec::new(body);
    let nblocks = d.u32()? as usize;
    let mut blocks = Vec::with_capacity(nblocks.min(1 << 20));
    for _ in 0..nblocks {
        let tag = if d.flag()? { Some(d.u32()?) } else { None };
        let valid = d.u64()?;
        let stamp = d.u64()?;
        blocks.push((tag, valid, stamp));
    }
    let nfifo = d.u32()? as usize;
    let mut fifo = Vec::with_capacity(nfifo.min(1 << 20));
    for _ in 0..nfifo {
        fifo.push(d.u32()?);
    }
    let clock = d.u64()?;
    let rng = d.u64()?;
    let nseen = d.u32()? as usize;
    let mut seen_blocks = Vec::with_capacity(nseen.min(1 << 20));
    for _ in 0..nseen {
        seen_blocks.push(d.u32()?);
    }
    let stats = decode_cache_stats(&mut d)?;
    Ok(IcacheState {
        blocks,
        fifo,
        clock,
        rng,
        seen_blocks,
        stats,
    })
}

fn encode_ecache(state: &EcacheState) -> Enc {
    let mut e = Enc::new();
    e.u32(state.tags.len() as u32);
    for &tag in &state.tags {
        match tag {
            None => e.flag(false),
            Some(t) => {
                e.flag(true);
                e.u32(t);
            }
        }
    }
    e.u32(state.seen_blocks.len() as u32);
    for &b in &state.seen_blocks {
        e.u32(b);
    }
    encode_cache_stats(&mut e, &state.stats);
    e
}

fn decode_ecache(body: &[u8]) -> Result<EcacheState, SnapshotError> {
    let mut d = Dec::new(body);
    let ntags = d.u32()? as usize;
    let mut tags = Vec::with_capacity(ntags.min(1 << 22));
    for _ in 0..ntags {
        tags.push(if d.flag()? { Some(d.u32()?) } else { None });
    }
    let nseen = d.u32()? as usize;
    let mut seen_blocks = Vec::with_capacity(nseen.min(1 << 22));
    for _ in 0..nseen {
        seen_blocks.push(d.u32()?);
    }
    let stats = decode_cache_stats(&mut d)?;
    Ok(EcacheState {
        tags,
        seen_blocks,
        stats,
    })
}

fn encode_mem(state: &MainMemoryState) -> Enc {
    let mut e = Enc::new();
    e.u32(state.latency_cycles);
    e.u64(state.reads);
    e.u64(state.writes);
    e.u32(state.pages.len() as u32);
    for (n, words) in &state.pages {
        e.u32(*n);
        for &w in words {
            e.u32(w);
        }
    }
    e
}

fn decode_mem(body: &[u8]) -> Result<MainMemoryState, SnapshotError> {
    let mut d = Dec::new(body);
    let latency_cycles = d.u32()?;
    let reads = d.u64()?;
    let writes = d.u64()?;
    let npages = d.u32()? as usize;
    let mut pages = Vec::with_capacity(npages.min(1 << 16));
    for _ in 0..npages {
        let n = d.u32()?;
        let mut words = Vec::with_capacity(4096);
        for _ in 0..4096 {
            words.push(d.u32()?);
        }
        pages.push((n, words));
    }
    Ok(MainMemoryState {
        latency_cycles,
        reads,
        writes,
        pages,
    })
}

fn encode_plan(plan: &FaultPlan) -> Enc {
    let mut e = Enc::new();
    e.u32(plan.events().len() as u32);
    for event in plan.events() {
        e.u64(event.cycle);
        match event.kind {
            FaultKind::Interrupt { hold } => {
                e.u8(0);
                e.u32(hold);
            }
            FaultKind::Nmi => {
                e.u8(1);
                e.u32(0);
            }
            FaultKind::IcacheParity => {
                e.u8(2);
                e.u32(0);
            }
            FaultKind::EcacheJitter { extra } => {
                e.u8(3);
                e.u32(extra);
            }
            FaultKind::CoprocBusy { cycles } => {
                e.u8(4);
                e.u32(cycles);
            }
        }
    }
    e.u64(plan.cursor() as u64);
    match plan.irq_release() {
        None => e.flag(false),
        Some(release) => {
            e.flag(true);
            e.u64(release);
        }
    }
    e
}

fn decode_plan(body: &[u8]) -> Result<FaultPlan, SnapshotError> {
    let mut d = Dec::new(body);
    let nevents = d.u32()? as usize;
    let mut events = Vec::with_capacity(nevents.min(1 << 20));
    for _ in 0..nevents {
        let cycle = d.u64()?;
        let kind_byte = d.u8()?;
        let arg = d.u32()?;
        let kind = match kind_byte {
            0 => FaultKind::Interrupt { hold: arg },
            1 => FaultKind::Nmi,
            2 => FaultKind::IcacheParity,
            3 => FaultKind::EcacheJitter { extra: arg },
            4 => FaultKind::CoprocBusy { cycles: arg },
            other => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown fault kind {other}"
                )))
            }
        };
        events.push(FaultEvent { cycle, kind });
    }
    let cursor = d.u64()? as usize;
    let irq_release = if d.flag()? { Some(d.u64()?) } else { None };
    let mut plan = FaultPlan::new(events);
    plan.restore_progress(cursor, irq_release);
    Ok(plan)
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
fn split_sections(payload: &[u8]) -> Result<Sections<'_>, SnapshotError> {
    let mut d = Dec::new(payload);
    let mut sections = Vec::new();
    while !d.finished() {
        let tag: [u8; 4] = d.take(4)?.try_into().unwrap();
        let len = d.u64()? as usize;
        sections.push((tag, d.take(len)?));
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
        let mut payload = Vec::new();
        push_section(&mut payload, TAG_CFG, encode_cfg(&self.cfg));
        push_section(&mut payload, TAG_CPU, encode_cpu(self));
        push_section(&mut payload, TAG_PIPE, encode_pipe(&self.slots));
        push_section(&mut payload, TAG_FSM, encode_fsms(self));
        push_section(&mut payload, TAG_STAT, encode_stats(&self.stats));
        push_section(
            &mut payload,
            TAG_ICACHE,
            encode_icache(&self.icache.snapshot_state()),
        );
        push_section(
            &mut payload,
            TAG_ECACHE,
            encode_ecache(&self.ecache.snapshot_state()),
        );
        push_section(
            &mut payload,
            TAG_MEM,
            encode_mem(&self.mem.snapshot_state()),
        );
        if let Some(plan) = plan {
            push_section(&mut payload, TAG_PLAN, encode_plan(plan));
        }
        let mut out = Vec::with_capacity(24 + payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
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
        let payload = verify_envelope(bytes)?;
        let sections = split_sections(payload)?;
        let cfg_body = sections
            .iter()
            .find(|(tag, _)| *tag == TAG_CFG)
            .map(|(_, body)| *body)
            .ok_or_else(|| SnapshotError::Malformed("missing CFG section".into()))?;
        let cfg = decode_cfg(cfg_body)?;
        let mut machine = Machine::new(cfg);
        let mut plan = None;
        let mut seen_cpu = false;
        for (tag, body) in sections {
            match tag {
                TAG_CFG => {}
                TAG_CPU => {
                    let cpu = decode_cpu(body)?;
                    for (i, v) in cpu.regs.iter().enumerate() {
                        machine.cpu.set_reg(Reg::new(i as u8), *v);
                    }
                    machine.cpu.pc = cpu.pc;
                    machine.cpu.pc_chain = cpu.chain;
                    machine.cpu.psw = cpu.psw;
                    machine.cpu.psw_old = cpu.psw_old;
                    machine.cpu.md = cpu.md;
                    machine.halted = cpu.halted;
                    machine.pending_fetch_kill = cpu.pending_fetch_kill;
                    machine.interrupt_line = cpu.interrupt_line;
                    machine.nmi_pending = cpu.nmi_pending;
                    machine.decoded.set_enabled(cpu.decode_enabled);
                    seen_cpu = true;
                }
                TAG_PIPE => machine.slots = decode_pipe(body)?,
                TAG_FSM => apply_fsms(&mut machine, body)?,
                TAG_STAT => machine.stats = decode_stats(body)?,
                TAG_ICACHE => {
                    let state = decode_icache(body)?;
                    machine
                        .icache
                        .restore_state(&state)
                        .map_err(SnapshotError::Malformed)?;
                }
                TAG_ECACHE => {
                    let state = decode_ecache(body)?;
                    machine
                        .ecache
                        .restore_state(&state)
                        .map_err(SnapshotError::Malformed)?;
                }
                TAG_MEM => {
                    let state = decode_mem(body)?;
                    machine
                        .mem
                        .restore_state(&state)
                        .map_err(SnapshotError::Malformed)?;
                }
                TAG_PLAN => plan = Some(decode_plan(body)?),
                // Unknown tag: a same-version writer appended a section this
                // reader does not know. Skip it.
                _ => {}
            }
        }
        if !seen_cpu {
            return Err(SnapshotError::Malformed("missing CPU section".into()));
        }
        Ok((machine, plan))
    }
}

/// Summarize a snapshot without building the machine: envelope fields,
/// section inventory, cycle/PC/halted at capture.
///
/// # Errors
/// As [`Machine::restore_snapshot`] for envelope and section-framing
/// problems.
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
    for (tag, body) in sections {
        info.sections.push((
            String::from_utf8_lossy(&tag).trim_end().to_string(),
            body.len() as u64,
        ));
        match tag {
            TAG_CPU => {
                let cpu = decode_cpu(body)?;
                info.pc = cpu.pc;
                info.halted = cpu.halted;
            }
            TAG_STAT => info.cycles = decode_stats(body)?.cycles,
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
        let bytes = encode_stats(&stats).buf;
        assert_eq!(bytes, expected);
        assert_eq!(decode_stats(&bytes).unwrap(), stats);
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
        let mut e = Enc::new();
        encode_cache_stats(&mut e, &stats);
        let expected: Vec<u8> = (1..=8u64).flat_map(u64::to_le_bytes).collect();
        assert_eq!(e.buf, expected);
        assert_eq!(decode_cache_stats(&mut Dec::new(&e.buf)).unwrap(), stats);
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
