//! Decode-once program images.
//!
//! MIPS-X words decode totally and statelessly, so a program image can be
//! decoded exactly once into a side-car table of [`DecodedEntry`] records —
//! the instruction plus its precomputed [`InstrMeta`] — instead of calling
//! `Instr::decode` on every fetched cycle. Two containers cover the two
//! access patterns:
//!
//! - [`DecodedImage`]: a dense, immutable table over one contiguous image.
//!   Static consumers (verifier, disassembler, [`Program`] accessors)
//!   iterate it.
//! - [`DecodedMem`]: a sparse, paged, *invalidatable* side-car over the
//!   executor's whole address space. The pipeline and the reference model
//!   fetch through it; a store to instruction memory clears the entry's
//!   valid bit so the next fetch re-decodes the freshly written word
//!   (the invalidation rule that keeps self-modifying code coherent).

use mipsx_isa::{Instr, InstrMeta};

use crate::Program;

/// One decoded word: the raw word, its instruction, and the precomputed
/// static metadata. This is the unit every decode-once consumer reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodedEntry {
    /// The raw 32-bit memory word.
    pub word: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Precomputed per-instruction facts.
    pub meta: InstrMeta,
}

impl DecodedEntry {
    /// Decode one word. The single shared decode point: everything outside
    /// image construction reads `DecodedEntry` fields instead of calling
    /// `Instr::decode` again.
    #[inline]
    pub fn decode(word: u32) -> DecodedEntry {
        let instr = Instr::decode(word);
        DecodedEntry {
            word,
            instr,
            meta: InstrMeta::of(instr),
        }
    }

    /// Whether this entry is the `halt` sentinel — the one block
    /// terminator the metadata flags cannot express (`halt` is neither a
    /// branch nor a jump), so the basic-block partitioner asks here.
    #[inline]
    pub fn is_halt(&self) -> bool {
        matches!(self.instr, Instr::Halt)
    }
}

/// A dense decoded table over one contiguous image: `entries[i]` decodes
/// the word at `origin + i`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodedImage {
    origin: u32,
    entries: Vec<DecodedEntry>,
}

impl DecodedImage {
    /// Decode every word of a contiguous image, once.
    pub fn decode(origin: u32, words: &[u32]) -> DecodedImage {
        DecodedImage {
            origin,
            entries: words.iter().map(|&w| DecodedEntry::decode(w)).collect(),
        }
    }

    /// Decode a whole [`Program`] image.
    pub fn from_program(program: &Program) -> DecodedImage {
        DecodedImage::decode(program.origin, &program.words)
    }

    /// Word address the image starts at.
    #[inline]
    pub fn origin(&self) -> u32 {
        self.origin
    }

    /// Number of words in the image.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the image is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The table index of a word address (`addr - origin`), if inside the
    /// image. Static analyses key their per-word tables by it.
    #[inline]
    pub fn index(&self, addr: u32) -> Option<usize> {
        addr.checked_sub(self.origin)
            .map(|i| i as usize)
            .filter(|&i| i < self.entries.len())
    }

    /// The decoded entry at a word address, if inside the image.
    #[inline]
    pub fn get(&self, addr: u32) -> Option<&DecodedEntry> {
        addr.checked_sub(self.origin)
            .and_then(|i| self.entries.get(i as usize))
    }

    /// Every entry, in address order: `entries()[i]` decodes the word at
    /// `origin + i`.
    #[inline]
    pub fn entries(&self) -> &[DecodedEntry] {
        &self.entries
    }

    /// The instruction at a word address, if inside the image.
    #[inline]
    pub fn instr_at(&self, addr: u32) -> Option<Instr> {
        self.get(addr).map(|e| e.instr)
    }

    /// The metadata at a word address, if inside the image.
    #[inline]
    pub fn meta_at(&self, addr: u32) -> Option<&InstrMeta> {
        self.get(addr).map(|e| &e.meta)
    }

    /// Iterate `(address, entry)` pairs over the whole image.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &DecodedEntry)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(move |(i, e)| (self.origin + i as u32, e))
    }
}

/// Words per [`DecodedMem`] page. Pages are allocated lazily, so the
/// executor pays only for address ranges it actually fetches from.
const PAGE_WORDS: usize = 1024;

/// One lazily decoded page: a valid bitmap plus the entry table.
struct Page {
    valid: [u64; PAGE_WORDS / 64],
    entries: Box<[DecodedEntry]>,
}

impl Page {
    fn new() -> Page {
        Page {
            valid: [0; PAGE_WORDS / 64],
            // Heap-allocate directly (a fixed-size array literal would be
            // built on the stack and copied over).
            entries: vec![DecodedEntry::decode(0); PAGE_WORDS].into_boxed_slice(),
        }
    }

    #[inline]
    fn is_valid(&self, idx: usize) -> bool {
        self.valid[idx / 64] & (1 << (idx % 64)) != 0
    }

    #[inline]
    fn set_valid(&mut self, idx: usize) {
        self.valid[idx / 64] |= 1 << (idx % 64);
    }

    #[inline]
    fn clear_valid(&mut self, idx: usize) {
        self.valid[idx / 64] &= !(1 << (idx % 64));
    }
}

/// A sparse, invalidatable decode cache over the executor's address space.
///
/// The pipeline's IF stage and the reference model's retire path fetch
/// through [`DecodedMem::fetch_with`], which decodes each word the first
/// time it is fetched and returns the memoized entry afterwards. Any write
/// that can alter instruction memory must call [`DecodedMem::invalidate`]
/// for the stored address — the entry's valid bit is cleared and the next
/// fetch re-decodes whatever word the real fetch path then returns. The
/// rule is write-invalidate rather than write-update on purpose: it stays
/// correct no matter what the memory hierarchy between the store and the
/// next fetch does to the word.
///
/// Disabling the cache ([`DecodedMem::set_enabled`]) makes every fetch
/// decode afresh — the word-decode baseline the decode differential test
/// compares against.
pub struct DecodedMem {
    /// `(page number, page)` — a handful of pages in practice, scanned
    /// linearly with a most-recently-used fast path.
    pages: Vec<(u32, Page)>,
    /// Index of the most recently fetched page.
    mru: usize,
    /// The page number at `pages[mru]`, mirrored into the struct header so
    /// the per-fetch probe is one register compare with no pointer chase.
    /// `u64::MAX` (never a valid `u32` page number) when `pages` holds no
    /// MRU — the invariant is: `mru_page != u64::MAX` implies
    /// `pages[mru].0 as u64 == mru_page`.
    mru_page: u64,
    enabled: bool,
}

impl Default for DecodedMem {
    fn default() -> DecodedMem {
        DecodedMem::new()
    }
}

impl DecodedMem {
    /// An empty cache with memoization enabled.
    pub fn new() -> DecodedMem {
        DecodedMem {
            pages: Vec::new(),
            mru: 0,
            mru_page: u64::MAX,
            enabled: true,
        }
    }

    /// Whether fetches are memoized.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable memoization. Disabling drops all cached entries,
    /// so re-enabling starts cold (never stale).
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.clear();
        }
        self.enabled = enabled;
    }

    /// Drop every cached entry (e.g. before loading a fresh image over a
    /// possibly-executed address range). Page allocations are kept — the
    /// entry tables are the only sizable buffers here and machine-reuse
    /// paths clear this cache once per job — and invalidated wholesale by
    /// zeroing their valid bitmaps.
    pub fn clear(&mut self) {
        for (_, page) in &mut self.pages {
            page.valid = [0; PAGE_WORDS / 64];
        }
        self.mru = 0;
        self.mru_page = u64::MAX;
    }

    /// Index into `pages` for `page_no`, creating the page if needed — the
    /// out-of-line miss path behind the MRU probe in `fetch_with`.
    #[cold]
    fn page_index_slow(&mut self, page_no: u32) -> usize {
        let i = match self.pages.iter().position(|&(no, _)| no == page_no) {
            Some(i) => i,
            None => {
                self.pages.push((page_no, Page::new()));
                self.pages.len() - 1
            }
        };
        self.mru = i;
        self.mru_page = u64::from(page_no);
        i
    }

    /// Fetch the decoded entry for `addr`, calling `read_word` for the raw
    /// word only when the entry is absent (or the cache is disabled).
    #[inline]
    pub fn fetch_with(&mut self, addr: u32, read_word: impl FnOnce() -> u32) -> DecodedEntry {
        if !self.enabled {
            return DecodedEntry::decode(read_word());
        }
        let page_no = addr / PAGE_WORDS as u32;
        let idx = (addr as usize) % PAGE_WORDS;
        let p = if self.mru_page == u64::from(page_no) {
            self.mru
        } else {
            self.page_index_slow(page_no)
        };
        let page = &mut self.pages[p].1;
        if page.is_valid(idx) {
            return page.entries[idx];
        }
        let entry = DecodedEntry::decode(read_word());
        page.entries[idx] = entry;
        page.set_valid(idx);
        entry
    }

    /// Drop the cached entry for `addr`. Must be called for every write
    /// that can alter instruction memory; the next fetch re-decodes.
    #[inline]
    pub fn invalidate(&mut self, addr: u32) {
        if !self.enabled {
            return;
        }
        let page_no = addr / PAGE_WORDS as u32;
        let idx = (addr as usize) % PAGE_WORDS;
        // Most stores land either in the code page IF has hot (the MRU) or
        // in an untouched data page (no entry to drop) — both are decided
        // without the scan.
        if self.mru_page == u64::from(page_no) {
            self.pages[self.mru].1.clear_valid(idx);
        } else if let Some(i) = self.pages.iter().position(|&(no, _)| no == page_no) {
            self.pages[i].1.clear_valid(idx);
        }
    }

    /// Eagerly decode a contiguous image, so the first pass over a freshly
    /// loaded program hits warm entries.
    pub fn preload(&mut self, origin: u32, words: &[u32]) {
        if !self.enabled {
            return;
        }
        for (i, &w) in words.iter().enumerate() {
            let addr = origin.wrapping_add(i as u32);
            let idx = (addr as usize) % PAGE_WORDS;
            let page_no = addr / PAGE_WORDS as u32;
            let p = if self.mru_page == u64::from(page_no) {
                self.mru
            } else {
                self.page_index_slow(page_no)
            };
            let page = &mut self.pages[p].1;
            page.entries[idx] = DecodedEntry::decode(w);
            page.set_valid(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_isa::Reg;

    fn addi(rd: u8, imm: i32) -> Instr {
        Instr::Addi {
            rs1: Reg::ZERO,
            rd: Reg::new(rd),
            imm,
        }
    }

    #[test]
    fn entry_decode_matches_instr_decode() {
        for w in [0u32, u32::MAX, addi(3, 7).encode(), Instr::Halt.encode()] {
            let e = DecodedEntry::decode(w);
            assert_eq!(e.word, w);
            assert_eq!(e.instr, Instr::decode(w));
            assert_eq!(e.meta, e.instr.meta());
        }
    }

    #[test]
    fn dense_image_indexes_by_origin() {
        let words = vec![addi(1, 5).encode(), Instr::Nop.encode()];
        let img = DecodedImage::decode(0x100, &words);
        assert_eq!(img.len(), 2);
        assert_eq!(img.origin(), 0x100);
        assert!(img.get(0xFF).is_none());
        assert_eq!(img.instr_at(0x101), Some(Instr::Nop));
        assert!(img.meta_at(0x101).unwrap().is_nop);
        let pairs: Vec<u32> = img.iter().map(|(a, _)| a).collect();
        assert_eq!(pairs, vec![0x100, 0x101]);
        assert_eq!(img.index(0x101), Some(1));
        assert_eq!(img.index(0xFF), None);
        assert_eq!(img.index(0x102), None);
        assert_eq!(img.entries()[1], *img.get(0x101).unwrap());
    }

    #[test]
    fn fetch_memoizes_and_invalidate_redecodes() {
        let mut dm = DecodedMem::new();
        let old = addi(1, 1).encode();
        let new = addi(2, 9).encode();
        assert_eq!(dm.fetch_with(0x40, || old).instr, addi(1, 1));
        // Memoized: the read closure must not run again.
        assert_eq!(
            dm.fetch_with(0x40, || panic!("stale entry re-read memory"))
                .instr,
            addi(1, 1)
        );
        // Without invalidation the stale decode would survive a write.
        dm.invalidate(0x40);
        assert_eq!(dm.fetch_with(0x40, || new).instr, addi(2, 9));
    }

    #[test]
    fn invalidate_unknown_address_is_noop() {
        let mut dm = DecodedMem::new();
        dm.invalidate(0xDEAD_BEEF);
        assert_eq!(dm.fetch_with(3, || 0).instr, Instr::decode(0));
    }

    #[test]
    fn disabled_cache_always_redecodes() {
        let mut dm = DecodedMem::new();
        dm.set_enabled(false);
        let a = addi(1, 1).encode();
        let b = addi(2, 2).encode();
        assert_eq!(dm.fetch_with(7, || a).instr, addi(1, 1));
        assert_eq!(dm.fetch_with(7, || b).instr, addi(2, 2));
        // Re-enabling starts cold rather than serving pre-disable entries.
        dm.set_enabled(true);
        assert_eq!(dm.fetch_with(7, || b).instr, addi(2, 2));
    }

    #[test]
    fn preload_crosses_page_boundaries() {
        let mut dm = DecodedMem::new();
        let words: Vec<u32> = (0..2048).map(|i| addi(1, i & 0xFF).encode()).collect();
        dm.preload(0x300, &words);
        for (i, &w) in words.iter().enumerate() {
            let e = dm.fetch_with(0x300 + i as u32, || panic!("preload missed {i}"));
            assert_eq!(e.word, w);
        }
    }
}
