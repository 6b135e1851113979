//! The external cache's paged tag store against a dense reference, on the
//! ideal-memory machine's Ecache (a million frames, 256 tag pages) and the
//! board's (16K frames, 4 pages).

use std::collections::BTreeSet;

use mipsx_mem::{Ecache, EcacheConfig, MainMemory};

/// The Ecache of `MachineConfig::ideal_memory()`.
fn ideal_memory() -> EcacheConfig {
    EcacheConfig {
        size_words: 1 << 22,
        ..EcacheConfig::mipsx()
    }
}

fn configs() -> [EcacheConfig; 2] {
    [ideal_memory(), EcacheConfig::mipsx()]
}

/// A dense direct-mapped tag array with the same index/tag split.
struct Dense {
    cfg: EcacheConfig,
    tags: Vec<Option<u32>>,
    seen: BTreeSet<u32>,
}

impl Dense {
    fn new(cfg: EcacheConfig) -> Dense {
        let frames = cfg.size_words / cfg.block_words;
        Dense {
            cfg,
            tags: vec![None; frames as usize],
            seen: BTreeSet::new(),
        }
    }

    fn read(&mut self, addr: u32) {
        let block = addr / self.cfg.block_words;
        let frames = self.tags.len() as u32;
        self.tags[(block % frames) as usize] = Some(block / frames);
        self.seen.insert(block);
    }

    fn occupancy(&self) -> u32 {
        self.tags.iter().filter(|t| t.is_some()).count() as u32
    }
}

/// Addresses touching the first and last frames, a block address near
/// `u32::MAX`, a conflicting pair, and a scatter across many pages.
fn addresses(cfg: EcacheConfig) -> Vec<u32> {
    let last_frame = cfg.size_words - cfg.block_words;
    let mut addrs = vec![
        0,
        1,
        last_frame,
        last_frame + cfg.block_words - 1,
        u32::MAX,
        u32::MAX - cfg.block_words,
        cfg.size_words, // conflicts with address 0
    ];
    addrs.extend((0..200u32).map(|i| i.wrapping_mul(0x9E37_79B9) >> 3));
    addrs
}

fn warmed(cfg: EcacheConfig) -> (Ecache, Dense, MainMemory) {
    let (mut cache, mut dense, mut mem) = (Ecache::new(cfg), Dense::new(cfg), MainMemory::new());
    for a in addresses(cfg) {
        let _ = cache.read(a, &mut mem);
        dense.read(a);
    }
    (cache, dense, mem)
}

#[test]
fn snapshot_matches_dense_reference_and_round_trips() {
    for cfg in configs() {
        let (cache, dense, _) = warmed(cfg);
        let state = cache.snapshot_state();
        assert_eq!(state.tags, dense.tags, "{cfg:?}: tags");
        assert_eq!(
            state.seen_blocks,
            dense.seen.iter().copied().collect::<Vec<_>>(),
            "{cfg:?}: seen blocks"
        );

        // Into a fresh cache, and over a cache holding other tags.
        let mut fresh = Ecache::new(cfg);
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.snapshot_state(), state, "{cfg:?}: fresh restore");
        let mut dirty = Ecache::new(cfg);
        let mut mem = MainMemory::new();
        for a in (0..64u32).map(|i| 7 + i * (cfg.size_words / 64)) {
            let _ = dirty.read(a, &mut mem);
        }
        dirty.restore_state(&state).unwrap();
        assert_eq!(dirty.snapshot_state(), state, "{cfg:?}: dirty restore");
        for a in addresses(cfg) {
            assert_eq!(dirty.probe(a), cache.probe(a), "{cfg:?}: probe {a:#x}");
        }

        let mut short = state.clone();
        short.tags.pop();
        assert!(Ecache::new(cfg).restore_state(&short).is_err());
    }
}

#[test]
fn occupancy_matches_dense_reference() {
    for cfg in configs() {
        let frames = cfg.size_words / cfg.block_words;
        assert_eq!(Ecache::new(cfg).occupancy(), (0, frames));
        let (cache, dense, _) = warmed(cfg);
        assert_eq!(cache.occupancy(), (dense.occupancy(), frames), "{cfg:?}");
    }
}

#[test]
fn invalidate_all_makes_every_block_cold_again() {
    for cfg in configs() {
        let (mut cache, _, mut mem) = warmed(cfg);
        cache.invalidate_all();
        assert_eq!(cache.occupancy().0, 0, "{cfg:?}");
        assert!(cache.snapshot_state().seen_blocks.is_empty());
        let before = *cache.stats();
        for a in [0, u32::MAX, cfg.size_words - 1] {
            assert!(!cache.probe(a), "{cfg:?}: {a:#x} survived");
            let (_, extra) = cache.read(a, &mut mem);
            assert!(extra > 0, "{cfg:?}: {a:#x} hit after invalidate");
        }
        let after = cache.stats();
        assert_eq!(after.cold_misses - before.cold_misses, 3, "{cfg:?}");
        assert_eq!(after.conflict_misses, before.conflict_misses, "{cfg:?}");
    }
}
