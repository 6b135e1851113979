//! Property tests: the instruction cache against a brute-force reference
//! model, plus structural invariants.

use mipsx_mem::{
    CacheStats, Ecache, EcacheConfig, EcacheState, FetchOutcome, HitMemo, Icache, IcacheConfig,
    IcacheState, MainMemory, Replacement,
};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Brute-force reference: per row, a FIFO of (tag, valid-words) blocks with
/// the same capacity. Mirrors the cache's documented behaviour
/// word-for-word, with none of its packing tricks.
struct RefCache {
    cfg: IcacheConfig,
    rows: Vec<VecDeque<(u32, HashMap<u32, bool>)>>,
}

impl RefCache {
    fn new(cfg: IcacheConfig) -> RefCache {
        RefCache {
            cfg,
            rows: (0..cfg.rows).map(|_| VecDeque::new()).collect(),
        }
    }

    fn locate(&self, addr: u32) -> (usize, u32, u32) {
        let block = addr / self.cfg.block_words;
        (
            (block % self.cfg.rows) as usize,
            block / self.cfg.rows,
            addr % self.cfg.block_words,
        )
    }

    fn probe(&self, addr: u32) -> bool {
        let (row, tag, word) = self.locate(addr);
        self.rows[row]
            .iter()
            .any(|(t, valid)| *t == tag && valid.get(&word).copied().unwrap_or(false))
    }

    fn fill(&mut self, addr: u32) {
        let (row, tag, word) = self.locate(addr);
        if let Some((_, valid)) = self.rows[row].iter_mut().find(|(t, _)| *t == tag) {
            valid.insert(word, true);
            return;
        }
        if self.rows[row].len() as u32 >= self.cfg.ways {
            self.rows[row].pop_front(); // FIFO victim
        }
        let mut valid = HashMap::new();
        valid.insert(word, true);
        self.rows[row].push_back((tag, valid));
    }
}

/// What [`Icache::simulate_trace`] must book, built word by word from the
/// public surface: `fetch` each address, and on a miss apply the miss-fill
/// rule through `fill`, keeping the service cost beside the cache with
/// [`CacheStats::add_miss_cost`]. Returns the cache's final state with that
/// cost folded into its statistics.
fn word_by_word(cfg: IcacheConfig, trace: &[u32]) -> IcacheState {
    book_word_by_word(Icache::new(cfg), trace)
}

/// [`word_by_word`] from a cache in any state.
fn book_word_by_word(mut cache: Icache, trace: &[u32]) -> IcacheState {
    let cfg = cache.config();
    let mut cost = CacheStats::new();
    for &a in trace {
        if cache.fetch(a) == FetchOutcome::Hit {
            continue;
        }
        if cfg.whole_block_fill {
            let base = a - a % cfg.block_words;
            for w in 0..cfg.block_words {
                cache.fill(base + w);
            }
            cost.add_miss_cost(
                u64::from(cfg.block_words.max(2)),
                u64::from(cfg.block_words),
            );
        } else {
            cache.fill(a);
            if cfg.fetch_words == 2 {
                cache.fill(a.wrapping_add(1));
            }
            cost.add_miss_cost(u64::from(cfg.miss_penalty), u64::from(cfg.fetch_words));
        }
    }
    let mut state = cache.snapshot_state();
    state
        .stats
        .add_miss_cost(cost.stall_cycles, cost.words_filled);
    state
}

fn small_cfg() -> IcacheConfig {
    IcacheConfig {
        rows: 2,
        ways: 2,
        block_words: 4,
        fetch_words: 1,
        miss_penalty: 2,
        replacement: Replacement::Fifo,
        enabled: true,
        whole_block_fill: false,
    }
}

proptest! {
    /// Hit/miss decisions must match the reference model exactly over any
    /// access sequence (single-word fetch, FIFO replacement).
    #[test]
    fn matches_reference_model(addrs in prop::collection::vec(0u32..64, 1..400)) {
        let cfg = small_cfg();
        let mut cache = Icache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for &a in &addrs {
            let expected = reference.probe(a);
            let got = cache.fetch(a) == FetchOutcome::Hit;
            prop_assert_eq!(got, expected, "divergence at address {}", a);
            if !expected {
                reference.fill(a);
                cache.fill(a);
            }
        }
    }

    /// A fetch immediately after a fill of the same address always hits,
    /// under every replacement policy and fetch width.
    #[test]
    fn fill_then_fetch_hits(
        addrs in prop::collection::vec(any::<u32>(), 1..100),
        policy in prop::sample::select(vec![Replacement::Fifo, Replacement::Lru, Replacement::Random]),
        fetch_words in 1u32..=2,
    ) {
        let mut cache = Icache::new(IcacheConfig {
            replacement: policy,
            fetch_words,
            ..IcacheConfig::mipsx()
        });
        for &a in &addrs {
            cache.fill(a);
            prop_assert_eq!(cache.fetch(a), FetchOutcome::Hit);
        }
    }

    /// Statistics identity: hits + misses == accesses, and the miss ratio
    /// stays within [0, 1].
    #[test]
    fn stats_are_consistent(addrs in prop::collection::vec(0u32..2048, 0..500)) {
        let mut cache = Icache::mipsx();
        let s = cache.simulate_trace(addrs.iter().copied());
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert!((0.0..=1.0).contains(&s.miss_ratio()));
        prop_assert!(s.avg_access_cycles() >= 1.0 || s.accesses == 0);
    }

    /// Double fetch-back never hurts: over any trace, misses with
    /// `fetch_words = 2` are at most those with `fetch_words = 1`.
    #[test]
    fn double_fetch_never_worse(addrs in prop::collection::vec(0u32..4096, 1..600)) {
        // Sequentially biased trace: mix raw addresses with short runs.
        let mut trace = Vec::new();
        for &a in &addrs {
            for k in 0..(a % 4) {
                trace.push(a.wrapping_add(k) % 4096);
            }
            trace.push(a);
        }
        let run = |fetch_words| {
            let mut c = Icache::new(IcacheConfig { fetch_words, ..IcacheConfig::mipsx() });
            c.simulate_trace(trace.iter().copied()).misses
        };
        prop_assert!(run(2) <= run(1));
    }

    /// The trace kernel books exactly what word-by-word fetches and fills
    /// book — statistics (miss causes included) and the whole cache state —
    /// through both entry points: `simulate_runs` on the runs themselves
    /// and `simulate_trace` on their flattened words. Organizations range
    /// from direct-mapped to 32 ways, 1- to 64-word blocks, every
    /// replacement policy, single and double fetch-back, whole-block fill,
    /// and a disabled cache. Runs cross lines, are empty, abut the run
    /// before them, wrap a small code size back to word 0, or start within
    /// 64 words of `u32::MAX` and wrap the address space. Each span is a
    /// loop of 1 to 6 trips back to back, as the trace generator's loops
    /// are, so repeated runs take the kernel's memo path, and small
    /// organizations evict a loop's lines in the middle of its trips.
    /// About half the spans come back to the loop before the previous
    /// one, whose lines the loop between may have evicted or moved.
    #[test]
    fn trace_kernel_books_like_word_by_word(
        spans in prop::collection::vec((0u32..4096, 0u32..40, 0u32..48, 1u32..=6, any::<bool>()), 1..80),
        rows in prop::sample::select(vec![1u32, 2, 4, 8]),
        ways in 1u32..=32,
        block_words in prop::sample::select(vec![1u32, 2, 4, 8, 16, 32, 64]),
        policy in prop::sample::select(vec![Replacement::Fifo, Replacement::Lru, Replacement::Random]),
        flags in (1u32..=2, any::<bool>(), 0u32..8),
        layout in 0u32..3,
    ) {
        let (fetch_words, whole_block_fill, enabled) = flags;
        let cfg = IcacheConfig {
            rows,
            ways,
            block_words,
            fetch_words,
            miss_penalty: 2,
            replacement: policy,
            enabled: enabled != 0,
            whole_block_fill,
        };
        // Sequential runs from scattered starts, so lines are both re-hit
        // and evicted. A span's first trip ends in two abutting runs
        // (either may be empty); its later trips repeat the span's runs
        // whole.
        let mut runs = Vec::new();
        let mut loops: Vec<(u32, u32)> = Vec::new();
        for &(start, len, cut, trips, again) in &spans {
            let (start, len) = match loops.len().checked_sub(2) {
                Some(before_last) if again => loops[before_last],
                _ => (start, len),
            };
            loops.push((start, len));
            let trip = match layout {
                // A 96-word program: the span wraps to word 0 mid-line,
                // as the generator's runs are split at the code size.
                1 => {
                    let start = start % 96;
                    let first = len.min(96 - start);
                    vec![(start, first), (0, len - first)]
                }
                // The top of the address space: the span wraps past
                // `u32::MAX` inside one run.
                2 => vec![((u32::MAX - 63).wrapping_add(start % 192), len)],
                _ => vec![(start, len)],
            };
            let (&(start, len), lead) = trip.split_last().unwrap();
            let cut = cut.min(len);
            runs.extend_from_slice(lead);
            runs.push((start, cut));
            runs.push((start.wrapping_add(cut), len - cut));
            for _ in 1..trips {
                runs.extend_from_slice(&trip);
            }
        }
        let words = |runs: &[(u32, u32)]| -> Vec<u32> {
            runs.iter()
                .flat_map(|&(start, len)| (0..len).map(move |k| start.wrapping_add(k)))
                .collect()
        };
        // Two calls on each path, with the cache moved between them into
        // a fresh one through its checkpoint: no run may leak across the
        // calls, and the restored cache books as the live one would.
        let (head, tail) = runs.split_at(runs.len() / 2);
        let reborn = |cache: &Icache| {
            let mut fresh = Icache::new(cfg);
            fresh.restore_state(&cache.snapshot_state()).unwrap();
            fresh
        };
        let mut by_words = Icache::new(cfg);
        let _ = by_words.simulate_trace(words(head));
        let mut by_words = reborn(&by_words);
        let _ = by_words.simulate_trace(words(tail));
        let mut by_runs = Icache::new(cfg);
        let _ = by_runs.simulate_runs(head);
        let mut by_runs = reborn(&by_runs);
        let stats = by_runs.simulate_runs(tail);
        let reference = word_by_word(cfg, &words(&runs));
        prop_assert_eq!(stats, reference.stats);
        prop_assert_eq!(by_runs.snapshot_state(), reference.clone());
        prop_assert_eq!(*by_words.stats(), reference.stats);
        prop_assert_eq!(by_words.snapshot_state(), reference);
    }
}

proptest! {
    /// `n` repeats of one run through `simulate_runs` book what `n` passes
    /// of word-by-word fetches and fills book under LRU, whose victims read
    /// the stamps: the same statistics, clock and per-block stamps. The
    /// repeats after the first trip that hits throughout are booked
    /// together by one `Icache::replay`, so a pass too many or too few, or
    /// stamps from the wrong pass, show here. Runs span up to eleven lines,
    /// past what a memo records, and other runs come before and after.
    #[test]
    fn repeated_runs_replay_like_word_by_word_under_lru(
        before in prop::collection::vec((0u32..256, 0u32..24), 0..6),
        run in (0u32..256, 1u32..44),
        repeats in 1usize..24,
        after in prop::collection::vec((0u32..256, 0u32..24), 0..3),
        rows in prop::sample::select(vec![1u32, 2, 4]),
        ways in 1u32..=8,
        block_words in prop::sample::select(vec![2u32, 4, 8, 16]),
        fetch_words in 1u32..=2,
    ) {
        let cfg = IcacheConfig {
            rows,
            ways,
            block_words,
            fetch_words,
            replacement: Replacement::Lru,
            ..IcacheConfig::mipsx()
        };
        let mut runs = before;
        runs.extend(std::iter::repeat_n(run, repeats));
        runs.extend(after);
        let words: Vec<u32> = runs.iter().flat_map(|&(s, l)| s..s + l).collect();
        let reference = word_by_word(cfg, &words);
        let mut by_runs = Icache::new(cfg);
        prop_assert_eq!(by_runs.simulate_runs(&runs), reference.stats);
        prop_assert_eq!(by_runs.snapshot_state(), reference);
    }
}

/// An Icache with the Ecache and memory behind it.
#[derive(Clone)]
struct Hierarchy {
    icache: Icache,
    ecache: Ecache,
    mem: MainMemory,
}

impl Hierarchy {
    fn new(icache: IcacheConfig, ecache: EcacheConfig, latency: u32) -> Hierarchy {
        Hierarchy {
            icache: Icache::new(icache),
            ecache: Ecache::new(ecache),
            mem: MainMemory::with_latency(latency),
        }
    }

    /// The hierarchy's whole state: both caches and memory's read count.
    fn state(&self) -> (IcacheState, EcacheState, u64) {
        (
            self.icache.snapshot_state(),
            self.ecache.snapshot_state(),
            self.mem.reads(),
        )
    }
}

/// What a visit makes of the hierarchy, in order: an Icache miss as the
/// run offset of its fetch and its stall, a data read as its index and its
/// stall.
#[derive(Debug, PartialEq)]
enum Event {
    Miss(u32, u32),
    Read(usize, u32),
}

/// One visit of the run `(start, len)` as the stepper makes it: each fetch
/// through `fetch_through`, then the data reads due after it. `reads` holds
/// `(fetch offset, address)` in program order, offsets ascending.
fn visit_word_by_word(
    h: &mut Hierarchy,
    (start, len): (u32, u32),
    reads: &[(u32, u32)],
) -> Vec<Event> {
    let mut events = Vec::new();
    let mut next = 0;
    for k in 0..len {
        let misses = h.icache.stats().misses;
        let stall = h
            .icache
            .fetch_through(start.wrapping_add(k), &mut h.ecache, &mut h.mem);
        if h.icache.stats().misses > misses {
            events.push(Event::Miss(k, stall));
        }
        while next < reads.len() && reads[next].0 == k {
            events.push(Event::Read(
                next,
                h.ecache.access(reads[next].1, &mut h.mem),
            ));
            next += 1;
        }
    }
    events
}

/// The same visit as the block engine makes it: the run through
/// `fetch_run` (and `memo`), then each missed fetch's `fill_reads` in fetch
/// order, after the data reads due before that fetch.
fn visit_by_lines(
    h: &mut Hierarchy,
    (start, len): (u32, u32),
    reads: &[(u32, u32)],
    memo: &mut HitMemo,
) -> Vec<Event> {
    let mut missed = Vec::new();
    h.icache.fetch_run(start, len, memo, &mut missed);
    let mut events = Vec::new();
    let mut next = 0;
    for k in missed.into_iter().map(Some).chain([None]) {
        while next < reads.len() && k.is_none_or(|k| reads[next].0 < k) {
            events.push(Event::Read(
                next,
                h.ecache.access(reads[next].1, &mut h.mem),
            ));
            next += 1;
        }
        if let Some(k) = k {
            let stall = h
                .icache
                .fill_reads(start.wrapping_add(k), &mut h.ecache, &mut h.mem);
            events.push(Event::Miss(k, stall));
        }
    }
    events
}

proptest! {
    /// The line path books what the stepper's word-by-word path books. One
    /// hierarchy takes random visits through `fetch_run` plus `fill_reads`
    /// with data reads interleaved by fetch position, its twin takes them
    /// through `fetch_through` plus `Ecache::access`; after every visit
    /// both give the same miss and read sequence with the same stalls, the
    /// same Icache and Ecache state and the same memory reads. Data reads
    /// land on the code's Ecache frames (a small Ecache, close addresses),
    /// so their order against the fill reads shows. Runs cross lines and
    /// wrap past `u32::MAX`; memos start empty each visit.
    #[test]
    fn line_path_books_like_fetch_through(
        visits in prop::collection::vec(
            (0u32..192, 1u32..70, prop::collection::vec((0u32..70, 0u32..256), 0..6)),
            1..24,
        ),
        shape in (prop::sample::select(vec![1u32, 2, 4, 8]), 1u32..=8, prop::sample::select(vec![2u32, 4, 8, 16, 32])),
        rule in (0u32..3, 1u32..=4, prop::sample::select(vec![Replacement::Fifo, Replacement::Lru, Replacement::Random])),
        ecache in (prop::sample::select(vec![16u32, 64, 65536]), prop::sample::select(vec![1u32, 2, 4]), 0u32..=2, 1u32..=11),
        base in prop::sample::select(vec![0u32, u32::MAX - 127]),
    ) {
        let (rows, ways, block_words) = shape;
        let (fill, miss_penalty, replacement) = rule;
        let (size_words, ecache_block, late_miss_overhead, latency) = ecache;
        let icache = IcacheConfig {
            rows,
            ways,
            block_words,
            fetch_words: if fill == 0 { 1 } else { 2 },
            miss_penalty,
            replacement,
            enabled: true,
            whole_block_fill: fill == 2,
        };
        let ecache = EcacheConfig {
            size_words,
            block_words: ecache_block,
            late_miss_overhead,
            enabled: true,
        };
        let mut lines = Hierarchy::new(icache, ecache, latency);
        let mut words = lines.clone();
        for (visit, (start, len, reads)) in visits.iter().enumerate() {
            let run = (base.wrapping_add(*start), *len);
            let mut reads: Vec<(u32, u32)> = reads
                .iter()
                .map(|&(at, addr)| (at % len, base.wrapping_add(addr)))
                .collect();
            reads.sort_by_key(|&(at, _)| at);
            let got = visit_by_lines(&mut lines, run, &reads, &mut HitMemo::default());
            let want = visit_word_by_word(&mut words, run, &reads);
            prop_assert_eq!(got, want, "visit {}: events", visit);
            prop_assert_eq!(lines.state(), words.state(), "visit {}: state", visit);
        }
    }

    /// Memoized visits book what word-by-word visits book. Twin hierarchies
    /// take the same random block visits, one through `fetch_run` with a
    /// memo per block, one through `fetch_through`, with word
    /// invalidations, whole-cache invalidations and checkpoint restores
    /// interleaved, under every replacement policy, each miss-fill rule
    /// and a disabled cache. Blocks repeat, so memos are replayed, rebuilt
    /// and outlived by evictions; short lines make some blocks span more
    /// lines than a memo holds. After every step both hold the same state.
    #[test]
    fn memoized_hits_book_like_walks(
        blocks in prop::collection::vec((0u32..192, 0u32..40), 1..8),
        steps in prop::collection::vec((0u32..16, any::<u32>()), 1..160),
        rows in prop::sample::select(vec![1u32, 2, 4]),
        ways in 1u32..=4,
        block_words in prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        policy in prop::sample::select(vec![Replacement::Fifo, Replacement::Lru, Replacement::Random]),
        flags in (1u32..=2, any::<bool>(), 0u32..8),
        base in prop::sample::select(vec![0u32, u32::MAX - 95]),
    ) {
        let (fetch_words, whole_block_fill, enabled) = flags;
        let cfg = IcacheConfig {
            rows,
            ways,
            block_words,
            fetch_words,
            miss_penalty: 2,
            replacement: policy,
            enabled: enabled != 0,
            whole_block_fill,
        };
        let runs: Vec<(u32, u32)> =
            blocks.iter().map(|&(start, len)| (base.wrapping_add(start), len)).collect();
        let mut memoized = Hierarchy::new(cfg, EcacheConfig::mipsx(), 5);
        let mut walked = memoized.clone();
        let mut memos = vec![HitMemo::default(); runs.len()];
        let mut checkpoint = memoized.icache.snapshot_state();
        for (step, &(kind, pick)) in steps.iter().enumerate() {
            match kind {
                // Word invalidation, as a parity error does.
                0 => {
                    let (start, len) = runs[pick as usize % runs.len()];
                    let addr = start.wrapping_add((pick >> 8) % len.max(1));
                    prop_assert_eq!(
                        memoized.icache.invalidate_word(addr),
                        walked.icache.invalidate_word(addr)
                    );
                }
                1 => {
                    memoized.icache.invalidate_all();
                    walked.icache.invalidate_all();
                }
                2 => checkpoint = walked.icache.snapshot_state(),
                3 => {
                    memoized.icache.restore_state(&checkpoint).unwrap();
                    walked.icache.restore_state(&checkpoint).unwrap();
                }
                _ => {
                    let b = pick as usize % runs.len();
                    let got = visit_by_lines(&mut memoized, runs[b], &[], &mut memos[b]);
                    let want = visit_word_by_word(&mut walked, runs[b], &[]);
                    prop_assert_eq!(got, want, "step {}: visit of block {}", step, b);
                }
            }
            prop_assert_eq!(memoized.state(), walked.state(), "step {}: hierarchies diverged", step);
        }
    }
}

/// Loop trips over 5 to 9 lines of 4 words, E3's 4-word organization in
/// small: a memo holds up to 8 lines, so every trip but the 9-line ones
/// replays from the third on. Between loops a conflicting run evicts a
/// line of the loop or leaves it resident, and the loop comes back. Both
/// entry points — the trace path and `fetch_run` with a memo, its fill
/// reads included — book what word-by-word fetches book.
#[test]
fn repeated_runs_of_five_to_eight_lines_book_like_word_by_word() {
    for cfg in fill_rules(IcacheConfig {
        rows: 4,
        ways: 4,
        block_words: 4,
        ..IcacheConfig::mipsx()
    }) {
        for start in 0..4 {
            for len in 17..=32 {
                let trip = (start, len);
                let evict = (64 + 16 * (len % 3), 1 + len % 5);
                let mut runs = vec![trip; 4];
                runs.push(evict);
                runs.extend([trip; 3]);
                let words: Vec<u32> = runs.iter().flat_map(|&(s, l)| s..s + l).collect();
                let reference = word_by_word(cfg, &words);
                let mut by_runs = Icache::new(cfg);
                assert_eq!(
                    by_runs.simulate_runs(&runs),
                    reference.stats,
                    "{cfg:?} {runs:?}"
                );
                assert_eq!(by_runs.snapshot_state(), reference, "{cfg:?} {runs:?}");

                let mut lines = Hierarchy::new(cfg, EcacheConfig::mipsx(), 5);
                let mut walked = lines.clone();
                let mut memo = HitMemo::default();
                for (visit, &run) in runs.iter().enumerate() {
                    let got = visit_by_lines(&mut lines, run, &[], &mut memo);
                    let want = visit_word_by_word(&mut walked, run, &[]);
                    assert_eq!(got, want, "{cfg:?} {runs:?}: visit {visit}");
                    assert_eq!(
                        lines.state(),
                        walked.state(),
                        "{cfg:?} {runs:?}: visit {visit}"
                    );
                }
            }
        }
    }
}

/// A run whose last line misses on its final word, in a 1-row FIFO cache
/// whose victim way is that line's own: the fetch-back partner's fill
/// brings in the next line over it. The run's memo must not replay it
/// once the next line has filled the words the run fetches — a memo that
/// took the line's tag from its block after the partner fill would hold
/// the evicting line's tag and replay hits on words no longer resident.
#[test]
fn a_memo_never_replays_a_line_its_own_partner_fill_evicted() {
    for ways in 2..=3 {
        let cfg = IcacheConfig {
            rows: 1,
            ways,
            block_words: 4,
            fetch_words: 2,
            replacement: Replacement::Fifo,
            ..IcacheConfig::mipsx()
        };
        let mut lines = Hierarchy::new(cfg, EcacheConfig::mipsx(), 5);
        let mut walked = lines.clone();
        let mut memo = HitMemo::default();
        // Line 0 takes way 0 with words 1 and 2 valid, the other lines the
        // other ways, so FIFO evicts way 0 next. Then the run misses on
        // word 3, and its partner, word 4, takes way 0 for line 1; the walk
        // over words 5 to 7 validates the rest of line 1. The run comes
        // back to find line 0 gone.
        let mut visits = vec![(1, 1)];
        visits.extend((1..ways).map(|line| (4 * (line + 1), 1)));
        visits.extend([(1, 3), (5, 3), (1, 3)]);
        for (visit, &run) in visits.iter().enumerate() {
            let memo = match run {
                (1, 3) => &mut memo,
                _ => &mut HitMemo::default(),
            };
            let got = visit_by_lines(&mut lines, run, &[], memo);
            let want = visit_word_by_word(&mut walked, run, &[]);
            assert_eq!(got, want, "{ways} ways: visit {visit} {run:?}");
            assert_eq!(lines.state(), walked.state(), "{ways} ways: visit {visit}");
        }
    }
}

/// A loop whose own trip evicts its earlier line in a 1-way cache: every
/// repeated trip misses, so the memo path must fall back to the walk at
/// each trip's first word. In a 2-way LRU cache, a second loop records a
/// memo, loses its line to other runs and comes back in the other way: its
/// repeated trip must walk, not replay the memo's stale way. Both entry
/// points book what word-by-word fetches book, LRU stamps included.
#[test]
fn repeated_trips_that_evict_themselves_book_like_word_by_word() {
    let one_way = IcacheConfig {
        rows: 1,
        ways: 1,
        block_words: 4,
        fetch_words: 1,
        ..IcacheConfig::mipsx()
    };
    // (0, 6) spans lines 0 and 1, which share the one way.
    let self_evicting = vec![(0, 6); 4];
    let two_way = IcacheConfig {
        ways: 2,
        replacement: Replacement::Lru,
        ..one_way
    };
    // (0, 3) fills way 0 and records its memo; (4, 1) takes way 1 and
    // (8, 1) evicts way 0; (0, 3) comes back in way 1.
    let mut moved = vec![(0, 3); 3];
    moved.extend([(4, 1), (8, 1), (0, 3), (0, 3), (0, 3)]);
    for (cfg, runs, misses) in [
        (one_way, self_evicting, 24),
        (two_way, moved, 3 + 1 + 1 + 3),
    ] {
        let words: Vec<u32> = runs.iter().flat_map(|&(s, l)| s..s + l).collect();
        let reference = word_by_word(cfg, &words);
        assert_eq!(reference.stats.misses, misses, "{runs:?}");
        let mut by_runs = Icache::new(cfg);
        assert_eq!(by_runs.simulate_runs(&runs), reference.stats);
        assert_eq!(by_runs.snapshot_state(), reference, "{runs:?}");
        let mut by_words = Icache::new(cfg);
        assert_eq!(
            by_words.simulate_trace(words.iter().copied()),
            reference.stats
        );
        assert_eq!(by_words.snapshot_state(), reference, "{runs:?}");
    }
}

/// `cfg` under each miss-fill rule: 1-word and 2-word fetch-back, and the
/// whole-block fill.
fn fill_rules(cfg: IcacheConfig) -> [IcacheConfig; 3] {
    let rule = |fetch_words, whole_block_fill| IcacheConfig {
        fetch_words,
        whole_block_fill,
        ..cfg
    };
    [rule(1, false), rule(2, false), rule(2, true)]
}

/// A checkpoint holding `blocks` (`(tag, valid bits, stamp)` per way, row
/// by row), the FIFO pointers `fifo` and the miss history `seen`, with a
/// clock past every stamp.
fn cache_state(
    blocks: Vec<(Option<u32>, u64, u64)>,
    fifo: Vec<u32>,
    seen: Vec<u32>,
) -> IcacheState {
    IcacheState {
        blocks,
        fifo,
        clock: 100,
        rng: 0x2545_F491_4F6C_DD1D,
        seen_blocks: seen,
        stats: CacheStats::new(),
    }
}

/// Book the run `(start, len)` from `state` through `simulate_runs` and
/// word by word, and demand the same final state, statistics included.
/// Returns that state.
fn run_books_like_word_by_word(
    cfg: IcacheConfig,
    state: &IcacheState,
    (start, len): (u32, u32),
) -> IcacheState {
    let mut kernel = Icache::new(cfg);
    kernel.restore_state(state).unwrap();
    let oracle = kernel.clone();
    let _ = kernel.simulate_runs(&[(start, len)]);
    let words: Vec<u32> = (0..len).map(|k| start.wrapping_add(k)).collect();
    let want = book_word_by_word(oracle, &words);
    assert_eq!(
        kernel.snapshot_state(),
        want,
        "{cfg:?}: run ({start}, {len}) from {state:?}"
    );
    want
}

/// The line kernel against word-by-word fetches on one 8-word line: every
/// valid mask, every window of the line (start word and length), each
/// miss-fill rule, with the line present (in the second way of its row)
/// or absent (its row full, so it evicts; cold or a conflict by the
/// history). The next line, which a 2-word miss on the last word fills,
/// is present with another mask or absent from a full row.
#[test]
fn line_kernel_books_every_mask_and_window_like_word_by_word() {
    let base = IcacheConfig {
        rows: 2,
        ways: 2,
        block_words: 8,
        ..IcacheConfig::mipsx()
    };
    // The booked line is block 4 (row 0, tag 2): words 32..40. The next
    // line is block 5 (row 1, tag 2).
    for cfg in fill_rules(base) {
        for mask in 0u64..256 {
            let seen = |mut blocks: Vec<u32>| {
                if mask & 1 == 0 {
                    blocks.push(4);
                }
                blocks.sort();
                blocks
            };
            let present = cache_state(
                vec![
                    (Some(7), 0xFF, 3),
                    (Some(2), mask, 5),
                    (Some(2), mask.rotate_left(3) & 0xFF, 4),
                    (None, 0, 0),
                ],
                vec![0, 0],
                seen(vec![]),
            );
            let absent = cache_state(
                vec![
                    (Some(7), mask, 3),
                    (Some(9), !mask & 0xFF, 5),
                    (Some(1), mask, 2),
                    (Some(3), 0, 6),
                ],
                vec![1, (mask % 2) as u32],
                seen(vec![14, 18]),
            );
            for start in 0..8 {
                for len in 1..=8 - start {
                    for state in [&present, &absent] {
                        run_books_like_word_by_word(cfg, state, (32 + start, len));
                    }
                }
            }
        }
    }
}

/// The top word of a 64-word line, where the window mask is all ones, a
/// run of invalid words carries out of the mask's top bit, and a 2-word
/// miss on word 63 fills the next line: masks valid below or above each
/// word, alternating and pseudo-random masks, every window that ends at
/// word 63, each miss-fill rule, the line present or absent.
#[test]
fn line_kernel_books_the_top_word_of_a_64_word_line() {
    let base = IcacheConfig {
        rows: 2,
        ways: 2,
        block_words: 64,
        ..IcacheConfig::mipsx()
    };
    let mut masks = vec![0, u64::MAX, 0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA];
    for k in 0..64 {
        masks.push(!(u64::MAX << k));
        masks.push(u64::MAX << k);
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        masks.push(x);
    }
    // The booked line is block 2 (row 0, tag 1): words 128..192. The next
    // line is block 3 (row 1, tag 1).
    for cfg in fill_rules(base) {
        for &mask in &masks {
            let present = cache_state(
                vec![
                    (Some(1), mask, 5),
                    (None, 0, 0),
                    (Some(1), mask.rotate_left(1), 4),
                    (Some(6), mask, 2),
                ],
                vec![0, 0],
                vec![2],
            );
            let absent = cache_state(
                vec![
                    (Some(4), mask, 3),
                    (Some(8), !mask, 5),
                    (None, 0, 0),
                    (Some(6), 1, 2),
                ],
                vec![0, 0],
                vec![2, 8, 13, 16],
            );
            for start in 0..64 {
                for state in [&present, &absent] {
                    run_books_like_word_by_word(cfg, state, (128 + start, 64 - start));
                }
            }
        }
    }
}

/// In a 1-row cache the next line shares the booked line's row, so a
/// 2-word miss on the line's last word fills a partner that can evict the
/// line just booked: its stamp, valid bits and the epoch must be the line
/// kernel's before that fill, under every replacement policy and row
/// width, for every mask and every window that ends on the last word.
#[test]
fn cross_line_partner_may_evict_the_line_just_booked() {
    let mut evicted = 0;
    for ways in [1, 2] {
        for replacement in [Replacement::Fifo, Replacement::Lru, Replacement::Random] {
            let cfg = IcacheConfig {
                rows: 1,
                ways,
                block_words: 8,
                fetch_words: 2,
                replacement,
                ..IcacheConfig::mipsx()
            };
            for mask in 0u64..256 {
                // The booked line is block 2 (words 16..24), in the row's
                // last way; any other way holds block 5.
                let mut blocks = vec![(Some(5), 0xFF, 1); ways as usize - 1];
                blocks.push((Some(2), mask, 3));
                let state = cache_state(blocks, vec![0], vec![2, 5]);
                for start in 0..8 {
                    let after = run_books_like_word_by_word(cfg, &state, (16 + start, 8 - start));
                    evicted += usize::from(after.blocks.iter().all(|b| b.0 != Some(2)));
                }
            }
        }
    }
    assert!(evicted > 0, "no partner evicted its line");
}
