//! Synthetic instruction-address traces for the trace-driven cache
//! studies.
//!
//! The MIPS-X cache work was trace-driven: *"The compiler/simulator system
//! generated instruction traces that we used to gather cache statistics."*
//! This generator produces address streams with program-shaped structure —
//! short loops iterated a few times, sequential gluing code, and occasional
//! far calls — whose single-word-fetch miss ratio on the 512-word cache
//! lands in the paper's ">20 %" regime for medium programs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trace-generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// RNG seed.
    pub seed: u64,
    /// Static code size in words (the program's instruction footprint).
    pub code_words: u32,
    /// Number of fetches to emit.
    pub length: usize,
    /// Mean loop body length in words.
    pub mean_loop_len: u32,
    /// Mean loop trip count (how often a body repeats before moving on —
    /// the knob that trades sequential-fresh fetches against in-loop hits).
    pub mean_trips: u32,
    /// Probability of a far call after each loop (jump to another code
    /// region and return).
    pub p_call: f64,
}

impl TraceConfig {
    /// A medium program (tens of KB of code): the regime where the paper's
    /// first cache simulations saw >20 % misses with single-word fetch.
    pub fn medium(seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            code_words: 12 * 1024,
            length: 200_000,
            mean_loop_len: 10,
            mean_trips: 5,
            p_call: 0.15,
        }
    }

    /// A large program (the 50–270 KB static-size class of the paper's
    /// final benchmarks): more code, more reuse inside loops.
    pub fn large(seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            code_words: 64 * 1024,
            length: 400_000,
            mean_loop_len: 11,
            mean_trips: 5,
            p_call: 0.14,
        }
    }
}

/// Generate an instruction-address trace as sequential runs: `(start,
/// len)` fetches `start, start + 1, …, start + len - 1`. There is one run
/// per loop trip or call body, split where it wraps past the end of the
/// code, and merged with the previous run when the two abut. No run is
/// empty, and no run starts where the one before it ends: the runs are
/// maximal, so they are a function of the address stream, and a digest of
/// the runs addresses the trace.
pub fn instruction_runs(cfg: TraceConfig) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut runs = Runs {
        runs: Vec::new(),
        left: cfg.length,
        code_words: cfg.code_words,
    };
    let mut pc: u32 = 0;
    while runs.left > 0 {
        // One loop: body of `len` words executed `trips` times.
        let len = rng.gen_range(2..=cfg.mean_loop_len * 2).max(2);
        let trips = rng.gen_range(1..=cfg.mean_trips * 2).max(1);
        for _ in 0..trips {
            if !runs.push(pc, len) {
                return runs.runs;
            }
        }
        pc = (pc + len) % cfg.code_words;
        // Occasionally call a routine somewhere else in the code.
        if rng.gen_bool(cfg.p_call) {
            let callee = rng.gen_range(0..cfg.code_words);
            let body = rng.gen_range(4..=cfg.mean_loop_len * 3);
            if !runs.push(callee, body) {
                return runs.runs;
            }
        }
    }
    runs.runs
}

/// Generate an instruction-address trace, one fetch per word: the
/// flattening of [`instruction_runs`].
pub fn instruction_trace(cfg: TraceConfig) -> Vec<u32> {
    let mut trace = Vec::with_capacity(cfg.length);
    for (start, len) in instruction_runs(cfg) {
        trace.extend(start..start + len);
    }
    trace
}

/// The runs of a trace being generated, and the fetches it still owes.
struct Runs {
    runs: Vec<(u32, u32)>,
    left: usize,
    code_words: u32,
}

impl Runs {
    /// Fetch `len` words from `start` (wrapping at the end of the code),
    /// cut short at the trace's length. Returns whether fetches are still
    /// owed.
    fn push(&mut self, start: u32, len: u32) -> bool {
        let mut len = len.min(u32::try_from(self.left).unwrap_or(u32::MAX));
        self.left -= len as usize;
        let mut at = start % self.code_words;
        while len > 0 {
            let piece = len.min(self.code_words - at);
            match self.runs.last_mut() {
                Some((s, l)) if *s + *l == at => *l += piece,
                _ => self.runs.push((at, piece)),
            }
            len -= piece;
            at = (at + piece) % self.code_words;
        }
        self.left > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_requested_length() {
        let t = instruction_trace(TraceConfig {
            length: 5000,
            ..TraceConfig::medium(1)
        });
        assert_eq!(t.len(), 5000);
    }

    #[test]
    fn addresses_stay_in_code() {
        let cfg = TraceConfig {
            length: 10_000,
            ..TraceConfig::medium(2)
        };
        for &a in &instruction_trace(cfg) {
            assert!(a < cfg.code_words);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = instruction_trace(TraceConfig::medium(3));
        let b = instruction_trace(TraceConfig::medium(3));
        assert_eq!(a, b);
        let c = instruction_trace(TraceConfig::medium(4));
        assert_ne!(a, c);
    }

    #[test]
    fn trace_streams_are_pinned_and_runs_are_maximal() {
        // FNV-1a over every fetch address of the paper's seeds
        // (`mipsx_bench::SEEDS`): the medium and large traces feed E2, E3
        // and E12 and key the sweep store, so the stream must not move.
        let pinned: [(u64, u64, u64); 5] = [
            (11, 0xd05b_31d7_1aa2_95b4, 0xafc6_925c_3418_8acc),
            (47, 0x7523_edf2_f919_cd1b, 0x4e81_d16a_75e7_f515),
            (101, 0x37a8_b0e9_3b0b_da00, 0x72fd_9016_18fa_a8ee),
            (233, 0x2a85_4b72_5939_7fc2, 0x2c28_beb3_9cf7_9cff),
            (509, 0x0c43_255d_927e_0f63, 0x80a7_8d19_2abd_0164),
        ];
        for (seed, medium, large) in pinned {
            for (cfg, digest) in [
                (TraceConfig::medium(seed), medium),
                (TraceConfig::large(seed), large),
            ] {
                let words = instruction_trace(cfg);
                assert_eq!(words.len(), cfg.length);
                assert_eq!(
                    mipsx_core::snapshot::fnv1a_words(words),
                    digest,
                    "trace stream moved for seed {seed}"
                );
                let runs = instruction_runs(cfg);
                assert!(runs.iter().all(|&(_, len)| len > 0), "empty run");
                assert!(
                    runs.windows(2).all(|w| w[0].0 + w[0].1 != w[1].0),
                    "abutting runs left unmerged"
                );
            }
        }
    }

    #[test]
    fn traces_have_locality() {
        // Repeated addresses must dominate: a loop-structured trace revisits
        // most fetches.
        let t = instruction_trace(TraceConfig {
            length: 20_000,
            ..TraceConfig::medium(5)
        });
        let unique: std::collections::HashSet<u32> = t.iter().copied().collect();
        assert!(unique.len() * 2 < t.len(), "trace should revisit addresses");
    }
}
