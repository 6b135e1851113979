//! Cache statistics.

use std::fmt;

/// Why an access missed (the classic 3-C taxonomy, adapted: the sub-block
/// placement scheme adds its own category).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissCause {
    /// First-ever reference to the block.
    Cold,
    /// The block was resident earlier and has been displaced (capacity and
    /// conflict misses are not distinguished — with 4 rows of 8 ways they
    /// are the same phenomenon at this scale).
    Conflict,
    /// The tag is resident but the word's sub-block valid bit is clear —
    /// the miss the 512 per-word valid bits trade against whole-block
    /// fills.
    SubBlockInvalid,
}

impl fmt::Display for MissCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MissCause::Cold => "cold",
            MissCause::Conflict => "conflict",
            MissCause::SubBlockInvalid => "sub-block-invalid",
        })
    }
}

/// Declares a struct of `u64` counters from one list of its fields and
/// generates everything that walks every field: `FIELDS` (the names),
/// `to_fields`/`from_fields` (the values as an array, in declaration
/// order) and a field-wise `merge`. [`CacheStats`], `mipsx-core`'s
/// `RunStats` and `mipsx-explore`'s `JobResult` are declared through it,
/// so a counter added to a list reaches every record, report and snapshot
/// section built from these functions.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$doc:meta])* $field:ident,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        $vis struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// Counter names, in declaration order.
            pub const FIELDS: [&'static str; [$(stringify!($field)),*].len()] =
                [$(stringify!($field)),*];

            /// Every counter, in declaration order.
            pub fn to_fields(self) -> [u64; Self::FIELDS.len()] {
                [$(self.$field),*]
            }

            /// The inverse of `to_fields`.
            pub fn from_fields(fields: [u64; Self::FIELDS.len()]) -> Self {
                let [$($field),*] = fields;
                Self { $($field),* }
            }

            /// Add another set of counters into this one, field by field.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

crate::counters! {
    /// Hit/miss/stall accounting shared by the instruction and external caches.
    ///
    /// The paper's figure of merit is the *average cost of an instruction fetch*,
    /// *"a function of the cache hit rate, the miss penalty, and the cache access
    /// time"* — with the key finding that *"the performance of the cache was more
    /// sensitive to the miss service time than the miss ratio."*
    /// [`CacheStats::avg_access_cycles`] captures exactly that product.
    ///
    /// The field order is the snapshot's cache-statistics order.
    pub struct CacheStats {
        /// Total accesses presented to the cache.
        accesses,
        /// Accesses that hit.
        hits,
        /// Accesses that missed.
        misses,
        /// Processor stall cycles spent servicing misses.
        stall_cycles,
        /// Words transferred in from the next level (fetch-back traffic).
        words_filled,
        /// Misses to never-before-seen blocks.
        cold_misses,
        /// Misses to blocks that were resident once and got displaced.
        conflict_misses,
        /// Misses where the tag hit but the word's sub-block valid bit was
        /// clear.
        sub_block_misses,
    }
}

impl CacheStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio in `[0, 1]`; zero when no accesses happened.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Average cycles per access: 1 (the access itself) plus amortized
    /// stall cycles. The paper reports 1.24 cycles per instruction fetch for
    /// the final design on its large benchmarks.
    pub fn avg_access_cycles(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 + self.stall_cycles as f64 / self.accesses as f64
        }
    }

    /// Record a hit.
    #[inline]
    pub fn record_hit(&mut self) {
        self.accesses += 1;
        self.hits += 1;
    }

    /// Record a miss costing `stall` processor cycles and filling
    /// `words` words.
    #[inline]
    pub fn record_miss(&mut self, stall: u64, words: u64) {
        self.accesses += 1;
        self.misses += 1;
        self.stall_cycles += stall;
        self.words_filled += words;
    }

    /// Record a miss with no service cost yet (the cost arrives later via
    /// [`CacheStats::add_miss_cost`] once the fill completes).
    #[inline]
    pub fn record_miss_pending(&mut self) {
        self.accesses += 1;
        self.misses += 1;
    }

    /// Attribute service cost to a previously recorded miss.
    #[inline]
    pub fn add_miss_cost(&mut self, stall: u64, words: u64) {
        self.stall_cycles += stall;
        self.words_filled += words;
    }

    /// Classify the most recently recorded miss.
    #[inline]
    pub fn record_miss_cause(&mut self, cause: MissCause) {
        match cause {
            MissCause::Cold => self.cold_misses += 1,
            MissCause::Conflict => self.conflict_misses += 1,
            MissCause::SubBlockInvalid => self.sub_block_misses += 1,
        }
    }

    /// Misses that have been classified (equals [`CacheStats::misses`] when
    /// the owning cache classifies every miss).
    pub fn classified_misses(&self) -> u64 {
        self.cold_misses + self.conflict_misses + self.sub_block_misses
    }

    /// Reset to zero.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} misses={} ({:.2}%) stalls={} avg={:.3} cyc/access",
            self.accesses,
            self.misses,
            self.miss_ratio() * 100.0,
            self.stall_cycles,
            self.avg_access_cycles()
        )?;
        if self.classified_misses() > 0 {
            write!(
                f,
                " [cold={} conflict={} sub-block={}]",
                self.cold_misses, self.conflict_misses, self.sub_block_misses
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_with_no_accesses() {
        let s = CacheStats::new();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.avg_access_cycles(), 0.0);
    }

    #[test]
    fn accounting() {
        let mut s = CacheStats::new();
        s.record_hit();
        s.record_hit();
        s.record_miss(2, 2);
        s.record_miss(4, 2);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.stall_cycles, 6);
        assert_eq!(s.words_filled, 4);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
        assert!((s.avg_access_cycles() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds() {
        let mut a = CacheStats::new();
        a.record_hit();
        let mut b = CacheStats::new();
        b.record_miss(3, 1);
        a.merge(&b);
        assert_eq!(a.accesses, 2);
        assert_eq!(a.stall_cycles, 3);
    }

    #[test]
    fn display_mentions_miss_percent() {
        let mut s = CacheStats::new();
        s.record_miss(2, 1);
        assert!(s.to_string().contains("100.00%"));
    }

    #[test]
    fn miss_causes_accumulate_and_merge() {
        let mut a = CacheStats::new();
        a.record_miss(2, 1);
        a.record_miss_cause(MissCause::Cold);
        a.record_miss(2, 1);
        a.record_miss_cause(MissCause::SubBlockInvalid);
        let mut b = CacheStats::new();
        b.record_miss(2, 1);
        b.record_miss_cause(MissCause::Conflict);
        a.merge(&b);
        assert_eq!(a.cold_misses, 1);
        assert_eq!(a.conflict_misses, 1);
        assert_eq!(a.sub_block_misses, 1);
        assert_eq!(a.classified_misses(), a.misses);
        let text = a.to_string();
        assert!(text.contains("cold=1"), "{text}");
        assert!(text.contains("sub-block=1"), "{text}");
    }
}
