//! Content-addressed result keys.
//!
//! A job's key is a stable 64-bit FNV-1a hash of:
//!
//! - the **canonicalized configuration** ([`canonical_point`]): every
//!   simulated field of the [`SimPoint`], in a fixed order with fixed
//!   formatting, so the key is invariant under how the point was built
//!   (axis application order, spec-file field order, defaults filled in
//!   explicitly or implicitly) but distinct for any semantically different
//!   configuration;
//! - the **workload identity** and the **program-image digest** (the
//!   assembled words, or the address trace's maximal `(start, len)` runs,
//!   see [`PreparedImage::digest`]), so a change to the reorganizer,
//!   assembler or generators invalidates exactly the cells it affects;
//! - the fault-plan spec and the cycle budget;
//! - [`ENGINE_EPOCH`], bumped manually whenever simulator *semantics*
//!   change in a way the image digest cannot see.
//!
//! The execution backend (`engine=`) is part of the canonical form even
//! though every backend books identical `RunStats`: the block engine's
//! ideal-config fast path skips the cache models entirely, so the
//! icache/ecache access counters in a cached row depend on which engine
//! produced it. Keying on the engine keeps each row attributable to the
//! engine that (first) computed it.
//!
//! [`SimPoint`]: crate::spec::SimPoint
//! [`PreparedImage::digest`]: crate::image::PreparedImage::digest

use std::fmt::Write as _;

use mipsx_core::{InterlockPolicy, SimConfig};
use mipsx_mem::Replacement;

use crate::spec::{label, SimPoint, COPROC_LABELS};

/// Bump when `mipsx-core`/`mipsx-mem` timing semantics change so that old
/// cached results, which the config/image key cannot distinguish, are
/// invalidated wholesale.
pub const ENGINE_EPOCH: u32 = 1;

// The one FNV-1a 64 implementation, shared with the snapshot checksum.
pub use mipsx_core::snapshot::{fnv1a, fnv1a_words};

/// The canonical, exhaustive text form of a configuration point. Two
/// points canonicalize identically **iff** they simulate identically
/// (every field of `SimConfig` and the branch scheme is written out, in a
/// fixed order; the clock is written as IEEE-754 bits so no float
/// formatting ambiguity exists).
pub fn canonical_point(p: &SimPoint) -> String {
    let mut s = canonical_cfg(&p.cfg);
    let _ = write!(
        s,
        ";scheme={}:{:?};engine={}",
        p.scheme.slots, p.scheme.squash, p.engine,
    );
    s
}

/// The canonical text form of just the machine configuration — the
/// [`canonical_point`] prefix without the branch scheme or execution
/// engine. Used to partition compiled block-engine templates, which
/// depend only on the `SimConfig` the machine will run under.
pub fn canonical_cfg(c: &SimConfig) -> String {
    let interlock = match c.interlock {
        InterlockPolicy::Trust => "trust",
        InterlockPolicy::Detect => "detect",
    };
    let repl = match c.icache.replacement {
        Replacement::Fifo => "fifo",
        Replacement::Lru => "lru",
        Replacement::Random => "random",
    };
    let coproc = label(&COPROC_LABELS, c.coproc_scheme);
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "cfg-v2;slots={};interlock={interlock};clock={:016x};vec={};mem={}",
        c.branch_delay_slots,
        c.clock_mhz.to_bits(),
        c.exception_vector,
        c.mem_latency,
    );
    let ic = &c.icache;
    let _ = write!(
        s,
        ";ic.rows={};ic.ways={};ic.block={};ic.fetch={};ic.penalty={};ic.repl={repl};ic.on={};ic.whole={}",
        ic.rows, ic.ways, ic.block_words, ic.fetch_words, ic.miss_penalty, ic.enabled, ic.whole_block_fill,
    );
    let ec = &c.ecache;
    let _ = write!(
        s,
        ";ec.size={};ec.block={};ec.late={};ec.on={}",
        ec.size_words, ec.block_words, ec.late_miss_overhead, ec.enabled,
    );
    let _ = write!(s, ";coproc={coproc}");
    s
}

/// The content-addressed key of one job.
pub fn job_key(
    point: &SimPoint,
    workload_id: &str,
    image_digest: u64,
    fault: Option<&str>,
    run_cycles: u64,
) -> u64 {
    let text = format!(
        "epoch={ENGINE_EPOCH};{};wl={workload_id};img={image_digest:016x};fault={};cycles={run_cycles}",
        canonical_point(point),
        fault.unwrap_or("-"),
    );
    fnv1a(text.as_bytes())
}

/// Fixed-width hex rendering of a key (store filenames, report rows).
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, SimPoint};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn canonical_is_field_order_independent() {
        // The same point built by applying axes in different orders
        // canonicalizes identically.
        let a1 = Axis::parse_flag("icache.rows=8").unwrap();
        let a2 = Axis::parse_flag("mem_latency=7").unwrap();
        let mut spec1 = crate::spec::SweepSpec::new(SimPoint::mipsx());
        spec1.grid = crate::spec::Grid::Axes(vec![a1.clone(), a2.clone()]);
        spec1.workloads = vec![crate::spec::Workload::Kernel("sum_to_n".into())];
        let mut spec2 = spec1.clone();
        spec2.grid = crate::spec::Grid::Axes(vec![a2, a1]);
        let p1 = spec1.expand().unwrap()[0].point;
        let p2 = spec2.expand().unwrap()[0].point;
        assert_eq!(canonical_point(&p1), canonical_point(&p2));
    }

    #[test]
    fn default_filling_is_invariant() {
        // Explicitly setting a field to its default yields the same
        // canonical form as leaving it alone.
        let implicit = SimPoint::mipsx();
        let mut spec = crate::spec::SweepSpec::new(SimPoint::mipsx());
        spec.grid = crate::spec::Grid::Axes(vec![Axis::parse_flag("icache.rows=4").unwrap()]);
        spec.workloads = vec![crate::spec::Workload::Kernel("sum_to_n".into())];
        let explicit = spec.expand().unwrap()[0].point;
        assert_eq!(canonical_point(&implicit), canonical_point(&explicit));
    }

    #[test]
    fn semantic_changes_move_the_key() {
        let base = SimPoint::mipsx();
        let base_key = job_key(&base, "kernel:sum_to_n", 1, None, 1000);
        for flag in [
            "icache.rows=8",
            "icache.ways=4",
            "icache.block_words=8",
            "icache.fetch_words=1",
            "icache.miss_penalty=3",
            "icache.whole_block_fill=true",
            "ecache.size_words=4096",
            "ecache.block_words=8",
            "ecache.late_miss=2",
            "mem_latency=9",
            "branch.slots=1",
            "branch.squash=none",
            "coproc.scheme=noncached",
            "engine=block",
        ] {
            let axis = Axis::parse_flag(flag).unwrap();
            let mut spec = crate::spec::SweepSpec::new(SimPoint::mipsx());
            spec.grid = crate::spec::Grid::Axes(vec![axis]);
            spec.workloads = vec![crate::spec::Workload::Kernel("sum_to_n".into())];
            let p = spec.expand().unwrap()[0].point;
            assert_ne!(
                job_key(&p, "kernel:sum_to_n", 1, None, 1000),
                base_key,
                "axis {flag} must change the key"
            );
        }
        // Workload, image, fault and budget are all part of the key too.
        assert_ne!(job_key(&base, "kernel:fib", 1, None, 1000), base_key);
        assert_ne!(job_key(&base, "kernel:sum_to_n", 2, None, 1000), base_key);
        assert_ne!(
            job_key(&base, "kernel:sum_to_n", 1, Some("5:nmi"), 1000),
            base_key
        );
        assert_ne!(job_key(&base, "kernel:sum_to_n", 1, None, 999), base_key);
    }
}
