//! Property tests for the registry's headline guarantee: snapshot merge
//! is order-independent, so per-thread (or per-process) telemetry
//! combines into identical totals regardless of who merged first — the
//! invariant the serial-vs-threaded sweep determinism suite rests on.

use mipsx_telemetry::{Snapshot, Telemetry};
use proptest::collection::vec;
use proptest::prelude::*;

/// Build a snapshot from a compact op list: every op is (kind, key, value)
/// with a small key alphabet so snapshots overlap heavily.
fn snapshot_from(ops: &[(u8, u8, u64)]) -> Snapshot {
    let t = Telemetry::enabled();
    for &(kind, key, value) in ops {
        let name = format!("m{}", key % 5);
        match kind % 6 {
            0 => t.count(&name, value),
            1 => t.observe(&name, value),
            2 => t.timing_count(&name, value),
            3 => t.timing_observe(&name, value),
            4 => t.gauge_max(&name, value),
            _ => t.record_span_ns(&name, value),
        }
    }
    t.snapshot()
}

fn merged<'a>(parts: impl Iterator<Item = &'a Snapshot>) -> Snapshot {
    let mut acc = Snapshot::default();
    for p in parts {
        acc.merge(p);
    }
    acc
}

proptest! {
    /// Merging the same snapshots in any rotation/reversal yields
    /// byte-identical JSON (hence identical totals and key order).
    #[test]
    fn merge_is_permutation_invariant(
        op_lists in vec(vec((0u8..6, 0u8..5, 0u64..1_000_000), 0..12), 1..5),
        rotate in 0usize..5,
    ) {
        let parts: Vec<Snapshot> = op_lists.iter().map(|ops| snapshot_from(ops)).collect();
        let reference = merged(parts.iter());
        let k = rotate % parts.len();
        let rotated = merged(parts[k..].iter().chain(parts[..k].iter()));
        prop_assert_eq!(&rotated, &reference);
        let reversed = merged(parts.iter().rev());
        prop_assert_eq!(&reversed, &reference);
        prop_assert_eq!(rotated.to_json(), reference.to_json());
    }

    /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_is_associative(
        a in vec((0u8..6, 0u8..5, 0u64..1_000_000), 0..12),
        b in vec((0u8..6, 0u8..5, 0u64..1_000_000), 0..12),
        c in vec((0u8..6, 0u8..5, 0u64..1_000_000), 0..12),
    ) {
        let (a, b, c) = (snapshot_from(&a), snapshot_from(&b), snapshot_from(&c));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Recording everything into one registry equals recording shards
    /// into separate registries and merging — losslessness of the split.
    #[test]
    fn sharded_recording_equals_single_registry(
        ops in vec((0u8..6, 0u8..5, 0u64..1_000_000), 0..40),
        shards in 1usize..5,
    ) {
        let whole = snapshot_from(&ops);
        let parts: Vec<Snapshot> = (0..shards)
            .map(|s| {
                let shard: Vec<_> = ops
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % shards == s)
                    .map(|(_, op)| *op)
                    .collect();
                snapshot_from(&shard)
            })
            .collect();
        prop_assert_eq!(merged(parts.iter()), whole);
    }
}
