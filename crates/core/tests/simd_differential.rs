//! Differential suite for the SIMD scanning layer: every dispatch tier
//! (`Scalar`, `Sse2`, `Avx2`) must produce *identical* observable
//! results — raw cell layouts for the history-independent table,
//! find/elements/len answers for every table, and migrated contents
//! after a resize — at light, medium, and heavy loads, including after
//! a delete phase. The Scalar tier runs the original reference loops,
//! so these tests pin the wide paths to the reference semantics.
//!
//! Tier flips go through `simd::set_tier`, which is process-global
//! state; a static mutex serializes the tests in this binary. (The
//! `PHC_SIMD=scalar` environment knob resolves to the same
//! `SimdTier::Scalar` code path exercised here; the CI matrix
//! additionally runs the whole suite under each `PHC_SIMD` value.)

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use phc_core::simd::{set_tier, SimdTier};
use phc_core::{
    ConcurrentDelete, DetHashTable, FcHashTable, HashEntry, KvPair, NdHashTable, PhaseHashTable,
    ResizableTable, RobinHoodHashTable, U64Key,
};
use phc_parutil::hash64;
use rayon::prelude::*;

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// All tiers worth comparing on this machine. `set_tier` clamps
/// unavailable tiers downward, so requesting Avx2 on an SSE2-only host
/// still runs a valid (downgraded) configuration.
const TIERS: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2];

fn with_tier<R>(t: SimdTier, f: impl FnOnce() -> R) -> R {
    set_tier(Some(t));
    let r = f();
    set_tier(None);
    r
}

/// Cell counts for a 2^12 table at loads 1/3, 1/2, and 3/4.
const LOG2: u32 = 12;
const LOADS: [usize; 3] = [4096 / 3, 4096 / 2, 4096 * 3 / 4];

/// Distinct-ish pseudo-random keys confined to the low 40 bits, so
/// probes built above bit 48 are guaranteed absent.
fn keys_u64(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| 1 + (hash64(i ^ seed.rotate_left(17)) & ((1 << 40) - 1)))
        .collect()
}

/// Everything observable about a table run, for cross-tier equality.
#[derive(PartialEq, Eq, Debug)]
struct Observed {
    snapshot: Vec<u64>,
    finds: Vec<Option<u64>>,
    elements: Vec<u64>,
    len: usize,
    snapshot_after_delete: Vec<u64>,
    elements_after_delete: Vec<u64>,
    len_after_delete: usize,
}

fn sorted_reprs<E: HashEntry>(v: Vec<E>) -> Vec<u64> {
    let mut r: Vec<u64> = v.into_iter().map(E::to_repr).collect();
    r.sort_unstable();
    r
}

/// Build, probe, and partially drain a deterministic table. Inserts go
/// through both the batched (prefetching) and plain parallel paths so
/// the speculative wide-insert scan is exercised under contention;
/// history independence makes the resulting layout a hard equality
/// target across tiers.
fn run_det<E: HashEntry>(entries: &[E], probes: &[E], dels: &[E]) -> Observed {
    let t = DetHashTable::<E>::new_pow2(LOG2);
    let (batched, rest) = entries.split_at(entries.len() / 2);
    t.insert_batch(batched);
    rest.par_iter().for_each(|&e| t.insert(e));

    let snapshot = t.snapshot();
    let finds = t
        .find_batch(probes)
        .into_iter()
        .map(|o| o.map(E::to_repr))
        .collect();
    let elements = sorted_reprs(t.elements());
    let len = t.len();

    let (batched, rest) = dels.split_at(dels.len() / 2);
    t.delete_batch(batched);
    rest.par_iter().for_each(|&e| t.delete(e));

    Observed {
        snapshot,
        finds,
        elements,
        len,
        snapshot_after_delete: t.snapshot(),
        elements_after_delete: sorted_reprs(t.elements()),
        len_after_delete: t.len(),
    }
}

/// Sequential driver for the non-deterministic table: with a fixed
/// operation order, first-fit placement and shift-back deletion are
/// deterministic, so even the raw layout must agree across tiers.
fn run_nd<E: HashEntry>(entries: &[E], probes: &[E], dels: &[E]) -> Observed {
    let t = NdHashTable::<E>::new_pow2(LOG2);
    for &e in entries {
        t.insert(e);
    }
    let snapshot = t.snapshot();
    let finds = t
        .find_batch(probes)
        .into_iter()
        .map(|o| o.map(E::to_repr))
        .collect();
    let elements = sorted_reprs(t.elements());
    let len = t.len();
    for &e in dels {
        t.delete(e);
    }
    Observed {
        snapshot,
        finds,
        elements,
        len,
        snapshot_after_delete: t.snapshot(),
        elements_after_delete: sorted_reprs(t.elements()),
        len_after_delete: t.len(),
    }
}

/// Robin Hood twin of [`run_det`]: same mixed batched/plain insert and
/// delete traffic, same observables. The displacement-ordered layout is
/// history-independent by the same argument as the det table, so the
/// raw snapshot is again a hard cross-tier equality target — and here
/// the wide path is the *native* probe loop, not a retrofit.
fn run_rh<E: HashEntry>(entries: &[E], probes: &[E], dels: &[E]) -> Observed {
    let mut t = RobinHoodHashTable::<E>::new_pow2(LOG2);
    let (batched, rest) = entries.split_at(entries.len() / 2);
    t.insert_batch(batched);
    rest.par_iter().for_each(|&e| t.insert(e));

    let snapshot = t.snapshot();
    let finds = t
        .find_batch(probes)
        .into_iter()
        .map(|o| o.map(E::to_repr))
        .collect();
    let elements = sorted_reprs(t.elements());
    let len = t.len();

    let (batched, rest) = dels.split_at(dels.len() / 2);
    {
        // Route half the deletes through the phase handle's batched
        // path so the handle surface is exercised differentially too.
        let del = t.begin_delete();
        del.delete_batch(batched);
        rest.par_iter().for_each(|&e| del.delete(e));
    }

    Observed {
        snapshot,
        finds,
        elements,
        len,
        snapshot_after_delete: t.snapshot(),
        elements_after_delete: sorted_reprs(t.elements()),
        len_after_delete: t.len(),
    }
}

/// Phase-separated driver for the fully-concurrent table: batched and
/// per-op inserts, a batched lookup, then batched and per-op deletes,
/// with no op-kind overlap. Quiescent fc layouts are canonical, so the
/// raw snapshot is a hard cross-tier target here too — a per-tier
/// witness for fc's dispatch that does not depend on overlap repair.
fn run_fc<E: HashEntry>(entries: &[E], probes: &[E], dels: &[E]) -> Observed {
    let t = FcHashTable::<E>::new_pow2(LOG2);
    let (batched, rest) = entries.split_at(entries.len() / 2);
    t.insert_batch(batched);
    rest.par_iter().for_each(|&e| t.insert(e));

    let snapshot = t.snapshot();
    let finds = t
        .find_batch(probes)
        .into_iter()
        .map(|o| o.map(E::to_repr))
        .collect();
    let elements = sorted_reprs(t.elements());
    let len = t.len();

    let (batched, rest) = dels.split_at(dels.len() / 2);
    t.delete_batch(batched);
    rest.par_iter().for_each(|&e| t.delete(e));

    Observed {
        snapshot,
        finds,
        elements,
        len,
        snapshot_after_delete: t.snapshot(),
        elements_after_delete: sorted_reprs(t.elements()),
        len_after_delete: t.len(),
    }
}

fn assert_tiers_agree<E: HashEntry>(
    label: &str,
    run: impl Fn(&[E], &[E], &[E]) -> Observed,
    entries: &[E],
    probes: &[E],
    dels: &[E],
) {
    let reference = with_tier(SimdTier::Scalar, || run(entries, probes, dels));
    for tier in TIERS {
        let got = with_tier(tier, || run(entries, probes, dels));
        assert_eq!(
            got,
            reference,
            "{label}: {:?} diverged from Scalar (n={})",
            tier,
            entries.len()
        );
    }
}

#[test]
fn det_u64_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let keys = keys_u64(n, 0xD17);
        let entries: Vec<U64Key> = keys.iter().map(|&k| U64Key::new(k)).collect();
        // Probe every inserted key plus a block of guaranteed-absent
        // keys (above bit 48, outside the generator's range).
        let mut probes = entries.clone();
        probes.extend((0..256u64).map(|i| U64Key::new((1 << 50) + i)));
        let dels: Vec<U64Key> = entries.iter().copied().step_by(3).collect();
        assert_tiers_agree("det/u64", run_det::<U64Key>, &entries, &probes, &dels);
    }
}

#[test]
fn det_kv_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let entries: Vec<KvPair> = (0..n as u64)
            .map(|i| KvPair::new(1 + (hash64(i ^ 0xBEEF) as u32 >> 1), i as u32))
            .collect();
        let mut probes = entries.clone();
        probes.extend((0..256u32).map(|i| KvPair::new(u32::MAX - i, 0)));
        let dels: Vec<KvPair> = entries.iter().copied().step_by(3).collect();
        assert_tiers_agree("det/kv", run_det::<KvPair>, &entries, &probes, &dels);
    }
}

#[test]
fn nd_u64_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let keys = keys_u64(n, 0x5EED);
        let entries: Vec<U64Key> = keys.iter().map(|&k| U64Key::new(k)).collect();
        let mut probes = entries.clone();
        probes.extend((0..256u64).map(|i| U64Key::new((1 << 50) + i)));
        let dels: Vec<U64Key> = entries.iter().copied().step_by(2).collect();
        assert_tiers_agree("nd/u64", run_nd::<U64Key>, &entries, &probes, &dels);
    }
}

#[test]
fn nd_kv_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let entries: Vec<KvPair> = (0..n as u64)
            .map(|i| KvPair::new(1 + (hash64(i ^ 0xF00D) as u32 >> 1), i as u32))
            .collect();
        let mut probes = entries.clone();
        probes.extend((0..256u32).map(|i| KvPair::new(u32::MAX - i, 0)));
        let dels: Vec<KvPair> = entries.iter().copied().step_by(2).collect();
        assert_tiers_agree("nd/kv", run_nd::<KvPair>, &entries, &probes, &dels);
    }
}

#[test]
fn rh_u64_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let keys = keys_u64(n, 0x40B1);
        let entries: Vec<U64Key> = keys.iter().map(|&k| U64Key::new(k)).collect();
        let mut probes = entries.clone();
        probes.extend((0..256u64).map(|i| U64Key::new((1 << 50) + i)));
        let dels: Vec<U64Key> = entries.iter().copied().step_by(3).collect();
        assert_tiers_agree("rh/u64", run_rh::<U64Key>, &entries, &probes, &dels);
    }
}

#[test]
fn rh_kv_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let entries: Vec<KvPair> = (0..n as u64)
            .map(|i| KvPair::new(1 + (hash64(i ^ 0xCAFE) as u32 >> 1), i as u32))
            .collect();
        let mut probes = entries.clone();
        probes.extend((0..256u32).map(|i| KvPair::new(u32::MAX - i, 0)));
        let dels: Vec<KvPair> = entries.iter().copied().step_by(3).collect();
        assert_tiers_agree("rh/kv", run_rh::<KvPair>, &entries, &probes, &dels);
    }
}

#[test]
fn fc_u64_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let keys = keys_u64(n, 0xFC5);
        let entries: Vec<U64Key> = keys.iter().map(|&k| U64Key::new(k)).collect();
        let mut probes = entries.clone();
        probes.extend((0..256u64).map(|i| U64Key::new((1 << 50) + i)));
        let dels: Vec<U64Key> = entries.iter().copied().step_by(3).collect();
        assert_tiers_agree("fc/u64", run_fc::<U64Key>, &entries, &probes, &dels);
    }
}

#[test]
fn fc_kv_identical_across_tiers_at_all_loads() {
    let _g = lock();
    for &n in &LOADS {
        let entries: Vec<KvPair> = (0..n as u64)
            .map(|i| KvPair::new(1 + (hash64(i ^ 0xFCFC) as u32 >> 1), i as u32))
            .collect();
        let mut probes = entries.clone();
        probes.extend((0..256u32).map(|i| KvPair::new(u32::MAX - i, 0)));
        let dels: Vec<KvPair> = entries.iter().copied().step_by(3).collect();
        assert_tiers_agree("fc/kv", run_fc::<KvPair>, &entries, &probes, &dels);
    }
}

/// The Robin Hood layout must agree with the det table on *membership*
/// (same element multiset under combining), tier by tier — a
/// cross-table differential on top of the cross-tier one.
#[test]
fn rh_membership_matches_det_across_tiers() {
    let _g = lock();
    let n = 4096 * 3 / 4;
    let keys = keys_u64(n, 0x0DD5);
    let entries: Vec<U64Key> = keys.iter().map(|&k| U64Key::new(k)).collect();
    for tier in TIERS {
        let (rh_elems, det_elems) = with_tier(tier, || {
            let rh = RobinHoodHashTable::<U64Key>::new_pow2(LOG2);
            let det = DetHashTable::<U64Key>::new_pow2(LOG2);
            entries.par_iter().for_each(|&e| {
                rh.insert(e);
                det.insert(e);
            });
            (sorted_reprs(rh.elements()), sorted_reprs(det.elements()))
        });
        assert_eq!(rh_elems, det_elems, "rh vs det membership at {tier:?}");
    }
}

/// Cooperative resizing walks the old cells with the nonempty-mask
/// kernel (`for_each_in_range`); migration must move exactly the same
/// element set no matter which tier scanned the cells.
#[test]
fn migration_identical_across_tiers() {
    let _g = lock();
    // Start tiny so parallel inserts force several growth rounds.
    let keys = keys_u64(20_000, 0x617);
    let run = || {
        let mut t = ResizableTable::<U64Key>::new_pow2(8);
        t.insert_phase(|t| {
            keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
        });
        let elements = sorted_reprs(t.elements());
        (elements, t.len(), t.capacity())
    };
    let reference = with_tier(SimdTier::Scalar, run);
    let expect: BTreeSet<u64> = keys.iter().copied().collect();
    assert_eq!(reference.0.len(), expect.len());
    for tier in TIERS {
        let got = with_tier(tier, run);
        assert_eq!(got, reference, "migration: {tier:?} diverged from Scalar");
    }
}

/// Same cooperative-resize differential, but with the Robin Hood core
/// under the growable wrapper: migration crosses epochs as raw
/// (untransformed) reprs, and each epoch re-mixes for its own width, so
/// the final element set must be tier- and history-independent.
#[test]
fn rh_migration_identical_across_tiers() {
    let _g = lock();
    let keys = keys_u64(20_000, 0x617B);
    let run = || {
        let mut t = ResizableTable::<U64Key, RobinHoodHashTable<U64Key>>::new_pow2(8);
        t.insert_phase(|t| {
            keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
        });
        let elements = sorted_reprs(t.elements());
        (elements, t.len(), t.capacity())
    };
    let reference = with_tier(SimdTier::Scalar, run);
    let expect: BTreeSet<u64> = keys.iter().copied().collect();
    assert_eq!(reference.0.len(), expect.len());
    for tier in TIERS {
        let got = with_tier(tier, run);
        assert_eq!(
            got, reference,
            "rh migration: {tier:?} diverged from Scalar"
        );
    }
}
