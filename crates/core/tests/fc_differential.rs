//! Differential suite for the fully concurrent table (PR 8): every
//! quiescent `FcHashTable` snapshot must be **byte-identical** to the
//! `DetHashTable` layout for the same key set — across SIMD dispatch
//! tiers, across 1/2/8-thread pools, at light/medium/heavy loads,
//! after a concurrent insert∥delete window, and through cooperative
//! growth under the room-free wrapper.
//!
//! The det table earns its canonical layout by phase separation; fc
//! earns the *same* layout by online repair (overlap-gated placement
//! validation on insert, post-shift revalidation on delete). These
//! tests are the contract that the repair machinery converges to the
//! det fixpoint, not merely to "some" consistent state.
//!
//! Tier flips go through `simd::set_tier` (process-global), so a
//! static mutex serializes the tests in this binary — same pattern as
//! `simd_differential.rs`. The CI matrix additionally runs this suite
//! under each `PHC_SIMD` value.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use phc_core::simd::{set_tier, SimdTier};
use phc_core::{invariant, DetHashTable, FcHashTable, HashEntry, KvPair, U64Key};
use phc_parutil::{hash64, run_with_threads};
use rayon::prelude::*;

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const TIERS: [SimdTier; 2] = [SimdTier::Scalar, SimdTier::Avx2];
const THREADS: [usize; 3] = [1, 2, 8];

/// Cell counts for a 2^12 table at loads 1/3, 1/2, and 3/4.
const LOG2: u32 = 12;
const LOADS: [usize; 3] = [4096 / 3, 4096 / 2, 4096 * 3 / 4];

/// Distinct-ish pseudo-random keys confined to the low 40 bits.
fn keys_u64(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| 1 + (hash64(i ^ seed.rotate_left(17)) & ((1 << 40) - 1)))
        .collect()
}

/// The det layout for a key set, built phase-separated: the canonical
/// reference every fc run must land on.
fn det_snapshot<E: HashEntry>(entries: &[E]) -> Vec<u64> {
    let t = DetHashTable::<E>::new_pow2(LOG2);
    for &e in entries {
        t.insert(e);
    }
    t.snapshot()
}

/// One fc run at a given thread count, with genuinely overlapping op
/// types: phase A inserts `base` in parallel (quiescent checkpoint),
/// then phase B runs inserts of `extras`, deletes of `dels`, and a
/// stream of finds *concurrently* in one `rayon` scope. `extras` and
/// `dels` are disjoint, so the final key set is still a pure function
/// of the inputs: `(base ∪ extras) \ dels`.
///
/// Returns (snapshot after A, snapshot after B, len after B).
fn run_fc<E: HashEntry>(
    threads: usize,
    base: &[E],
    extras: &[E],
    dels: &[E],
    probes: &[E],
) -> (Vec<u64>, Vec<u64>, usize) {
    run_with_threads(threads, || {
        let t = FcHashTable::<E>::new_pow2(LOG2);
        let (batched, rest) = base.split_at(base.len() / 2);
        t.insert_batch(batched);
        rest.par_iter().for_each(|&e| t.insert(e));
        let after_insert = t.snapshot();

        // The mixed window: all three op types in flight at once
        // (plain OS threads — the point is op-type overlap, which the
        // pool's phase-free chunking cannot provide by itself).
        std::thread::scope(|s| {
            s.spawn(|| {
                for &e in extras {
                    t.insert(e);
                }
            });
            s.spawn(|| {
                for &e in dels {
                    t.delete(e);
                }
            });
            s.spawn(|| {
                // Results are not asserted — finds may transiently
                // miss mid-displacement (documented fc semantics);
                // this arm exists to race the read path against
                // concurrent repair.
                for &p in probes {
                    let _ = t.find(p);
                }
            });
        });

        (after_insert, t.snapshot(), t.len())
    })
}

fn assert_fc_matches_det<E: HashEntry>(label: &str, n: usize, base: &[E], extras: &[E]) {
    // Delete every 3rd base key; extras are fresh keys, disjoint by
    // construction from `dels`, so the survivor set is deterministic.
    let dels: Vec<E> = base.iter().copied().step_by(3).collect();
    let probes: Vec<E> = base.iter().copied().step_by(7).collect();

    let expect_full = det_snapshot(base);
    let del_reprs: BTreeSet<u64> = dels.iter().map(|e| e.to_repr()).collect();
    let survivors: Vec<E> = base
        .iter()
        .copied()
        .filter(|e| !del_reprs.contains(&e.to_repr()))
        .chain(extras.iter().copied())
        .collect();
    let expect_mixed = det_snapshot(&survivors);

    for tier in TIERS {
        set_tier(Some(tier));
        for threads in THREADS {
            let (full, mixed, len) = run_fc(threads, base, extras, &dels, &probes);
            assert_eq!(
                full, expect_full,
                "{label}: quiescent insert-phase snapshot vs det (n={n}, {tier:?}, T={threads})"
            );
            assert_eq!(
                mixed, expect_mixed,
                "{label}: post-mixed-window snapshot vs det (n={n}, {tier:?}, T={threads})"
            );
            let expect_len = expect_mixed.iter().filter(|&&c| c != E::EMPTY).count();
            assert_eq!(len, expect_len, "{label}: len (T={threads})");
            invariant::check_ordering_invariant::<E>(&mixed).unwrap();
            invariant::check_no_duplicate_keys::<E>(&mixed).unwrap();
        }
        set_tier(None);
    }
}

#[test]
fn fc_u64_matches_det_across_tiers_threads_and_loads() {
    let _g = lock();
    for &n in &LOADS {
        let base: Vec<U64Key> = keys_u64(n, 0xFC01)
            .iter()
            .map(|&k| U64Key::new(k))
            .collect();
        // Extras live above bit 44: disjoint from the base generator's
        // range, so they never collide with a deleted key.
        let extras: Vec<U64Key> = (0..n as u64 / 8)
            .map(|i| U64Key::new((1 << 44) + 1 + i))
            .collect();
        assert_fc_matches_det("fc/u64", n, &base, &extras);
    }
}

#[test]
fn fc_kv_matches_det_across_tiers_threads_and_loads() {
    let _g = lock();
    for &n in &LOADS {
        // Distinct keys (index-derived) so the survivor set stays a
        // pure function of the key sets, not the combine order.
        let base: Vec<KvPair> = (0..n as u32)
            .map(|i| KvPair::new(1 + i * 7, (hash64(i as u64) & 0xFFFF) as u32))
            .collect();
        let extras: Vec<KvPair> = (0..n as u32 / 8)
            .map(|i| KvPair::new(1 + (n as u32 * 7) + i * 7, i))
            .collect();
        assert_fc_matches_det("fc/kv", n, &base, &extras);
    }
}

/// Forced cooperative growth under the room-free wrapper: from a
/// 32-cell seed, racing parallel inserts drive the fc-cored
/// resizable table through many migration epochs; a mixed window
/// (inserts of fresh keys ∥ deletes of a disjoint doomed set ∥ finds)
/// then runs with zero room synchronization. After normalization the
/// capacity, length, and raw snapshot must equal the det-cored
/// `AutoPhaseGrowTable` fed the same operation history through its
/// phase-separated rooms — growth epochs, migration block claiming,
/// and the fc delete registration all dissolve at quiescence.
///
/// The mixed window sits well below the growth threshold (capacity is
/// canonical for the full key set before any delete runs), so the
/// final capacity is a pure function of the history for both cores.
#[test]
fn fc_growth_matches_det_core_across_tiers_and_threads() {
    let _g = lock();
    let keep = keys_u64(6_000, 0xFC02);
    let keepset: BTreeSet<u64> = keep.iter().copied().collect();
    let doomed: Vec<u64> = keys_u64(1_500, 0xFC03)
        .into_iter()
        .filter(|k| !keepset.contains(k))
        .collect();
    // Extras above bit 44: disjoint from both generator ranges.
    let extras: Vec<u64> = (0..750u64).map(|i| (1 << 44) + 1 + i).collect();

    // Reference: det core behind the room wrapper, same history.
    let expect = {
        let t = phc_core::AutoPhaseGrowTable::<U64Key>::new_pow2(5);
        let all: Vec<U64Key> = keep
            .iter()
            .chain(&doomed)
            .map(|&k| U64Key::new(k))
            .collect();
        t.par_insert_batched(&all);
        let dels: Vec<U64Key> = doomed.iter().map(|&k| U64Key::new(k)).collect();
        t.par_delete_batched(&dels);
        let exs: Vec<U64Key> = extras.iter().map(|&k| U64Key::new(k)).collect();
        t.par_insert_batched(&exs);
        t.normalize();
        (t.capacity(), t.len(), t.snapshot())
    };
    assert!(expect.0 > 32, "reference must actually have grown");
    invariant::check_ordering_invariant::<U64Key>(&expect.2).unwrap();

    for tier in TIERS {
        set_tier(Some(tier));
        for threads in THREADS {
            let all: Vec<u64> = keep.iter().chain(&doomed).copied().collect();
            let got = run_with_threads(threads, || {
                let t = phc_core::FcAutoGrowTable::<U64Key>::new_pow2(5);
                // Racing per-op inserts force growth cooperatively.
                all.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
                // Room-free mixed window: all three op types at once.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        for &k in &extras {
                            t.insert(U64Key::new(k));
                        }
                    });
                    s.spawn(|| {
                        for &k in &doomed {
                            t.delete(U64Key::new(k));
                        }
                    });
                    s.spawn(|| {
                        for &k in keep.iter().step_by(13) {
                            let _ = t.find(U64Key::new(k));
                        }
                    });
                });
                t.normalize();
                (t.capacity(), t.len(), t.snapshot())
            });
            assert_eq!(got, expect, "fc growth vs det core ({tier:?}, T={threads})");
        }
        set_tier(None);
    }
}

/// Regression: the mixed window above, repeated over seeded key sets
/// at 3/4 load. A delete's copy-down leaves two copies of the moved
/// entry until its chase removes the upper one; an insert that
/// displaced one of those copies used to merge it into the other (or
/// let its placement repair remove its own copy), after which the
/// chase removed the survivor — a live base key that was never
/// deleted went missing in about half of the windows.
#[test]
fn fc_mixed_window_keeps_copies_under_chase() {
    let _g = lock();
    let n = LOADS[2];
    for seed in 0..40u64 {
        let base: Vec<U64Key> = keys_u64(n, 0xC4A5E ^ seed.rotate_left(29))
            .iter()
            .map(|&k| U64Key::new(k))
            .collect();
        let extras: Vec<U64Key> = (0..n as u64 / 8)
            .map(|i| U64Key::new((1 << 44) + 1 + i))
            .collect();
        let dels: Vec<U64Key> = base.iter().copied().step_by(3).collect();
        let probes: Vec<U64Key> = base.iter().copied().step_by(7).collect();
        let del_reprs: BTreeSet<u64> = dels.iter().map(|e| e.to_repr()).collect();
        let survivors: Vec<U64Key> = base
            .iter()
            .copied()
            .filter(|e| !del_reprs.contains(&e.to_repr()))
            .chain(extras.iter().copied())
            .collect();
        let (_, mixed, len) = run_fc(2, &base, &extras, &dels, &probes);
        assert_eq!(mixed, det_snapshot(&survivors), "seed {seed}");
        assert_eq!(len, survivors.len(), "seed {seed}");
    }
}
