//! Attribution passes shared by every workload's traced run: growth
//! (the `resize` layer against a preallocated `det` table on the same
//! keys), table probing (`det`, `simd`, and the serial baseline) and
//! pool dispatch. Each pass times public calls from outside the
//! program and checks what those calls return.

use std::hint::black_box;
use std::time::Instant;

use phc_core::simd::{self, SimdTier};
use phc_core::stats::probe_stats;
use phc_core::{DetHashTable, ResizableTable, SerialHashHD, U64Key};
use rayon::prelude::*;

use crate::stats::{median, secs, Clock};
use crate::Outcome;

/// Seed capacity exponent of every growable table in the benchmark.
pub const GROW_SEED_LOG2: u32 = 4;
/// Repetitions of each timed arm in an attribution pass (alternating
/// arms, so drift hits both equally).
const REPS: usize = 3;

/// Runs `f` on the shim pool at width `w` (nested installs swap the
/// width in place).
pub fn at_width<R: Send>(w: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("the shim pool builder never fails")
        .install(f)
}

/// The capacity exponent a growable table normalizes to for `n`
/// distinct keys: the smallest power of two with load below 3/4.
pub fn canonical_log2(n: usize) -> u32 {
    let mut l = GROW_SEED_LOG2;
    while n * 4 >= (1usize << l) * 3 {
        l += 1;
    }
    l
}

/// Inserts every key through the per-op path from parallel chunks of
/// 256 (the loop shape of the `grow` workload, minus its timers).
pub fn par_each(keys: &[U64Key], f: impl Fn(U64Key) + Sync) {
    keys.par_chunks(256)
        .for_each(|c| c.iter().for_each(|&k| f(k)));
}

/// Results of the growth attribution pass.
pub struct Growth {
    pub publish_p50_us: f64,
    pub publish_max_us: f64,
    pub alloc_us: f64,
    pub overhead_share: f64,
    pub prealloc_insert_ns: f64,
}

/// Growth attribution over distinct `keys` (ROADMAP item 2's publish-op
/// tail and end-to-end gap):
///
/// * the same keys, same loop, same width into a `ResizableTable`
///   seeded at 2^4 cells and into a `DetHashTable` preallocated at the
///   final capacity; `overhead_share` = 1 − prealloc / grow;
/// * a submitter-order pass at width 1, where the inserts that publish
///   a successor are known from outside (the one that brings the item
///   count to ¾·capacity), timing each insert;
/// * `DetHashTable::new_pow2` alone at every successor size.
///
/// Also returns the preallocated arm's table, for [`table_pass`].
pub fn growth_pass(
    keys: &[U64Key],
    clock: &Clock,
    out: &mut Outcome,
) -> (Growth, DetHashTable<U64Key>) {
    let n = keys.len();
    let final_log2 = canonical_log2(n);
    let (mut grow_s, mut pre_s) = (Vec::new(), Vec::new());
    let mut prealloc = None;
    for rep in 0..REPS {
        for arm in [rep % 2, 1 - rep % 2] {
            if arm == 0 {
                let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(GROW_SEED_LOG2);
                let t0 = Instant::now();
                t.insert_phase(|t| par_each(keys, |k| t.insert(k)));
                grow_s.push(secs(t0));
                out.check(
                    t.capacity() == 1 << final_log2 && t.len() == n,
                    "growth pass: grown table has the canonical capacity and every key",
                );
            } else {
                drop(prealloc.take());
                let t: DetHashTable<U64Key> = DetHashTable::new_pow2(final_log2);
                let t0 = Instant::now();
                par_each(keys, |k| t.insert(k));
                pre_s.push(secs(t0));
                prealloc = Some(t);
            }
        }
    }
    let prealloc = prealloc.expect("REPS >= 1");
    let (grow, pre) = (median(&grow_s), median(&pre_s));
    println!(
        "# growth pass: {n} keys, 2^{GROW_SEED_LOG2} -> 2^{final_log2} cells, width {}: \
         grow {:.2} ms, preallocated {:.2} ms (medians of {REPS})",
        crate::WIDTH,
        grow * 1e3,
        pre * 1e3
    );

    let lat: Vec<u64> = at_width(1, || {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(GROW_SEED_LOG2);
        keys.iter()
            .map(|&k| {
                let a = clock.ticks();
                t.insert(k);
                clock.ticks().wrapping_sub(a)
            })
            .collect()
    });
    let mut publishing = Vec::new();
    let mut cap = 1usize << GROW_SEED_LOG2;
    while cap * 3 / 4 <= n {
        publishing.push(cap * 3 / 4 - 1);
        cap *= 2;
    }
    let pub_us: Vec<f64> = publishing.iter().map(|&i| clock.ns(lat[i]) / 1e3).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(lat[i]));
    for &i in order.iter().take(5) {
        let role = match publishing.binary_search(&i) {
            Ok(_) => "publishes".to_string(),
            Err(j) if j > 0 => format!("{} ops after a publish", i - publishing[j - 1]),
            Err(_) => "before the first publish".to_string(),
        };
        println!(
            "# submitter-order slowest insert #{i}: {:.2} us ({role})",
            clock.ns(lat[i]) / 1e3
        );
    }
    let pub_line: Vec<String> = pub_us.iter().map(|u| format!("{u:.1}")).collect();
    println!(
        "# publishing inserts (us, by capacity): {}",
        pub_line.join(" ")
    );

    let alloc: Vec<f64> = (GROW_SEED_LOG2 + 1..=final_log2)
        .map(|l| {
            let t0 = Instant::now();
            let d: DetHashTable<U64Key> = DetHashTable::new_pow2(l);
            let us = secs(t0) * 1e6;
            drop(black_box(d));
            us
        })
        .collect();
    let alloc_line: Vec<String> = alloc.iter().map(|u| format!("{u:.1}")).collect();
    println!(
        "# DetHashTable::new_pow2 (us, by capacity): {}",
        alloc_line.join(" ")
    );
    let alloc_us = alloc.iter().sum();
    let growth = Growth {
        publish_p50_us: median(&pub_us),
        publish_max_us: pub_us.iter().cloned().fold(0.0, f64::max),
        alloc_us,
        overhead_share: 1.0 - pre / grow,
        prealloc_insert_ns: pre * 1e9 / n as f64,
    };
    (growth, prealloc)
}

/// Results of the table attribution pass.
pub struct Probing {
    pub mean_displacement: f64,
    pub max_displacement: f64,
    pub find_ns: f64,
    pub simd_speedup: f64,
    pub vs_serial_find: f64,
}

/// Table attribution on a filled `DetHashTable` and keys it holds:
/// displacement counts of its snapshot, batched finds at the scalar
/// tier against the auto tier, and per-op finds at width 1 against
/// `SerialHashHD` holding the same keys. Every find must hit.
pub fn table_pass(d: &DetHashTable<U64Key>, keys: &[U64Key], out: &mut Outcome) -> Probing {
    let st = probe_stats::<U64Key>(&d.snapshot());
    let n = keys.len();
    let (mut auto, mut scalar) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        for arm in [rep % 2, 1 - rep % 2] {
            simd::set_tier((arm == 1).then_some(SimdTier::Scalar));
            let t0 = Instant::now();
            let r = d.par_find_batched(keys);
            let dt = secs(t0);
            (if arm == 0 { &mut auto } else { &mut scalar }).push(dt);
            let misses = r.iter().zip(keys).filter(|(f, k)| **f != Some(**k)).count();
            out.attempted += n as u64;
            out.failed += misses as u64;
        }
    }
    simd::set_tier(None);

    let mut serial: SerialHashHD<U64Key> = SerialHashHD::new_pow2(d.capacity().trailing_zeros());
    keys.iter().for_each(|&k| serial.insert(k));
    let (mut det1, mut ser1) = (Vec::new(), Vec::new());
    let misses = at_width(1, || {
        let mut misses = 0u64;
        for rep in 0..REPS {
            for arm in [rep % 2, 1 - rep % 2] {
                let t0 = Instant::now();
                if arm == 0 {
                    misses += keys.iter().filter(|&&k| d.find(k).is_none()).count() as u64;
                    det1.push(secs(t0));
                } else {
                    misses += keys.iter().filter(|&&k| serial.find(k).is_none()).count() as u64;
                    ser1.push(secs(t0));
                }
            }
        }
        misses
    });
    out.attempted += (2 * REPS * n) as u64;
    out.failed += misses;
    println!(
        "# table pass: {n} finds in 2^{} cells: auto {:.2} ms, scalar {:.2} ms (width {}); \
         width 1: det {:.2} ms, serialHash-HD {:.2} ms",
        d.capacity().trailing_zeros(),
        median(&auto) * 1e3,
        median(&scalar) * 1e3,
        crate::WIDTH,
        median(&det1) * 1e3,
        median(&ser1) * 1e3
    );
    Probing {
        mean_displacement: st.mean(),
        max_displacement: st.max() as f64,
        find_ns: median(&auto) * 1e9 / n as f64,
        simd_speedup: median(&scalar) / median(&auto),
        vs_serial_find: median(&det1) / median(&ser1),
    }
}

/// Median cost of one empty parallel call over four items (the shape
/// of the server's per-shard fan-out) on the current pool, in µs.
pub fn pool_dispatch_us() -> f64 {
    let items = [0u32; 4];
    let samples: Vec<f64> = (0..20_000)
        .map(|_| {
            let t0 = Instant::now();
            items.par_iter().for_each(|x| {
                black_box(x);
            });
            secs(t0) * 1e6
        })
        .collect();
    median(&samples)
}

/// Emits the growth, table and pool metrics shared by every workload.
pub fn emit_common(out: &mut Outcome, g: &Growth, p: &Probing) {
    out.metric("resize.publish_op_p50_us", g.publish_p50_us, "us");
    out.metric("resize.publish_op_max_us", g.publish_max_us, "us");
    out.metric("resize.alloc_us", g.alloc_us, "us");
    out.metric("resize.overhead_share", g.overhead_share, "share");
    out.metric("det.prealloc_insert_ns", g.prealloc_insert_ns, "ns");
    out.metric("det.find_ns", p.find_ns, "ns");
    out.metric("det.mean_displacement", p.mean_displacement, "cells");
    out.metric("det.max_displacement", p.max_displacement, "cells");
    out.metric("det.vs_serial_find", p.vs_serial_find, "ratio");
    out.metric("simd.find_speedup", p.simd_speedup, "ratio");
    out.metric("pool.dispatch_us", pool_dispatch_us(), "us");
}
