//! `table1`: the paper's Table 1 phase sequence — insert,
//! find_inserted, find_random, delete_random, elements — on a
//! preallocated `DetHashTable<U64Key>`, with randomSeq-int keys
//! (n = 2^23, uniform in [1, n]) in 2^24 cells.

use std::time::Instant;

use phc_core::{DetHashTable, U64Key};

use crate::layers::{self, at_width};
use crate::stats::{fnv_words, median, peak_rss_mib, secs, summarize, Clock};
use crate::trace::Trace;
use crate::{kv, Args, Outcome};

const LOG2_N: u32 = 23;
const LOG2_CELLS: u32 = 24;
const SETUPS: usize = 3;
const PHASES: [&str; 5] = [
    "det.insert",
    "det.find_inserted",
    "det.find_random",
    "det.delete_random",
    "det.elements",
];
/// Keys per phase pushed through the service path in the traced run.
const SERVICE_PREFIX: usize = 1 << 18;
/// Keys handed to the growth and table attribution passes.
const LAYER_KEYS: usize = 1 << 22;

/// A bitmap over the key domain `[0, n]`.
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Bits {
        Bits(vec![0; n / 64 + 1])
    }
    fn set(&mut self, i: u64) -> bool {
        let (w, b) = ((i / 64) as usize, 1u64 << (i % 64));
        let was = self.0[w] & b != 0;
        self.0[w] |= b;
        was
    }
    fn get(&self, i: u64) -> bool {
        self.0[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }
    fn clear(&mut self) {
        self.0.iter_mut().for_each(|w| *w = 0);
    }
}

struct Inputs {
    inserted: Vec<U64Key>,
    random: Vec<U64Key>,
    inserted_set: Bits,
    /// Keys left after delete_random: inserted minus random.
    expect_set: Bits,
    expect_len: usize,
    distinct_inserted: usize,
}

fn inputs(seed: u64) -> Inputs {
    let n = 1usize << LOG2_N;
    let gen = |s: u64| -> Vec<U64Key> {
        phc_workloads::random_seq_int(n, s)
            .into_iter()
            .map(U64Key::new)
            .collect()
    };
    let inserted = gen(seed);
    let random = gen(phc_parutil::hash64(seed ^ 0x7461_626c_6531));
    let mut inserted_set = Bits::new(n);
    let distinct_inserted = inserted.iter().filter(|k| !inserted_set.set(k.0)).count();
    let mut random_set = Bits::new(n);
    random.iter().for_each(|k| {
        random_set.set(k.0);
    });
    let expect_set = Bits(
        inserted_set
            .0
            .iter()
            .zip(&random_set.0)
            .map(|(a, b)| a & !b)
            .collect(),
    );
    let expect_len = expect_set.0.iter().map(|w| w.count_ones() as usize).sum();
    Inputs {
        inserted,
        random,
        inserted_set,
        expect_set,
        expect_len,
        distinct_inserted,
    }
}

/// One pass of the five phases on a cleared table: phase seconds and
/// the fingerprint of the `elements()` order. Every result is checked
/// (untimed) and tallied into `out`.
fn rep(
    t: &mut DetHashTable<U64Key>,
    inp: &Inputs,
    seen: &mut Bits,
    out: &mut Outcome,
    mut trace: Option<(&mut Trace, u32)>,
) -> ([f64; 5], u64) {
    t.clear();
    let n = inp.inserted.len() as u64;
    let mut secs_by_phase = [0.0; 5];
    let root_start = trace.as_ref().map_or(0, |(tr, _)| tr.now());
    let mut spans = Vec::new();
    let mut timed = |i: usize, f: &mut dyn FnMut()| {
        let start = trace.as_ref().map_or(0, |(tr, _)| tr.now());
        let t0 = Instant::now();
        f();
        secs_by_phase[i] = secs(t0);
        if let Some((tr, _)) = trace.as_ref() {
            spans.push((PHASES[i], start, tr.now()));
        }
    };

    timed(0, &mut || t.par_insert_batched(&inp.inserted));
    let mut found = Vec::new();
    timed(1, &mut || found = t.par_find_batched(&inp.inserted));
    let bad_ins = found
        .iter()
        .zip(&inp.inserted)
        .filter(|(f, k)| **f != Some(**k))
        .count();
    drop(std::mem::take(&mut found));
    timed(2, &mut || found = t.par_find_batched(&inp.random));
    let bad_rand = found
        .iter()
        .zip(&inp.random)
        .filter(|(f, k)| **f != inp.inserted_set.get(k.0).then_some(**k))
        .count();
    drop(std::mem::take(&mut found));
    timed(3, &mut || t.par_delete_batched(&inp.random));
    let mut elems = Vec::new();
    timed(4, &mut || elems = t.elements());

    seen.clear();
    let stray = elems
        .iter()
        .filter(|k| !inp.expect_set.get(k.0) || seen.set(k.0))
        .count();
    let missing = inp.expect_len.saturating_sub(elems.len() - stray);
    out.attempted += 4 * n + inp.expect_len as u64;
    out.failed += (bad_ins + bad_rand + stray + missing) as u64;
    if let Some((tr, batch)) = trace.as_mut() {
        let end = tr.now();
        if let Some(root) = tr.root("bench.table1_rep", *batch, root_start, end, spans.len()) {
            for (layer, s, e) in spans {
                tr.child(layer, *batch, root, s, e);
            }
        }
    }
    (secs_by_phase, fnv_words(elems.iter().map(|k| k.0)))
}

/// Repeats [`rep`] until `seconds` have passed (at least `min_reps`).
/// With a trace, every other repetition is traced, so traced and
/// untraced repetitions share the same drift.
fn measure(
    t: &mut DetHashTable<U64Key>,
    inp: &Inputs,
    seconds: f64,
    min_reps: usize,
    out: &mut Outcome,
    mut trace: Option<&mut Trace>,
) -> (Vec<[f64; 5]>, Vec<u64>) {
    let mut seen = Bits::new(1 << LOG2_N);
    let (mut phases, mut hashes) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while phases.len() < min_reps || secs(t0) < seconds {
        let i = phases.len();
        let tr = trace
            .as_deref_mut()
            .filter(|_| i % 2 == 1)
            .map(|tr| (tr, i as u32));
        let (p, h) = rep(t, inp, &mut seen, out, tr);
        phases.push(p);
        hashes.push(h);
    }
    (phases, hashes)
}

/// Median over repetitions of each repetition's throughput.
fn mops(ops: f64, phases: &[[f64; 5]]) -> f64 {
    let per_rep: Vec<f64> = phases
        .iter()
        .map(|p| ops / p.iter().sum::<f64>() / 1e6)
        .collect();
    median(&per_rep)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let inp = inputs(args.seed);
    let n = inp.inserted.len();
    let ops_per_rep = (4 * n + inp.expect_len) as f64;
    println!(
        "# table1: n = {n} randomSeq-int ({} distinct), 2^{LOG2_CELLS} cells ({} MiB), \
         {} keys survive delete_random",
        inp.distinct_inserted,
        (8usize << LOG2_CELLS) >> 20,
        inp.expect_len
    );

    let mut setups = Vec::new();
    let mut table = None;
    for _ in 0..SETUPS {
        drop(table.take());
        let t0 = Instant::now();
        // Construction plus the first touch of every cell, so no timed
        // phase pays the table's page faults.
        let mut t: DetHashTable<U64Key> = DetHashTable::new_pow2(LOG2_CELLS);
        t.clear();
        setups.push(secs(t0));
        table = Some(t);
    }
    let mut t = table.expect("SETUPS >= 1");
    let cap0 = t.capacity();

    let mut trace = Trace::new(1 << 16);
    let tr = args.trace.then_some(&mut trace);
    let (phases, hashes) = measure(&mut t, &inp, args.seconds, 4, &mut out, tr);
    let peak = peak_rss_mib();
    out.check(
        hashes.iter().all(|&h| h == hashes[0]),
        "elements() order is identical across repetitions",
    );
    for (i, name) in PHASES.iter().enumerate() {
        let per_phase: Vec<f64> = phases.iter().map(|p| p[i]).collect();
        let ops = if i == 4 { inp.expect_len } else { n } as f64;
        println!(
            "# phase {name}: median {:.4} s = {:.2} Mops/s over {} reps",
            median(&per_phase),
            ops / median(&per_phase) / 1e6,
            per_phase.len()
        );
    }

    // The same build at width 1 must pack the same elements in the same
    // order, byte for byte.
    t.clear();
    let h1 = at_width(1, || {
        t.par_insert_batched(&inp.inserted);
        t.par_delete_batched(&inp.random);
        fnv_words(t.elements().iter().map(|k| k.0))
    });
    out.check(
        h1 == hashes[0],
        "elements() order matches the width-1 build",
    );

    if !args.trace {
        let reps: Vec<f64> = phases.iter().map(|p| p.iter().sum::<f64>() * 1e6).collect();
        let s = summarize(&reps, 1.0);
        println!("# phase-sequence latency (us): {s}");
        out.metric("throughput_mops", mops(ops_per_rep, &phases), "Mops/s");
        out.metric("latency_p50_us", s.p50, "us");
        out.metric("latency_tail_us", s.tail, "us");
        out.metric(
            "bytes_per_key",
            (cap0 * 8) as f64 / inp.distinct_inserted as f64,
            "B",
        );
        out.metric("peak_rss_mib", peak, "MiB");
        out.metric("setup_s", median(&setups), "s");
        return out;
    }

    let parity =
        |p: usize| -> Vec<[f64; 5]> { phases.iter().skip(p).step_by(2).copied().collect() };
    let overhead = 1.0 - mops(ops_per_rep, &parity(1)) / mops(ops_per_rep, &parity(0));
    let clock = Clock::calibrate();
    t.clear();
    t.par_insert_batched(&inp.inserted);
    let probing = layers::table_pass(&t, &inp.inserted[..LAYER_KEYS], &mut out);
    let cap_changes = (t.capacity() != cap0) as u64;
    drop(t);
    let mut seen = Bits::new(n);
    let mut distinct: Vec<U64Key> = inp
        .inserted
        .iter()
        .filter(|k| !seen.set(k.0))
        .copied()
        .collect();
    distinct.truncate(LAYER_KEYS);
    let (growth, _) = layers::growth_pass(&distinct, &clock, &mut out);

    let log = kv::phase_log(
        &inp.inserted[..SERVICE_PREFIX],
        &inp.random[..SERVICE_PREFIX],
    );
    let service = kv::service_pass(&log, 0, args.seconds / 4.0, &mut out, &mut trace);
    service.emit(&mut out);
    layers::emit_common(&mut out, &growth, &probing);
    kv::emit_workload(&mut out, cap_changes, cap_changes, overhead);
    kv::write_trace(&trace, args);
    out
}
