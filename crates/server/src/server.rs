//! The sharded deterministic KV server.
//!
//! ## Batch semantics
//!
//! A batch is the unit of ordering. Within one batch, every shard
//! applies its ops in a fixed **sub-phase order**: all puts, then all
//! deletes, then all gets. Gets therefore observe every same-batch put
//! and delete; a put and a delete of the same key in one batch leave
//! the key absent regardless of their relative submission order (the
//! delete sub-phase runs last of the two). Across batches, order is
//! submission order. These rules make the response log a pure function
//! of `(request log, batch size)` — independent of thread count and of
//! shard count.
//!
//! ## Combining puts
//!
//! Duplicate-key puts — in one batch or across batches — resolve
//! through the entry's commutative [`Combine`] policy (paper §4's
//! combining functions), **not** last-write-wins: concurrent inserts
//! of the same key must commute for the phase-concurrent determinism
//! guarantee to hold, and "last" is not even well defined inside a
//! concurrent insert phase. The server is a deterministic *combining*
//! KV store; pick the policy by type parameter (default
//! [`KeepMin`], or e.g. `AddValues` for a counter store).
//!
//! ## Pipelining
//!
//! Each shard owns a [`ShardTable`] — by default an
//! [`AutoPhaseGrowTable`] with its own room synchronizer, so shards
//! sit in different phases simultaneously: a get-heavy shard runs its
//! read room while a put-heavy neighbour is mid-insert (or
//! mid-migration) — composing per-shard phase concurrency without any
//! global phase barrier.
//!
//! ## The fc mode
//!
//! [`FcKvServer`] swaps the shard core for the fully concurrent one:
//! [`FcAutoGrowTable`] is the same room
//! wrapper over the fc core, whose calls enter no room, so the three
//! sub-phase calls inside a shard fuse into one pass with no room
//! entry, exit, or switch between them. Responses are byte-identical to the rooms
//! mode — both cores produce the same canonical layout for the same
//! key set, and the sub-phase *order* (program order, here) still
//! pins what every get observes. Quiescence at each batch boundary is
//! the linearization point, exactly as in the rooms mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use phc_core::entry::{Combine, KeepMin, KvPair};
use phc_core::{AutoPhaseGrowTable, FcAutoGrowTable};
use phc_workloads::KvOp;

use crate::router;
use crate::shard_table::ShardTable;

/// Response word for an acknowledged put (`'P'` tag byte).
pub const RESP_PUT_ACK: u64 = (b'P' as u64) << 56;
/// Response word for an acknowledged delete (`'D'` tag byte).
pub const RESP_DEL_ACK: u64 = (b'D' as u64) << 56;
/// Response word for a get miss (`'M'` tag byte).
pub const RESP_MISS: u64 = (b'M' as u64) << 56;
/// Tag byte of a get hit; the low 32 bits carry the value.
pub const RESP_HIT_TAG: u64 = (b'H' as u64) << 56;

/// Response word for a get hit of `value`.
#[inline]
pub fn resp_hit(value: u32) -> u64 {
    RESP_HIT_TAG | value as u64
}

/// Always-on per-shard operation counters (plain relaxed atomics; a
/// few nanoseconds per batch, unlike the feature-gated obs counters
/// which stay zero-cost when disabled). Aligned to a cache line so
/// neighbouring shards' counters never false-share.
#[derive(Default)]
#[repr(align(64))]
pub struct ShardStats {
    puts: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    dels: AtomicU64,
}

/// One shard's counter totals at a point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Put operations applied.
    pub puts: u64,
    /// Get operations applied.
    pub gets: u64,
    /// Gets that found their key.
    pub hits: u64,
    /// Delete operations applied.
    pub dels: u64,
}

impl ShardStatsSnapshot {
    /// Total operations this shard has applied.
    pub fn ops(&self) -> u64 {
        self.puts + self.gets + self.dels
    }
}

struct Shard<C: Combine, T: ShardTable<C>> {
    table: T,
    stats: ShardStats,
    _combine: std::marker::PhantomData<C>,
}

/// One shard's slice of a batch, already grouped into the sub-phases
/// the shard will run (puts → deletes → gets) by the routing pass.
/// Each group keeps submission order; `get_pos[k]` is the batch-global
/// submission index of `gets[k]`, for scattering get responses.
struct ShardBatch<C: Combine> {
    puts: Vec<KvPair<C>>,
    dels: Vec<KvPair<C>>,
    gets: Vec<KvPair<C>>,
    get_pos: Vec<u32>,
    /// Get responses for this shard's slice, written in place by
    /// [`KvServer::apply_shard`]. Part of the reused scratch: the get
    /// path was the last per-batch transient allocation (one fresh
    /// `Vec<u64>` per shard per batch), and writing responses into
    /// scratch kills it the same way the routing vecs were killed.
    get_resp: Vec<u64>,
}

impl<C: Combine> ShardBatch<C> {
    fn new() -> Self {
        ShardBatch {
            puts: Vec::new(),
            dels: Vec::new(),
            gets: Vec::new(),
            get_pos: Vec::new(),
            get_resp: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.puts.clear();
        self.dels.clear();
        self.gets.clear();
        self.get_pos.clear();
        self.get_resp.clear();
    }

    fn len(&self) -> usize {
        self.puts.len() + self.dels.len() + self.gets.len()
    }
}

/// A deterministic KV service over `N` phase-concurrent shards (see
/// the [module docs](self) for semantics). The second type parameter
/// picks each shard's synchronization discipline; the default is the
/// room-synchronized table, [`FcKvServer`] is the room-free mode.
pub struct KvServer<C: Combine = KeepMin, T: ShardTable<C> = AutoPhaseGrowTable<KvPair<C>>> {
    shards: Vec<Shard<C, T>>,
    /// Routing scratch, reused across batches (the vecs keep their
    /// high-water capacity, so steady-state batches allocate nothing
    /// for routing). Holding the lock for the whole of `apply_batch`
    /// also *enforces* the service's ordering contract: batches are
    /// the unit of ordering, so two batches must never interleave
    /// their room phases.
    scratch: Mutex<Vec<ShardBatch<C>>>,
}

/// The fc-backed server mode: every shard is a room-free
/// [`FcAutoGrowTable`], so `apply_batch` runs each shard's
/// puts→deletes→gets as one fused pass with zero room switches.
/// Response logs are byte-identical to the default [`KvServer`].
pub type FcKvServer<C = KeepMin> = KvServer<C, FcAutoGrowTable<KvPair<C>>>;

impl<C: Combine, T: ShardTable<C>> KvServer<C, T> {
    /// Creates a server with `shards` shards (a power of two), each
    /// seeded with `2^log2_cells_per_shard` cells and growing
    /// independently as needed.
    pub fn new(shards: usize, log2_cells_per_shard: u32) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "shard count must be a power of two"
        );
        KvServer {
            shards: (0..shards)
                .map(|_| Shard {
                    table: T::new_pow2(log2_cells_per_shard),
                    stats: ShardStats::default(),
                    _combine: std::marker::PhantomData,
                })
                .collect(),
            scratch: Mutex::new((0..shards).map(|_| ShardBatch::new()).collect()),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard synchronization mode label (`"rooms"` or `"fc"`).
    pub fn mode() -> &'static str {
        T::MODE
    }

    /// The shard that owns `key`.
    pub fn shard_of(&self, key: u32) -> usize {
        router::shard_of(key, self.shards.len())
    }

    /// Applies one batch of operations and returns one response word
    /// per op, in submission order (see the [module docs](self) for
    /// the batch semantics).
    ///
    /// The request path: one routing pass partitions the batch by the
    /// deterministic router hash *and* groups each shard's slice into
    /// its sub-phases (puts/deletes ack immediately); every shard's
    /// sub-batch is driven in parallel through the batched room paths;
    /// get responses scatter back to their submission indices.
    pub fn apply_batch(&self, ops: &[KvOp]) -> Vec<u64> {
        use rayon::prelude::*;
        phc_obs::probe!(count ServerBatches);
        phc_obs::probe!(count ServerOpsRouted, ops.len() as u64);
        assert!(
            ops.len() <= u32::MAX as usize,
            "batch too large for u32 submission indices"
        );
        let shards = self.shards.len();
        let mut resp = vec![0u64; ops.len()];
        // The routing pass is stable: within a shard, every sub-phase
        // group keeps submission order, so the sub-batch a shard sees
        // is exactly the subsequence of the request log it owns —
        // independent of thread count or upstream batch framing.
        let mut batches = self.scratch.lock().expect("batch scratch poisoned");
        for b in batches.iter_mut() {
            b.clear();
        }
        for (i, &op) in ops.iter().enumerate() {
            let b = &mut batches[router::shard_of(op.key(), shards)];
            match op {
                KvOp::Put { key, val } => {
                    b.puts.push(KvPair::new(key, val));
                    resp[i] = RESP_PUT_ACK;
                }
                KvOp::Del { key } => {
                    b.dels.push(KvPair::new(key, 0));
                    resp[i] = RESP_DEL_ACK;
                }
                KvOp::Get { key } => {
                    b.gets.push(KvPair::new(key, 0));
                    b.get_pos.push(i as u32);
                }
            }
        }
        for b in batches.iter() {
            phc_obs::probe!(hist ServerShardOps, b.len() as u64);
        }
        // On a single-worker pool the cross-shard fan-out is pure
        // dispatch overhead; each shard computes the same responses
        // either way (shards are independent). Get responses land in
        // each shard's `get_resp` scratch, not a per-batch `Vec`.
        if rayon::current_num_threads() <= 1 {
            self.shards
                .iter()
                .zip(batches.iter_mut())
                .for_each(|(shard, batch)| Self::apply_shard(shard, batch));
        } else {
            self.shards
                .par_iter()
                .zip(batches.par_iter_mut())
                .for_each(|(shard, batch)| Self::apply_shard(shard, batch));
        }
        for b in batches.iter() {
            for (&p, &r) in b.get_pos.iter().zip(&b.get_resp) {
                resp[p as usize] = r;
            }
        }
        resp
    }

    /// One shard's sub-phases for one batch, writing one response word
    /// per get into `batch.get_resp` (puts and deletes were acked by
    /// the routing pass).
    /// Runs on a pool worker under the outer per-shard parallel loop;
    /// the batched table calls parallelize internally as well (nested
    /// parallelism is cheap in the shim — chunks of both levels share
    /// the pool).
    ///
    /// Fixed sub-phase order: puts, deletes, gets. In the rooms mode
    /// each batched call enters the shard's room once (two switches
    /// per mixed sub-batch); in the fc mode the three calls fuse into
    /// one room-free pass, ordered by program order alone. Either way
    /// the insert path normalizes capacity before returning, making
    /// the shard's layout a pure function of its key set at every
    /// batch boundary.
    fn apply_shard(shard: &Shard<C, T>, batch: &mut ShardBatch<C>) {
        if !batch.puts.is_empty() {
            shard.table.par_insert_batched(&batch.puts);
            shard
                .stats
                .puts
                .fetch_add(batch.puts.len() as u64, Ordering::Relaxed);
        }
        if !batch.dels.is_empty() {
            shard.table.par_delete_batched(&batch.dels);
            shard
                .stats
                .dels
                .fetch_add(batch.dels.len() as u64, Ordering::Relaxed);
        }
        if batch.gets.is_empty() {
            return;
        }
        let mut hits = 0u64;
        batch
            .get_resp
            .extend(
                shard
                    .table
                    .par_find_batched(&batch.gets)
                    .into_iter()
                    .map(|f| match f {
                        Some(kv) => {
                            hits += 1;
                            resp_hit(kv.value)
                        }
                        None => RESP_MISS,
                    }),
            );
        shard
            .stats
            .gets
            .fetch_add(batch.gets.len() as u64, Ordering::Relaxed);
        shard.stats.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Applies a whole request log in batches of `batch` ops,
    /// returning the concatenated response log.
    pub fn apply_log(&self, ops: &[KvOp], batch: usize) -> Vec<u64> {
        let batch = batch.max(1);
        let mut out = Vec::with_capacity(ops.len());
        for chunk in ops.chunks(batch) {
            out.extend(self.apply_batch(chunk));
        }
        out
    }

    /// Applies one operation through the per-op room paths (no
    /// batching, no sub-phase reordering — a batch of one). The
    /// baseline the `server` bench compares the batched path against.
    pub fn apply_op(&self, op: KvOp) -> u64 {
        let shard = &self.shards[self.shard_of(op.key())];
        match op {
            KvOp::Put { key, val } => {
                shard.table.insert(KvPair::new(key, val));
                shard.stats.puts.fetch_add(1, Ordering::Relaxed);
                RESP_PUT_ACK
            }
            KvOp::Del { key } => {
                shard.table.delete(KvPair::new(key, 0));
                shard.stats.dels.fetch_add(1, Ordering::Relaxed);
                RESP_DEL_ACK
            }
            KvOp::Get { key } => {
                shard.stats.gets.fetch_add(1, Ordering::Relaxed);
                match shard.table.find(KvPair::new(key, 0)) {
                    Some(kv) => {
                        shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                        resp_hit(kv.value)
                    }
                    None => RESP_MISS,
                }
            }
        }
    }

    /// Per-shard quiescent raw snapshots (each shard's canonical cell
    /// array). Equal across thread counts for a fixed shard count —
    /// the differential tests' witness.
    pub fn quiescent_snapshots(&self) -> Vec<Vec<u64>> {
        self.shards.iter().map(|s| s.table.snapshot()).collect()
    }

    /// Appends every stored entry (all shards, shard order, each
    /// shard's deterministic cell order) to `out`. The caller-buffer
    /// export: a periodic dump loop reuses one buffer's high-water
    /// capacity across calls instead of allocating per shard per dump
    /// (the `elements_into` discipline end to end — see
    /// [`ShardTable::elements_into`]).
    pub fn elements_into(&self, out: &mut Vec<KvPair<C>>) {
        for s in &self.shards {
            s.table.elements_into(out);
        }
    }

    /// Per-shard stored-entry counts.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.table.len()).collect()
    }

    /// Per-shard operation counter totals.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.shards
            .iter()
            .map(|s| ShardStatsSnapshot {
                puts: s.stats.puts.load(Ordering::Relaxed),
                gets: s.stats.gets.load(Ordering::Relaxed),
                hits: s.stats.hits.load(Ordering::Relaxed),
                dels: s.stats.dels.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Serializes a response log to its canonical byte form (little-endian
/// words) — the representation the byte-identical replay guarantee is
/// stated over.
pub fn response_log_bytes(resps: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(resps.len() * 8);
    for r in resps {
        out.extend_from_slice(&r.to_le_bytes());
    }
    out
}

/// FNV-1a over the canonical byte form — the compact fingerprint the
/// CI smoke asserts on.
pub fn response_log_hash(resps: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in response_log_bytes(resps) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_roundtrip<T: ShardTable<KeepMin>>(server: &KvServer<KeepMin, T>) {
        let puts: Vec<KvOp> = (1..=100u32)
            .map(|k| KvOp::Put { key: k, val: k * 7 })
            .collect();
        let r = server.apply_batch(&puts);
        assert!(r.iter().all(|&x| x == RESP_PUT_ACK));
        let gets: Vec<KvOp> = (1..=120u32).map(|k| KvOp::Get { key: k }).collect();
        let r = server.apply_batch(&gets);
        for (i, &x) in r.iter().enumerate() {
            let k = i as u32 + 1;
            if k <= 100 {
                assert_eq!(x, resp_hit(k * 7), "key {k}");
            } else {
                assert_eq!(x, RESP_MISS, "key {k}");
            }
        }
        let dels: Vec<KvOp> = (1..=50u32).map(|k| KvOp::Del { key: k }).collect();
        server.apply_batch(&dels);
        let r = server.apply_batch(&gets);
        let hits = r.iter().filter(|&&x| x != RESP_MISS).count();
        assert_eq!(hits, 50);
    }

    #[test]
    fn roundtrip_across_shard_counts() {
        for shards in [1, 2, 8] {
            let server: KvServer = KvServer::new(shards, 6);
            ops_roundtrip(&server);
        }
    }

    #[test]
    fn elements_into_appends_all_shards() {
        for shards in [1usize, 2, 8] {
            let server: KvServer = KvServer::new(shards, 6);
            let puts: Vec<KvOp> = (1..=100u32)
                .map(|k| KvOp::Put { key: k, val: k * 3 })
                .collect();
            server.apply_batch(&puts);
            // Pre-populate the buffer: the export appends, so the
            // sentinel must survive and every shard's entries must
            // land after it (not just the last shard's).
            let sentinel = KvPair::new(0xFFFF, 1);
            let mut out: Vec<KvPair<KeepMin>> = vec![sentinel];
            server.elements_into(&mut out);
            assert_eq!(out[0], sentinel, "shards = {shards}: prior contents lost");
            let mut got: Vec<(u32, u32)> = out[1..].iter().map(|e| (e.key, e.value)).collect();
            got.sort_unstable();
            let expect: Vec<(u32, u32)> = (1..=100u32).map(|k| (k, k * 3)).collect();
            assert_eq!(
                got, expect,
                "shards = {shards}: export must cover all shards"
            );
        }
    }

    #[test]
    fn within_batch_gets_see_puts_and_deletes() {
        let server: KvServer = KvServer::new(4, 6);
        let batch = [
            KvOp::Get { key: 5 }, // sub-phase order: still a hit
            KvOp::Put { key: 5, val: 50 },
            KvOp::Put { key: 6, val: 60 },
            KvOp::Del { key: 6 }, // put+del in one batch → absent
            KvOp::Get { key: 6 },
        ];
        let r = server.apply_batch(&batch);
        assert_eq!(r[0], resp_hit(50), "get sees same-batch put");
        assert_eq!(r[1], RESP_PUT_ACK);
        assert_eq!(r[4], RESP_MISS, "get sees same-batch delete");
    }

    #[test]
    fn combining_policy_resolves_duplicates() {
        use phc_core::entry::AddValues;
        let server: KvServer<AddValues> = KvServer::new(2, 6);
        let batch = [
            KvOp::Put { key: 9, val: 3 },
            KvOp::Put { key: 9, val: 4 },
            KvOp::Get { key: 9 },
        ];
        let r = server.apply_batch(&batch);
        assert_eq!(r[2], resp_hit(7), "AddValues combines duplicate puts");
    }

    #[test]
    fn stats_count_ops() {
        let server: KvServer = KvServer::new(4, 6);
        let ops = [
            KvOp::Put { key: 1, val: 1 },
            KvOp::Put { key: 2, val: 2 },
            KvOp::Get { key: 1 },
            KvOp::Get { key: 99 },
            KvOp::Del { key: 2 },
        ];
        server.apply_batch(&ops);
        let stats = server.shard_stats();
        let total: u64 = stats.iter().map(|s| s.ops()).sum();
        assert_eq!(total, 5);
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.puts).sum::<u64>(), 2);
        assert_eq!(stats.iter().map(|s| s.dels).sum::<u64>(), 1);
    }

    #[test]
    fn per_op_path_matches_batch_of_one() {
        let server_a: KvServer = KvServer::new(4, 6);
        let server_b: KvServer = KvServer::new(4, 6);
        let ops: Vec<KvOp> = (1..=200u32)
            .map(|i| match i % 3 {
                0 => KvOp::Put {
                    key: i % 31 + 1,
                    val: i,
                },
                1 => KvOp::Get { key: i % 31 + 1 },
                _ => KvOp::Del { key: i % 61 + 1 },
            })
            .collect();
        let ra: Vec<u64> = ops.iter().map(|&op| server_a.apply_op(op)).collect();
        let rb = server_b.apply_log(&ops, 1);
        assert_eq!(ra, rb, "batch=1 must equal the per-op path");
    }

    /// A small mixed log with heavy key reuse, so puts, deletes, and
    /// gets all land on overlapping keys within and across batches.
    fn mixed_log(n: u32) -> Vec<KvOp> {
        (0..n)
            .map(|i| {
                let key = i.wrapping_mul(2654435761) % 97 + 1;
                match i % 3 {
                    0 => KvOp::Put { key, val: i },
                    1 => KvOp::Get { key },
                    _ => KvOp::Del { key },
                }
            })
            .collect()
    }

    #[test]
    fn fc_mode_roundtrip() {
        for shards in [1, 2, 8] {
            let server: FcKvServer = FcKvServer::new(shards, 6);
            ops_roundtrip(&server);
        }
    }

    #[test]
    fn fc_mode_matches_rooms_mode_byte_for_byte() {
        let log = mixed_log(3000);
        for shards in [1, 4] {
            for batch in [1, 64, 512] {
                let rooms: KvServer = KvServer::new(shards, 6);
                let fc: FcKvServer = FcKvServer::new(shards, 6);
                let ra = rooms.apply_log(&log, batch);
                let rb = fc.apply_log(&log, batch);
                assert_eq!(
                    response_log_bytes(&ra),
                    response_log_bytes(&rb),
                    "shards={shards} batch={batch}"
                );
                assert_eq!(
                    rooms.quiescent_snapshots(),
                    fc.quiescent_snapshots(),
                    "canonical shard layouts must agree (shards={shards} batch={batch})"
                );
            }
        }
    }

    #[test]
    fn mode_labels() {
        assert_eq!(KvServer::<KeepMin>::mode(), "rooms");
        assert_eq!(FcKvServer::<KeepMin>::mode(), "fc");
    }

    #[test]
    fn response_hash_is_stable() {
        let resps = [RESP_PUT_ACK, resp_hit(7), RESP_MISS];
        assert_eq!(response_log_hash(&resps), response_log_hash(&resps));
        assert_ne!(
            response_log_hash(&resps),
            response_log_hash(&[RESP_PUT_ACK, resp_hit(8), RESP_MISS])
        );
        assert_eq!(response_log_bytes(&resps).len(), 24);
    }
}
