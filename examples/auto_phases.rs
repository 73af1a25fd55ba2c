//! The two "beyond the paper" conveniences: a growable deterministic
//! table (`ResizableTable`, implementing §4's resizing outline) and a
//! self-phasing table (`AutoPhaseGrowTable`, the room-synchronization
//! future work from §7, over the same growable table).
//!
//! ```text
//! cargo run --release --example auto_phases
//! ```

use phase_concurrent_hashing::tables::{AutoPhaseGrowTable, ResizableTable, U64Key};
use rayon::prelude::*;

fn main() {
    // --- ResizableTable: start tiny, grow deterministically. ---------
    let mut grow: ResizableTable<U64Key> = ResizableTable::new_pow2(4); // 16 cells!
    grow.insert_phase(|t| {
        (1..=100_000u64)
            .into_par_iter()
            .for_each(|k| t.insert(U64Key::new(k)));
    });
    println!(
        "ResizableTable grew from 16 to {} cells for {} keys (load {:.2})",
        grow.capacity(),
        grow.len(),
        grow.len() as f64 / grow.capacity() as f64
    );
    // Determinism survives growth: rebuild in a different order.
    let mut grow2: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
    grow2.insert_phase(|t| {
        (1..100_001usize)
            .into_par_iter()
            .rev()
            .for_each(|k| t.insert(U64Key::new(k as u64)));
    });
    assert_eq!(grow.snapshot(), grow2.snapshot());
    println!("identical layout from a reversed build, across ~13 doublings ✓");

    // --- AutoPhaseGrowTable: no phase discipline required. -----------
    let auto: AutoPhaseGrowTable<U64Key> = AutoPhaseGrowTable::new_pow2(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let auto = &auto;
            s.spawn(move || {
                // Threads freely interleave operation *types*; the room
                // synchronizer serializes types, not operations.
                for i in 0..5_000u64 {
                    let k = t * 10_000 + i + 1;
                    auto.insert(U64Key::new(k));
                    if i % 4 == 0 {
                        auto.delete(U64Key::new(k));
                    } else {
                        assert!(auto.find(U64Key::new(k)).is_some());
                    }
                }
            });
        }
    });
    assert_eq!(auto.len(), 4 * 3_750);
    println!(
        "AutoPhaseGrowTable survived 4 threads of mixed ops from a 16-cell seed: \
         {} keys remain in {} cells ✓",
        auto.elements().len(),
        auto.capacity()
    );
}
