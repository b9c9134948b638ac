//! Memory footprint of the eval cache. A node holds its entry inline: the
//! measurements (every shipped plug-in has three) and the simulator's
//! fixed-size stat export live in the slab node itself, so filling a
//! cache costs the slab and the key map and no heap block per entry. An
//! untraced hit copies the measurements out with one allocation.

use gest_core::{EvalCache, EvalKey};
use gest_sim::{CacheStats, RunResult, VoltageStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations and the bytes live on the
/// current thread (so tests running in parallel do not see each other's).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn record(allocations: usize, bytes: isize) {
    ALLOCATIONS.with(|count| count.set(count.get() + allocations));
    LIVE_BYTES.with(|live| live.set(live.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the heap bytes it left live.
fn live_bytes<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE_BYTES.with(Cell::get);
    let value = f();
    (value, LIVE_BYTES.with(Cell::get) - before)
}

const FP: u64 = 0x5eed;

/// Entries filled per measurement.
const ENTRIES: u64 = 10_000;

/// Live heap bytes per entry of this test's fill under the layout that
/// kept the measurements in a `Vec` and the detail as a heap
/// `Vec<(&str, f64)>` built by `RunResult::metric_kv` (26 pairs of
/// capacity for 16 stats).
const VEC_LAYOUT_BYTES_PER_ENTRY: f64 = 911.8;

fn key(i: u64) -> EvalKey {
    EvalKey {
        config_fp: FP,
        genes_hash: u128::from(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) << 64 | u128::from(i),
    }
}

/// A run on a machine with a PDN: the full 16-stat export.
fn pdn_result() -> RunResult {
    RunResult {
        name: "probe".into(),
        cycles: 6_000,
        instructions: 9_100,
        ipc: 1.52,
        energy_j: 3.1e-6,
        avg_power_w: 9.8,
        chip_power_w: 41.2,
        peak_power_w: 12.4,
        temperature_c: 71.5,
        steady_temp_c: 72.0,
        l1: CacheStats {
            hits: 2_400,
            misses: 31,
        },
        branch_accuracy: 0.97,
        voltage: Some(VoltageStats {
            nominal_v: 1.4,
            min_v: 1.31,
            max_v: 1.44,
        }),
        class_counts: [0; 6],
    }
}

/// A cache of `ENTRIES` real-shaped entries: three measurements and the
/// full simulator detail, as the runner stores them.
fn filled() -> EvalCache {
    let detail = pdn_result().metrics();
    assert_eq!(detail.len(), 16);
    let cache = EvalCache::new(1 << 30, FP);
    for i in 0..ENTRIES {
        let measurements = [i as f64, 9.8, 71.5];
        cache.insert_measured(key(i), &measurements, Some(detail));
    }
    cache
}

#[test]
fn an_entry_costs_at_most_half_the_heap_of_the_vec_layout() {
    let (cache, live) = live_bytes(filled);
    let per_entry = live as f64 / ENTRIES as f64;
    println!("live heap bytes per entry: {per_entry:.1}");
    assert_eq!(cache.stats().entries, ENTRIES as usize);
    assert!(
        per_entry * 2.0 <= VEC_LAYOUT_BYTES_PER_ENTRY,
        "{per_entry:.1} bytes per entry, against {VEC_LAYOUT_BYTES_PER_ENTRY} for the Vec layout"
    );
}

#[test]
fn the_charge_is_unchanged_and_covers_the_heap_held() {
    let (cache, live) = live_bytes(filled);
    // 3 measurements × 8 + 16 stats × (8 + 16) + 96 bytes of overhead.
    let charge = 3 * 8 + 16 * 24 + 96;
    assert_eq!(cache.stats().bytes, charge * ENTRIES as usize);
    assert!(live <= cache.stats().bytes as isize, "{live} live bytes");
}

#[test]
fn an_untraced_hit_allocates_once_for_its_vector() {
    let cache = filled();
    let (hit, count) = allocations(|| cache.measurements(&key(7)));
    assert_eq!(hit, Some(vec![7.0, 9.8, 71.5]));
    assert_eq!(count, 1, "one allocation: the returned vector");
    let (miss, count) = allocations(|| cache.measurements(&key(ENTRIES)));
    assert_eq!((miss, count), (None, 0));
}
