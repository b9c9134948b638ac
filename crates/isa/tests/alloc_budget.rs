//! Allocation budget of the instruction representation: operands live
//! inline, so copying an instruction never touches the heap and turning a
//! loop body into a program costs a fixed number of allocations however
//! long the body is. A one-part gene holds its instruction inline too, so
//! breeding a generation costs a fixed number of allocations per
//! individual however many genes it has. The decoders of persisted files
//! are held to a budget too: a count the input cannot hold is truncation,
//! rejected before any capacity is reserved for it.

use gest_core::{power_pool, Checkpoint, PoolGenetics, SavedIndividual, SavedPopulation};
use gest_ga::{EngineState, GaConfig, GaEngine, OpCounts, Population};
use gest_isa::codec::Encoder;
use gest_isa::{asm, CodecError, Gene, Instruction, Template};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// An instruction is a small plain value.
const _: () = assert!(std::mem::size_of::<Instruction>() <= 24);
const fn assert_copy<T: Copy>() {}
const _: () = assert_copy::<Instruction>();

// Holding a one-part gene's instruction inline does not grow the gene.
const _: () = assert!(std::mem::size_of::<Gene>() <= 32);

/// The system allocator, counting allocations and the bytes they request
/// on the current thread (so tests running in parallel do not see each
/// other's).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static REQUESTED_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
    REQUESTED_BYTES.with(|total| total.set(total.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
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

/// Runs `f` and returns its result with the bytes its allocations
/// requested.
fn requested_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED_BYTES.with(Cell::get);
    let value = f();
    (value, REQUESTED_BYTES.with(Cell::get) - before)
}

/// A loop body of `len` instructions cycling through every operand shape.
fn body(len: usize) -> Vec<Instruction> {
    let menu = asm::parse_block(
        "ADD x1, x2, x3\nLDP x4, x5, [x10, #16]\nVMOVI v1, #3, #-7\nCBNZ x4, #2\nVFMLA v0, v1, v2\nNOP",
    )
    .unwrap();
    menu.iter().copied().cycle().take(len).collect()
}

/// `Clone::clone` as generic code (a `Vec` or a population) calls it.
fn clone_of<T: Clone>(value: &T) -> T {
    value.clone()
}

#[test]
fn cloning_an_instruction_allocates_nothing() {
    let block = body(6);
    let (copies, count) = allocations(|| {
        let mut copies = [Instruction::nop(); 6];
        for (copy, instr) in copies.iter_mut().zip(&block) {
            *copy = clone_of(instr);
        }
        copies
    });
    assert_eq!(count, 0);
    assert_eq!(copies.as_slice(), block.as_slice());
}

#[test]
fn materialize_allocates_the_same_for_any_body_length() {
    let template = Template::default_stress();
    let short = body(10);
    let long = body(100);
    let (short_program, short_count) = allocations(|| template.materialize("candidate", short));
    let (long_program, long_count) = allocations(|| template.materialize("candidate", long));
    assert_eq!(short_program.body.len(), 10);
    assert_eq!(long_program.body.len(), 100);
    assert_eq!(
        short_count, long_count,
        "materialize must be O(1) allocations per candidate"
    );
}

#[test]
fn cloning_a_one_part_gene_allocates_nothing() {
    let gene = Gene {
        def_index: 3,
        instrs: body(1).into(),
    };
    let (copy, count) = allocations(|| clone_of(&gene));
    assert_eq!(count, 0);
    assert_eq!(copy, gene);
}

/// Allocations `GaEngine::next_generation` makes breeding one generation
/// of 20 individuals of `individual_size` one-part genes.
fn breeding_allocations(individual_size: usize) -> usize {
    let config = GaConfig {
        population_size: 20,
        individual_size,
        // Every mutation path runs many times.
        mutation_rate: 0.2,
        ..GaConfig::default()
    };
    let mut engine = GaEngine::new(config, PoolGenetics::new(Arc::new(power_pool())), 7);
    let seeded = engine.seed();
    let population = Population::evaluate(0, seeded, |genes| {
        let fitness = genes.iter().map(|gene| gene.def_index as f64).sum();
        (fitness, vec![fitness])
    });
    let (next, count) = allocations(|| engine.next_generation(&population));
    assert_eq!(next.len(), 20);
    assert!(next.iter().all(|c| c.genes.len() == individual_size));
    count
}

#[test]
fn breeding_allocates_the_same_for_any_individual_size() {
    assert_eq!(
        breeding_allocations(10),
        breeding_allocations(100),
        "breeding must be O(1) allocations per individual"
    );
}

#[test]
fn genes_hash_streams_without_allocating() {
    let genes: Vec<Gene> = (0..50)
        .map(|def_index| Gene {
            def_index,
            instrs: body(1 + def_index % 3).into(),
        })
        .collect();
    let (hash, count) = allocations(|| gest_core::genes_hash(&genes));
    assert_eq!(count, 0);
    assert_ne!(hash, 0);
}

/// What decoding a crafted input may request at most: a few KiB, however
/// large the counts it claims.
const DECODE_BUDGET: usize = 4 << 10;

/// `bytes` with its last `drop` bytes replaced by the varint `count` and
/// nothing after it.
fn with_trailing_count(mut bytes: Vec<u8>, drop: usize, count: u64) -> Vec<u8> {
    bytes.truncate(bytes.len() - drop);
    let mut enc = Encoder::new();
    enc.varint(count);
    bytes.extend_from_slice(&enc.into_bytes());
    bytes
}

#[test]
fn checkpoint_history_count_beyond_the_input_is_truncation() {
    let header = Checkpoint {
        config_fingerprint: 7,
        generation: 3,
        engine: EngineState {
            rng: [1, 2, 3, 4],
            next_id: 5,
            counts: OpCounts::default(),
        },
        history: Vec::new(),
        best: None,
    }
    .encode();
    // Drop the empty history count and the no-best flag: the header then
    // claims (1 << 20) - 1 generation summaries in a three-byte varint.
    let bytes = with_trailing_count(header, 2, (1 << 20) - 1);
    let (decoded, requested) = requested_bytes(|| Checkpoint::decode(&bytes));
    assert!(
        matches!(decoded, Err(CodecError::UnexpectedEnd { .. })),
        "{decoded:?}"
    );
    assert!(
        requested <= DECODE_BUDGET,
        "a {}-byte checkpoint requested {requested} bytes",
        bytes.len()
    );
}

#[test]
fn population_counts_beyond_the_input_are_truncation() {
    // An empty population whose individual count now claims 1 << 16.
    let empty = SavedPopulation {
        generation: 0,
        individuals: Vec::new(),
    }
    .encode();
    let many_individuals = with_trailing_count(empty, 1, 1 << 16);
    // One individual with no genes whose gene count now claims 1 << 12.
    let one = SavedPopulation {
        generation: 0,
        individuals: vec![SavedIndividual {
            id: 1,
            parents: (None, None),
            fitness: 0.5,
            measurements: Vec::new(),
            genes: Vec::new(),
        }],
    }
    .encode();
    let many_genes = with_trailing_count(one, 1, 1 << 12);
    for bytes in [many_individuals, many_genes] {
        let (decoded, requested) = requested_bytes(|| SavedPopulation::decode(&bytes));
        assert!(
            matches!(decoded, Err(CodecError::UnexpectedEnd { .. })),
            "{decoded:?}"
        );
        assert!(
            requested <= DECODE_BUDGET,
            "a {}-byte population file requested {requested} bytes",
            bytes.len()
        );
    }
}
