//! Allocation budget of the instruction representation: operands live
//! inline, so copying an instruction never touches the heap and turning a
//! loop body into a program costs a fixed number of allocations however
//! long the body is.

use gest_isa::{asm, Gene, Instruction, Template};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// An instruction is a small plain value.
const _: () = assert!(std::mem::size_of::<Instruction>() <= 24);
const fn assert_copy<T: Copy>() {}
const _: () = assert_copy::<Instruction>();

/// The system allocator, counting allocations made on the current thread
/// (so tests running in parallel do not see each other's).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
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
fn genes_hash_streams_without_allocating() {
    let genes: Vec<Gene> = (0..50)
        .map(|def_index| Gene {
            def_index,
            instrs: body(1 + def_index % 3),
        })
        .collect();
    let (hash, count) = allocations(|| gest_core::genes_hash(&genes));
    assert_eq!(count, 0);
    assert_ne!(hash, 0);
}
