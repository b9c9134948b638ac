//! Property tests for the incremental memory content hash.
//!
//! Random init blocks and random sequences of `STR`/`STP`/`VSTR`/`LDR` run
//! on small states. Afterwards the incrementally maintained
//! `ArchState::mem_hash` must equal a forced full rescan, and states with
//! equal memory images must hash equal whatever their write history.

use gest_isa::{ArchState, Instruction, MemInit, Opcode, Operand, Program, Reg, VReg};
use proptest::prelude::*;

fn reg(index: u8) -> Operand {
    Operand::Reg(Reg::new(index % 16).unwrap())
}

fn vreg(index: u8) -> Operand {
    Operand::VReg(VReg::new(index % 16).unwrap())
}

/// A register value: zero (so stores clear words), the fill pattern's
/// complement, or raw random bits.
fn value((kind, bits): (u8, u64)) -> i64 {
    match kind {
        0 => 0,
        1 => !Program::CHECKERBOARD as i64,
        _ => bits as i64,
    }
}

/// An init block setting every integer and vector register.
fn init_strategy() -> impl Strategy<Value = Vec<Instruction>> {
    prop::collection::vec((0u8..4, any::<u64>()), 48).prop_map(|values| {
        let mut values = values.into_iter().map(value);
        let mut init = Vec::new();
        for r in 0..16 {
            let imm = Operand::Imm(values.next().unwrap());
            init.push(Instruction::new(Opcode::Movi, vec![reg(r), imm]).unwrap());
        }
        for v in 0..16 {
            let lanes = vec![
                vreg(v),
                Operand::Imm(values.next().unwrap()),
                Operand::Imm(values.next().unwrap()),
            ];
            init.push(Instruction::new(Opcode::Vmovi, lanes).unwrap());
        }
        init
    })
}

/// One memory instruction at an arbitrary (wrapped, aligned) address.
fn access_strategy() -> impl Strategy<Value = Instruction> {
    (0u8..4, any::<u8>(), any::<u8>(), any::<u8>(), -600i64..600).prop_map(
        |(kind, a, b, base, offset)| {
            let (opcode, operands) = match kind {
                0 => (Opcode::Str, vec![reg(a), reg(base), Operand::Imm(offset)]),
                1 => (
                    Opcode::Stp,
                    vec![reg(a), reg(b), reg(base), Operand::Imm(offset)],
                ),
                2 => (Opcode::Vstr, vec![vreg(a), reg(base), Operand::Imm(offset)]),
                _ => (Opcode::Ldr, vec![reg(a), reg(base), Operand::Imm(offset)]),
            };
            Instruction::new(opcode, operands).unwrap()
        },
    )
}

fn program_strategy() -> impl Strategy<Value = (usize, Program)> {
    (
        0usize..4,
        0u8..3,
        any::<u8>(),
        init_strategy(),
        prop::collection::vec(access_strategy(), 1..40),
    )
        .prop_map(|(size, fill, byte, init, body)| {
            let mem_init = match fill {
                0 => MemInit::Zero,
                1 => MemInit::Checkerboard,
                _ => MemInit::Fill(byte),
            };
            let program = Program {
                name: "mem-hash".into(),
                init,
                body,
                mem_init,
            };
            (64 << size, program)
        })
}

/// Runs the program's body once against `state`.
fn run_body(program: &Program, state: &mut ArchState) {
    for instr in &program.body {
        instr.apply(state);
    }
}

/// The hash a full rescan of the current image produces.
fn rescanned(state: &ArchState) -> u64 {
    let mut copy = ArchState::new(state.mem_size());
    copy.mem_mut().copy_from_slice(state.mem());
    copy.mem_hash()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_hash_equals_a_forced_rescan((mem_size, program) in program_strategy()) {
        let mut state = ArchState::new(mem_size);
        program.apply_init(&mut state);
        for _ in 0..3 {
            run_body(&program, &mut state);
            let incremental = state.mem_hash();
            prop_assert_eq!(incremental, rescanned(&state));
            // Marking the image dirty forces this state's own rescan.
            let _ = state.mem_mut();
            prop_assert_eq!(state.mem_hash(), incremental);
        }
    }

    #[test]
    fn equal_images_hash_equal_whatever_their_history(
        (mem_size, program) in program_strategy(),
    ) {
        let mut state = ArchState::new(mem_size);
        program.apply_init(&mut state);
        run_body(&program, &mut state);

        // Rebuild the same image from zero through stores alone, one
        // word at a time, in reverse order.
        let mut rebuilt = ArchState::new(mem_size);
        let base = Reg::new(10).unwrap();
        let value = Reg::new(1).unwrap();
        let store = Instruction::new(
            Opcode::Str,
            vec![Operand::Reg(value), Operand::Reg(base), Operand::Imm(0)],
        )
        .unwrap();
        for (index, word) in state.mem().chunks_exact(8).enumerate().rev() {
            rebuilt.set_reg(base, (index * 8) as u64);
            rebuilt.set_reg(value, u64::from_le_bytes(word.try_into().unwrap()));
            store.apply(&mut rebuilt);
        }
        prop_assert_eq!(rebuilt.mem(), state.mem());
        prop_assert_eq!(rebuilt.mem_hash(), state.mem_hash());
    }
}
