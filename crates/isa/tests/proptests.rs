//! Property-based tests over the ISA: random instructions must round-trip
//! through the assembler and the binary codec, and execution must never
//! panic or touch out-of-bounds memory.

use gest_isa::codec::{Decoder, Encoder};
use gest_isa::{asm, ArchState, Instruction, Opcode, Operand, Reg, VReg};
use proptest::prelude::*;

/// Strategy producing an arbitrary *valid* instruction: pick an opcode, then
/// fill each slot with a random in-range operand.
fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    (
        0..Opcode::ALL.len(),
        any::<[u8; 8]>(),
        any::<i64>(),
        1u8..=16,
    )
        .prop_map(|(op_index, reg_seeds, imm, target)| {
            let opcode = Opcode::ALL[op_index];
            let operands: Vec<Operand> = opcode
                .slots()
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    use gest_isa::OperandSlot as S;
                    let seed = reg_seeds[i % reg_seeds.len()] % 16;
                    match slot {
                        S::IntDst | S::IntSrc => Operand::Reg(Reg::new(seed).unwrap()),
                        S::VecDst | S::VecSrc => Operand::VReg(VReg::new(seed).unwrap()),
                        S::Imm => Operand::Imm(imm),
                        S::BranchTarget => Operand::Target(target),
                    }
                })
                .collect();
            Instruction::new(opcode, operands).expect("slots match by construction")
        })
}

proptest! {
    #[test]
    fn assembler_round_trip(instr in instruction_strategy()) {
        let text = instr.to_string();
        let parsed = asm::parse_line(&text).unwrap().expect("non-empty line");
        prop_assert_eq!(parsed, instr);
    }

    #[test]
    fn codec_round_trip(block in prop::collection::vec(instruction_strategy(), 0..64)) {
        let mut enc = Encoder::new();
        enc.instructions(&block);
        let bytes = enc.into_bytes();
        let decoded = Decoder::new(&bytes).instructions().unwrap();
        prop_assert_eq!(decoded, block);
    }

    #[test]
    fn execution_never_panics(
        block in prop::collection::vec(instruction_strategy(), 1..64),
        regs in prop::collection::vec(any::<u64>(), 16),
    ) {
        let mut state = ArchState::new(1 << 10);
        for (i, &v) in regs.iter().enumerate() {
            state.set_reg(Reg::new(i as u8).unwrap(), v);
        }
        // Execute the whole block several times; every instruction must
        // succeed, and every memory access must stay in bounds (the
        // ArchState would panic on OOB slice indexing otherwise).
        for _ in 0..4 {
            for instr in &block {
                let effect = instr.apply(&mut state);
                if let Some(access) = effect.mem {
                    prop_assert!(access.addr + access.width <= state.mem_size());
                }
            }
        }
    }

    #[test]
    fn fp_state_stays_finite(
        block in prop::collection::vec(instruction_strategy(), 1..48),
    ) {
        // Regardless of the instruction mix, scalar/SIMD FP results are
        // sanitized so register files never hold inf/NaN produced by an op.
        let mut state = ArchState::new(1 << 10);
        for i in 0..16u8 {
            state.set_vreg(VReg::new(i).unwrap(), [1.5f64.to_bits(), (-2.5f64).to_bits()]);
        }
        let fp_opcodes = [
            Opcode::Fadd, Opcode::Fsub, Opcode::Fmul, Opcode::Fmla, Opcode::Fdiv,
            Opcode::Fsqrt, Opcode::Vfadd, Opcode::Vfmul, Opcode::Vfmla,
        ];
        for _ in 0..8 {
            for instr in &block {
                if fp_opcodes.contains(&instr.opcode()) {
                    instr.apply(&mut state);
                    for dst in instr.vec_dsts() {
                        let lanes = state.vreg(dst);
                        prop_assert!(f64::from_bits(lanes[0]).is_finite());
                        prop_assert!(f64::from_bits(lanes[1]).is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn render_with_canonical_format_is_display(instr in instruction_strategy()) {
        // A format string reconstructed from the display form must render
        // identically (guards the opN substitution order).
        let display = instr.to_string();
        prop_assert_eq!(instr.render_with(&display), display.clone());
    }
}
