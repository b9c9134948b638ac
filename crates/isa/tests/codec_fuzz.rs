//! Property-based fuzzing of the population codec: the instruction
//! decoder, the `SavedPopulation` files built on it and the `GESTCKP1`
//! checkpoint manifests that embed a saved individual. Arbitrary bytes,
//! bit flips and truncations must come back as clean `CodecError`s —
//! never a panic — an operand of the wrong kind must still be rejected,
//! and encode → decode must be the identity over valid genes.

use gest_core::{Checkpoint, SavedIndividual, SavedPopulation};
use gest_ga::{EngineState, GenerationSummary, OpCounts};
use gest_isa::codec::{Decoder, Encoder};
use gest_isa::{CodecError, Gene, Instruction, IsaError, Opcode, Operand, OperandSlot, Reg, VReg};
use proptest::prelude::*;

/// An operand that fits `slot`, drawn from raw randomness.
fn operand_for(slot: OperandSlot, reg: u8, imm: i64, target: u8) -> Operand {
    match slot {
        OperandSlot::IntDst | OperandSlot::IntSrc => Operand::Reg(Reg::new(reg % 16).unwrap()),
        OperandSlot::VecDst | OperandSlot::VecSrc => Operand::VReg(VReg::new(reg % 16).unwrap()),
        OperandSlot::Imm => Operand::Imm(imm),
        OperandSlot::BranchTarget => Operand::Target(target),
    }
}

/// An operand of a kind that does *not* fit `slot`.
fn misfit_for(slot: OperandSlot, reg: u8, imm: i64) -> Operand {
    match slot {
        OperandSlot::IntDst | OperandSlot::IntSrc => Operand::VReg(VReg::new(reg % 16).unwrap()),
        OperandSlot::VecDst | OperandSlot::VecSrc | OperandSlot::BranchTarget => Operand::Imm(imm),
        OperandSlot::Imm => Operand::Reg(Reg::new(reg % 16).unwrap()),
    }
}

/// Strategy over valid instructions of every opcode.
fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    (
        0..Opcode::ALL.len(),
        prop::collection::vec(any::<u8>(), 4),
        any::<i64>(),
        any::<i64>(),
        any::<u8>(),
    )
        .prop_map(|(op_index, regs, imm0, imm1, target)| {
            let opcode = Opcode::ALL[op_index];
            let operands: Vec<Operand> = opcode
                .slots()
                .iter()
                .enumerate()
                .map(|(i, &slot)| operand_for(slot, regs[i], [imm0, imm1][i % 2], target))
                .collect();
            Instruction::new(opcode, operands).expect("operands fit by construction")
        })
}

/// Strategy over genes: one to three instructions under a definition
/// index, so both the inline one-part and the boxed multi-part storage
/// round-trip.
fn gene_strategy() -> impl Strategy<Value = Gene> {
    (
        0usize..1000,
        prop::collection::vec(instruction_strategy(), 1..4),
    )
        .prop_map(|(def_index, instrs)| Gene {
            def_index,
            instrs: instrs.into(),
        })
}

/// Strategy over saved individuals with finite fitness and measurements
/// (so `PartialEq` is a faithful round-trip check).
fn individual_strategy() -> impl Strategy<Value = SavedIndividual> {
    (
        any::<u64>(),
        any::<u64>(),
        -1e6f64..1e6,
        prop::collection::vec(-1e6f64..1e6, 0..4),
        prop::collection::vec(gene_strategy(), 0..6),
    )
        .prop_map(
            |(id, parent, fitness, measurements, genes)| SavedIndividual {
                id,
                parents: match parent % 3 {
                    0 => (None, None),
                    1 => (Some(parent >> 2), None),
                    _ => (Some(parent >> 2), Some(parent >> 3)),
                },
                fitness,
                measurements,
                genes,
            },
        )
}

/// Strategy over population files.
fn population_strategy() -> impl Strategy<Value = SavedPopulation> {
    (
        any::<u32>(),
        prop::collection::vec(individual_strategy(), 0..4),
    )
        .prop_map(|(generation, individuals)| SavedPopulation {
            generation,
            individuals,
        })
}

/// Strategy over checkpoint manifests, with and without a best
/// individual.
fn checkpoint_strategy() -> impl Strategy<Value = Checkpoint> {
    let summary = (any::<u32>(), -1e6f64..1e6, -1e6f64..1e6, any::<u64>()).prop_map(
        |(generation, best_fitness, mean_fitness, best_id)| GenerationSummary {
            generation,
            best_fitness,
            mean_fitness,
            best_id,
        },
    );
    (
        (any::<u64>(), any::<u32>()),
        (any::<[u64; 4]>(), any::<u64>(), any::<[u64; 5]>()),
        prop::collection::vec(summary, 0..4),
        prop::collection::vec(individual_strategy(), 0..2),
    )
        .prop_map(
            |((config_fingerprint, generation), (rng, next_id, counts), history, mut best)| {
                let [selections, crossovers, mutated_genes, elite_copies, random_genes] = counts;
                Checkpoint {
                    config_fingerprint,
                    generation,
                    engine: EngineState {
                        rng,
                        next_id,
                        counts: OpCounts {
                            selections,
                            crossovers,
                            mutated_genes,
                            elite_copies,
                            random_genes,
                        },
                    },
                    history,
                    best: best.pop(),
                }
            },
        )
}

fn encode_block(block: &[Instruction]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.instructions(block);
    enc.into_bytes()
}

/// Decodes every instruction-level form from `bytes`; only panics matter.
fn decode_everything(bytes: &[u8]) {
    let _ = Decoder::new(bytes).instruction();
    let _ = Decoder::new(bytes).instructions();
    let _ = Decoder::new(bytes).program();
    let _ = SavedPopulation::decode(bytes);
    let _ = Checkpoint::decode(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Total decoding: any byte soup is a value or a clean error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        decode_everything(&bytes);
    }

    /// The same, behind a valid population header, so the soup reaches the
    /// individual and instruction decoders instead of failing the magic.
    #[test]
    fn arbitrary_population_bodies_never_panic(body in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut bytes = SavedPopulation { generation: 0, individuals: Vec::new() }.encode();
        bytes.pop(); // the zero individual count
        bytes.extend_from_slice(&body);
        decode_everything(&bytes);
    }

    /// The same behind a valid checkpoint header, so the soup reaches the
    /// history and best-individual decoders.
    #[test]
    fn arbitrary_checkpoint_bodies_never_panic(body in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut bytes = Checkpoint {
            config_fingerprint: 0,
            generation: 0,
            engine: EngineState { rng: [0; 4], next_id: 0, counts: OpCounts::default() },
            history: Vec::new(),
            best: None,
        }
        .encode();
        bytes.truncate(bytes.len() - 2); // the empty history and the no-best flag
        bytes.extend_from_slice(&body);
        decode_everything(&bytes);
    }

    /// Encode → decode is the identity for instruction blocks, whole
    /// population files and checkpoint manifests, and re-encoding
    /// reproduces the bytes.
    #[test]
    fn valid_encodings_round_trip(
        block in prop::collection::vec(instruction_strategy(), 0..12),
        population in population_strategy(),
        checkpoint in checkpoint_strategy(),
    ) {
        let bytes = encode_block(&block);
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(&dec.instructions().unwrap(), &block);
        prop_assert!(dec.is_finished());

        let bytes = population.encode();
        let decoded = SavedPopulation::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &population);
        prop_assert_eq!(decoded.encode(), bytes);

        let bytes = checkpoint.encode();
        let decoded = Checkpoint::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &checkpoint);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Every strict prefix of a valid encoding fails cleanly.
    #[test]
    fn truncations_error_cleanly(
        block in prop::collection::vec(instruction_strategy(), 1..12),
        population in population_strategy(),
        checkpoint in checkpoint_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode_block(&block);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Decoder::new(&bytes[..cut]).instructions().is_err());

        let bytes = population.encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(SavedPopulation::decode(&bytes[..cut]).is_err());

        let bytes = checkpoint.encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
    }

    /// Corrupting any byte of a valid encoding never panics.
    #[test]
    fn bit_flips_never_panic(
        block in prop::collection::vec(instruction_strategy(), 1..12),
        population in population_strategy(),
        checkpoint in checkpoint_strategy(),
        position_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        for mut bytes in [encode_block(&block), population.encode(), checkpoint.encode()] {
            let position = (position_seed % bytes.len() as u64) as usize;
            bytes[position] ^= mask;
            decode_everything(&bytes);
        }
    }

    /// An operand of the wrong kind in any position is rejected, both by
    /// the constructor and by the decoder reading its encoding.
    #[test]
    fn wrong_operand_kinds_are_rejected(
        instr in instruction_strategy(),
        position_seed in any::<usize>(),
        reg in any::<u8>(),
        imm in any::<i64>(),
    ) {
        let slots = instr.opcode().slots();
        if slots.is_empty() {
            continue; // NOP has no position to corrupt
        }
        let position = position_seed % slots.len();
        let mut operands: Vec<Operand> = instr.operands().collect();
        operands[position] = misfit_for(slots[position], reg, imm);

        let built = Instruction::from_operands(instr.opcode(), &operands);
        prop_assert!(matches!(built, Err(IsaError::BadOperands { .. })), "{:?}", built);

        // Hand-encode with the codec's operand tags.
        let mut enc = Encoder::new();
        enc.u16(Opcode::ALL.iter().position(|&op| op == instr.opcode()).unwrap() as u16);
        for operand in operands {
            match operand {
                Operand::Reg(r) => enc.u8(0).u8(r.index()),
                Operand::VReg(v) => enc.u8(1).u8(v.index()),
                Operand::Imm(i) => enc.u8(2).u64(i as u64),
                Operand::Target(t) => enc.u8(3).u8(t),
            };
        }
        let bytes = enc.into_bytes();
        let decoded = Decoder::new(&bytes).instruction();
        prop_assert!(
            matches!(&decoded, Err(CodecError::Invalid(message)) if message.contains("must be a")),
            "{:?}",
            decoded
        );
    }
}
