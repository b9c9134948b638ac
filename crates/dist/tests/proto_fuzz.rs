//! Property-based fuzzing of the `GESTDST1` frame codec: arbitrary
//! bytes, truncations, and hostile length prefixes must come back as
//! clean `DistError`s — never a panic, never an allocation sized by
//! attacker-controlled lengths.

use gest_dist::{DistError, Frame, MAX_FRAME};
use gest_isa::{Gene, Instruction, Opcode, Operand, OperandSlot, Reg, VReg};
use proptest::prelude::*;
use std::io::Cursor;

/// Strategy over valid instructions of every opcode.
fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    (
        0..Opcode::ALL.len(),
        prop::collection::vec(any::<u8>(), 4),
        any::<i64>(),
        any::<u8>(),
    )
        .prop_map(|(op_index, regs, imm, target)| {
            let opcode = Opcode::ALL[op_index];
            let operands: Vec<Operand> = opcode
                .slots()
                .iter()
                .zip(&regs)
                .map(|(&slot, &reg)| match slot {
                    OperandSlot::IntDst | OperandSlot::IntSrc => {
                        Operand::Reg(Reg::new(reg % 16).unwrap())
                    }
                    OperandSlot::VecDst | OperandSlot::VecSrc => {
                        Operand::VReg(VReg::new(reg % 16).unwrap())
                    }
                    OperandSlot::Imm => Operand::Imm(imm),
                    OperandSlot::BranchTarget => Operand::Target(target),
                })
                .collect();
            Instruction::new(opcode, operands).expect("operands fit by construction")
        })
}

/// Strategy over genes: one to three instructions under a definition
/// index, as the population codec's fuzzer draws them.
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

/// Strategy over well-formed frames, for mutation-based cases: a raw
/// tuple of randomness mapped onto every frame kind, with both outcomes
/// of the result frame.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        0u8..10,
        any::<u64>(),
        any::<u64>(),
        "[ -~]{0,48}",
        prop::collection::vec(any::<f64>(), 0..8),
        prop::collection::vec(gene_strategy(), 0..6),
    )
        .prop_map(
            |(kind, number, measure_us, text, measurements, genes)| match kind {
                0 => Frame::hello(),
                1 => Frame::Hello {
                    version: number as u32,
                },
                2 => Frame::Config { xml: text },
                3 => Frame::ConfigAck {
                    fingerprint: number,
                    host: text,
                },
                4 => Frame::EvalRequest {
                    generation: measure_us as u32,
                    candidate: number,
                    genes,
                },
                5 => Frame::EvalResult {
                    candidate: number,
                    outcome: Ok(measurements),
                    measure_us,
                },
                6 => Frame::EvalResult {
                    candidate: number,
                    outcome: Err(text),
                    measure_us,
                },
                7 => Frame::Heartbeat,
                8 => Frame::Shutdown,
                _ => Frame::Error { message: text },
            },
        )
}

proptest! {
    /// Total decoding: any byte soup is either a frame or a clean
    /// `DistError`. A panic fails the test by unwinding.
    #[test]
    fn arbitrary_payloads_never_panic(payload in prop::collection::vec(any::<u8>(), 0..512)) {
        match Frame::decode(&payload) {
            Ok(_) => {}
            Err(DistError::Protocol(_)) | Err(DistError::Io(_)) => {}
        }
    }

    /// The framed reader is just as total: arbitrary bytes on the wire
    /// (hostile length prefix included) decode or error cleanly.
    #[test]
    fn arbitrary_wire_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = gest_dist::proto::read_frame(&mut Cursor::new(&bytes));
    }

    /// Every truncation of a valid frame's wire bytes fails cleanly
    /// (either an Io unexpected-EOF from the reader or a Protocol error
    /// from the decoder) — and the full bytes round-trip exactly.
    #[test]
    fn truncations_of_valid_frames_error_cleanly(
        frame in frame_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        gest_dist::proto::write_frame(&mut wire, &frame).unwrap();
        let decoded = gest_dist::proto::read_frame(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(&decoded, &frame);

        let cut = (cut_seed % wire.len() as u64) as usize; // strict prefix
        prop_assert!(gest_dist::proto::read_frame(&mut Cursor::new(&wire[..cut])).is_err());
    }

    /// Single-byte corruption anywhere in the payload never panics; if
    /// the damaged bytes still decode, they decode to *some* frame
    /// without unbounded allocation (bounded implicitly: the test
    /// completes).
    #[test]
    fn bit_flips_in_valid_frames_never_panic(
        frame in frame_strategy(),
        position_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut payload = frame.encode();
        let position = (position_seed % payload.len() as u64) as usize;
        payload[position] ^= mask;
        let _ = Frame::decode(&payload);
    }

    /// Length prefixes above MAX_FRAME are rejected before any payload
    /// allocation — even when the declared length is absurd, the reader
    /// must return a protocol error without trying to read (or reserve)
    /// that many bytes.
    #[test]
    fn oversized_length_prefixes_are_rejected(extra in 1u32..=u32::MAX - MAX_FRAME) {
        let len = MAX_FRAME + extra;
        let mut wire = Vec::from(len.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = gest_dist::proto::read_frame(&mut Cursor::new(&wire)).unwrap_err();
        prop_assert!(matches!(err, DistError::Protocol(ref m) if m.contains("length")), "{}", err);
    }

    /// Zero-length frames are equally invalid.
    #[test]
    fn zero_length_frames_are_rejected(tail in prop::collection::vec(any::<u8>(), 0..8)) {
        let mut wire = Vec::from(0u32.to_le_bytes());
        wire.extend_from_slice(&tail);
        let err = gest_dist::proto::read_frame(&mut Cursor::new(&wire)).unwrap_err();
        prop_assert!(matches!(err, DistError::Protocol(_)), "{}", err);
    }
}
