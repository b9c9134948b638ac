//! A small length-checked binary codec for persisting populations.
//!
//! The paper saves each GA population to "a separate binary file" that can
//! be reloaded as a seed population or post-processed for statistics
//! (§III.D). This module provides the primitive encoder/decoder those files
//! are built from: little-endian fixed-width integers, LEB128 varints,
//! length-prefixed strings/byte-slices, plus instruction and program
//! payloads. No external serialization dependency is used.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gest_isa::codec::{Decoder, Encoder};
//!
//! let mut enc = Encoder::new();
//! enc.u32(42).str("hello").varint(1 << 40);
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.u32()?, 42);
//! assert_eq!(dec.str()?, "hello");
//! assert_eq!(dec.varint()?, 1 << 40);
//! # Ok(())
//! # }
//! ```

use crate::def::Gene;
use crate::instruction::{Instruction, Operand};
use crate::opcode::Opcode;
use crate::program::{MemInit, Program};
use crate::reg::{Reg, VReg};
use crate::CodecError;

/// Maximum length accepted for any decoded string/sequence (1 MiB). Guards
/// against corrupted or hostile population files allocating unboundedly.
pub const MAX_LEN: u64 = 1 << 20;

/// Where an [`Encoder`] puts its bytes: a growing buffer by default, or
/// anything that consumes bytes in order, such as a running hash that
/// never needs the encoding materialized.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Lets an encoder append to a buffer its caller keeps and reuses.
impl<S: Sink + ?Sized> Sink for &mut S {
    fn put(&mut self, bytes: &[u8]) {
        (**self).put(bytes);
    }
}

/// Appends binary values to a [`Sink`], by default a growing buffer.
#[derive(Debug, Clone, Default)]
pub struct Encoder<S = Vec<u8>> {
    sink: S,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Consumes the encoder, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.sink
    }
}

impl<S: Sink> Encoder<S> {
    /// Creates an encoder that writes into `sink`.
    pub fn with_sink(sink: S) -> Encoder<S> {
        Encoder { sink }
    }

    /// Consumes the encoder, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.sink.put(&[v]);
        self
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.sink.put(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.sink.put(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sink.put(&v.to_le_bytes());
        self
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes an unsigned LEB128 varint.
    pub fn varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.sink.put(&[byte]);
                return self;
            }
            self.sink.put(&[byte | 0x80]);
        }
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.varint(v.len() as u64);
        self.sink.put(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Writes an instruction.
    pub fn instruction(&mut self, instr: &Instruction) -> &mut Self {
        let opcode_index = Opcode::ALL
            .iter()
            .position(|&op| op == instr.opcode())
            .expect("every opcode is in ALL") as u16;
        self.u16(opcode_index);
        // Operand count is implied by the opcode signature; encode only the
        // payloads, tagged for defence in depth.
        for operand in instr.operands() {
            match operand {
                Operand::Reg(r) => {
                    self.u8(0).u8(r.index());
                }
                Operand::VReg(v) => {
                    self.u8(1).u8(v.index());
                }
                Operand::Imm(i) => {
                    self.u8(2).u64(i as u64);
                }
                Operand::Target(t) => {
                    self.u8(3).u8(t);
                }
            }
        }
        self
    }

    /// Writes a sequence of instructions with a count prefix.
    pub fn instructions(&mut self, block: &[Instruction]) -> &mut Self {
        self.varint(block.len() as u64);
        for instr in block {
            self.instruction(instr);
        }
        self
    }

    /// Writes an individual's genes: a count, then per gene its
    /// definition index and its instruction block. Population files, the
    /// eval-cache key and the worker wire protocol all use this encoding.
    pub fn genes(&mut self, genes: &[Gene]) -> &mut Self {
        self.varint(genes.len() as u64);
        for gene in genes {
            self.varint(gene.def_index as u64);
            self.instructions(&gene.instrs);
        }
        self
    }

    /// Writes a whole program.
    pub fn program(&mut self, program: &Program) -> &mut Self {
        self.str(&program.name);
        match program.mem_init {
            MemInit::Zero => self.u8(0),
            MemInit::Fill(byte) => self.u8(1).u8(byte),
            MemInit::Checkerboard => self.u8(2),
        };
        self.instructions(&program.init);
        self.instructions(&program.body);
        self
    }
}

/// Reads binary values from a slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over the given bytes.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes remaining to be decoded.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all input has been consumed.
    pub fn is_finished(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd { decoding: what });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take(2, "u16")?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1, "varint")?[0];
            // The 10th byte (shift 63) may only contribute one bit; higher
            // bits would silently wrap.
            if shift == 63 && byte & 0x7E != 0 {
                return Err(CodecError::BadTag {
                    decoding: "varint",
                    tag: byte as u16,
                });
            }
            value |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError::BadTag {
            decoding: "varint",
            tag: 0x80,
        })
    }

    /// Checks that `count` entries of at least `min_entry_bytes` each fit
    /// in the remaining input: a count that cannot is truncation, caught
    /// before anything reserves capacity for it.
    fn fits(
        &self,
        count: u64,
        min_entry_bytes: u64,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        if count.saturating_mul(min_entry_bytes) > self.remaining() as u64 {
            return Err(CodecError::UnexpectedEnd { decoding: what });
        }
        Ok(count as usize)
    }

    fn len_prefix(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = self.varint()?;
        if len > MAX_LEN {
            return Err(CodecError::LengthOverflow {
                length: len,
                limit: MAX_LEN,
            });
        }
        self.fits(len, 1, what)
    }

    /// Reads a varint count of entries that each take at least
    /// `min_entry_bytes` of input, so a decoder can reserve for them
    /// safely: a count the remaining input cannot hold is
    /// [`CodecError::UnexpectedEnd`], however large it claims to be.
    pub fn count(&mut self, min_entry_bytes: u64, what: &'static str) -> Result<usize, CodecError> {
        let count = self.varint()?;
        self.fits(count, min_entry_bytes, what)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.len_prefix("bytes")?;
        self.take(len, "bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadString)
    }

    /// Reads an instruction.
    pub fn instruction(&mut self) -> Result<Instruction, CodecError> {
        let opcode_index = self.u16()?;
        let opcode = *Opcode::ALL
            .get(opcode_index as usize)
            .ok_or(CodecError::BadTag {
                decoding: "opcode",
                tag: opcode_index,
            })?;
        let arity = opcode.slots().len();
        let mut operands = [Operand::Target(0); 4];
        for operand in &mut operands[..arity] {
            let tag = self.u8()?;
            *operand = match tag {
                0 => Operand::Reg(Reg::new(self.u8()?)?),
                1 => Operand::VReg(VReg::new(self.u8()?)?),
                2 => Operand::Imm(self.u64()? as i64),
                3 => Operand::Target(self.u8()?),
                other => {
                    return Err(CodecError::BadTag {
                        decoding: "operand",
                        tag: other as u16,
                    })
                }
            };
        }
        Ok(Instruction::from_operands(opcode, &operands[..arity])?)
    }

    /// Reads a count-prefixed sequence of instructions.
    pub fn instructions(&mut self) -> Result<Vec<Instruction>, CodecError> {
        // Every instruction takes at least two bytes, so a count beyond the
        // remaining input is truncation, caught before reserving for it.
        let len = self.len_prefix("instructions")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.instruction()?);
        }
        Ok(out)
    }

    /// Reads one gene as [`Encoder::genes`] writes it: its definition
    /// index, then its instruction block, collected straight into the
    /// gene's storage (a one-part gene allocates nothing).
    pub fn gene(&mut self) -> Result<Gene, CodecError> {
        let def_index = self.varint()? as usize;
        let len = self.len_prefix("instructions")?;
        let instrs = (0..len)
            .map(|_| self.instruction())
            .collect::<Result<_, _>>()?;
        Ok(Gene { def_index, instrs })
    }

    /// Reads a whole program.
    pub fn program(&mut self) -> Result<Program, CodecError> {
        let name = self.str()?.to_owned();
        let mem_init = match self.u8()? {
            0 => MemInit::Zero,
            1 => MemInit::Fill(self.u8()?),
            2 => MemInit::Checkerboard,
            other => {
                return Err(CodecError::BadTag {
                    decoding: "mem_init",
                    tag: other as u16,
                })
            }
        };
        let init = self.instructions()?;
        let body = self.instructions()?;
        Ok(Program {
            name,
            init,
            body,
            mem_init,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    #[test]
    fn primitive_round_trip() {
        let mut enc = Encoder::new();
        enc.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 50)
            .f64(3.5)
            .varint(0)
            .varint(127)
            .varint(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 300);
        assert_eq!(dec.u32().unwrap(), 70_000);
        assert_eq!(dec.u64().unwrap(), 1 << 50);
        assert_eq!(dec.f64().unwrap(), 3.5);
        assert_eq!(dec.varint().unwrap(), 0);
        assert_eq!(dec.varint().unwrap(), 127);
        assert_eq!(dec.varint().unwrap(), u64::MAX);
        assert!(dec.is_finished());
    }

    #[test]
    fn string_round_trip() {
        let mut enc = Encoder::new();
        enc.str("población ✓");
        let bytes = enc.into_bytes();
        assert_eq!(Decoder::new(&bytes).str().unwrap(), "población ✓");
    }

    #[test]
    fn truncated_input_errors() {
        let mut enc = Encoder::new();
        enc.u64(123);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..4]);
        assert!(matches!(dec.u64(), Err(CodecError::UnexpectedEnd { .. })));
    }

    #[test]
    fn overlong_varint_rejected() {
        // 9 continuation bytes then a 10th byte with bits above 63.
        let mut bytes = vec![0xFFu8; 9];
        bytes.push(0x7F);
        assert!(matches!(
            Decoder::new(&bytes).varint(),
            Err(CodecError::BadTag {
                decoding: "varint",
                ..
            })
        ));
        // u64::MAX itself still decodes.
        let mut enc = Encoder::new();
        enc.varint(u64::MAX);
        assert_eq!(Decoder::new(&enc.into_bytes()).varint().unwrap(), u64::MAX);
    }

    #[test]
    fn length_bomb_rejected() {
        let mut enc = Encoder::new();
        enc.varint(MAX_LEN + 1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            dec.bytes(),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn length_exceeding_remaining_rejected() {
        let mut enc = Encoder::new();
        enc.varint(1000); // claims 1000 bytes follow; none do
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.bytes(), Err(CodecError::UnexpectedEnd { .. })));
    }

    #[test]
    fn count_beyond_remaining_input_rejected() {
        let mut enc = Encoder::new();
        enc.varint(3).u64(1).u64(2).u64(3);
        let bytes = enc.into_bytes();
        assert_eq!(Decoder::new(&bytes).count(8, "words").unwrap(), 3);
        assert!(matches!(
            Decoder::new(&bytes).count(9, "words"),
            Err(CodecError::UnexpectedEnd { decoding: "words" })
        ));
        let mut enc = Encoder::new();
        enc.varint(u64::MAX);
        assert!(matches!(
            Decoder::new(&enc.into_bytes()).count(1, "words"),
            Err(CodecError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn instruction_round_trip() {
        let block = asm::parse_block(
            "ADD x1, x2, x3\nLDR x4, [x10, #8]\nVFMLA v0, v1, v2\nCBNZ x5, #2\nMOVI x0, #0xAAAAAAAAAAAAAAAA\nNOP",
        )
        .unwrap();
        let mut enc = Encoder::new();
        enc.instructions(&block);
        let bytes = enc.into_bytes();
        let decoded = Decoder::new(&bytes).instructions().unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn program_round_trip() {
        let program = Program {
            name: "virus_1".into(),
            init: asm::parse_block("MOVI x10, #0").unwrap(),
            body: asm::parse_block("FMUL v0, v1, v2\nLDR x1, [x10, #0]").unwrap(),
            mem_init: MemInit::Checkerboard,
        };
        let mut enc = Encoder::new();
        enc.program(&program);
        let bytes = enc.into_bytes();
        assert_eq!(Decoder::new(&bytes).program().unwrap(), program);
    }

    #[test]
    fn bad_opcode_tag_rejected() {
        let mut enc = Encoder::new();
        enc.u16(9999);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).instruction(),
            Err(CodecError::BadTag {
                decoding: "opcode",
                ..
            })
        ));
    }

    #[test]
    fn bad_operand_tag_rejected() {
        let mut enc = Encoder::new();
        enc.u16(0); // ADD
        enc.u8(200); // bogus operand tag
        let bytes = enc.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).instruction(),
            Err(CodecError::BadTag {
                decoding: "operand",
                ..
            })
        ));
    }

    #[test]
    fn wrong_register_class_payload_rejected() {
        // Encode ADD with a vector register in slot 0: decoding must fail
        // domain validation.
        let mut enc = Encoder::new();
        enc.u16(0); // ADD
        enc.u8(1).u8(0); // VReg v0 where IntDst expected
        enc.u8(0).u8(1);
        enc.u8(0).u8(2);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).instruction(),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn out_of_range_register_rejected() {
        let mut enc = Encoder::new();
        enc.u16(0); // ADD
        enc.u8(0).u8(99); // x99 does not exist
        let bytes = enc.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).instruction(),
            Err(CodecError::Invalid(_))
        ));
    }
}
