//! Instructions: an opcode plus validated operands.

use crate::opcode::{Opcode, OperandSlot};
use crate::reg::{Reg, VReg};
use crate::IsaError;
use std::fmt;

/// One operand of an [`Instruction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An integer register.
    Reg(Reg),
    /// A vector register.
    VReg(VReg),
    /// An immediate value (stored as the raw 64-bit pattern for `MOVI`-style
    /// initializers; interpreted as a signed offset for memory instructions).
    Imm(i64),
    /// A forward branch distance in instructions (1 = the next instruction).
    Target(u8),
}

impl Operand {
    /// Whether this operand can occupy the given slot kind.
    pub fn fits(self, slot: OperandSlot) -> bool {
        matches!(
            (self, slot),
            (Operand::Reg(_), OperandSlot::IntDst)
                | (Operand::Reg(_), OperandSlot::IntSrc)
                | (Operand::VReg(_), OperandSlot::VecDst)
                | (Operand::VReg(_), OperandSlot::VecSrc)
                | (Operand::Imm(_), OperandSlot::Imm)
                | (Operand::Target(_), OperandSlot::BranchTarget)
        )
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::VReg(v) => write!(f, "{v}"),
            Operand::Imm(i) => {
                // Large bit patterns read better in hex (register
                // initializers like 0xAAAA... checkerboards).
                if *i > 0xFFFF || *i < -0xFFFF {
                    write!(f, "#0x{:X}", *i as u64)
                } else {
                    write!(f, "#{i}")
                }
            }
            Operand::Target(t) => write!(f, "#{t}"),
        }
    }
}

/// A fully-instantiated instruction: opcode plus operands, held inline.
///
/// Register indices, immediates and the branch distance live in fixed
/// fields, so an instruction is `Copy`, at most 24 bytes, and building,
/// cloning or executing one never touches the heap. Instances are
/// guaranteed (by [`Instruction::new`]) to have operand kinds matching the
/// opcode's [`slots`](Opcode::slots); [`operands`](Instruction::operands)
/// recomputes the operand list from the inline fields.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_isa::IsaError> {
/// use gest_isa::{Instruction, Opcode, Operand, Reg};
/// let add = Instruction::new(
///     Opcode::Add,
///     vec![
///         Operand::Reg(Reg::new(1)?),
///         Operand::Reg(Reg::new(2)?),
///         Operand::Reg(Reg::new(3)?),
///     ],
/// )?;
/// assert_eq!(add.to_string(), "ADD x1, x2, x3");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    pub(crate) opcode: Opcode,
    /// Register index of each operand position (integer or vector, as the
    /// opcode's slot says); 0 for non-register positions.
    pub(crate) regs: [u8; 4],
    /// Immediate operands in signature order; unused entries are 0.
    pub(crate) imms: [i64; 2],
    /// Forward branch distance (branches only; 0 otherwise).
    pub(crate) target: u8,
}

/// Which entry of [`Instruction::imms`] holds the immediate at operand
/// position `index`: the number of immediate slots before it.
fn imm_index(opcode: Opcode, index: usize) -> usize {
    opcode.slots()[..index]
        .iter()
        .filter(|&&slot| slot == OperandSlot::Imm)
        .count()
}

impl Instruction {
    /// Creates an instruction, validating operand count and kinds.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadOperands`] if the operands do not match the
    /// opcode's signature.
    pub fn new(opcode: Opcode, operands: Vec<Operand>) -> Result<Instruction, IsaError> {
        Instruction::from_operands(opcode, &operands)
    }

    /// [`new`](Self::new) from borrowed operands, so callers can build
    /// instructions without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadOperands`] if the operands do not match the
    /// opcode's signature.
    pub fn from_operands(opcode: Opcode, operands: &[Operand]) -> Result<Instruction, IsaError> {
        let slots = opcode.slots();
        if operands.len() != slots.len() {
            return Err(IsaError::BadOperands {
                opcode,
                message: format!("expected {} operands, got {}", slots.len(), operands.len()),
            });
        }
        let mut instr = Instruction {
            opcode,
            ..Instruction::nop()
        };
        for (index, &operand) in operands.iter().enumerate() {
            instr.set_operand(index, operand)?;
        }
        Ok(instr)
    }

    /// Shorthand for a `NOP`.
    pub fn nop() -> Instruction {
        Instruction {
            opcode: Opcode::Nop,
            regs: [0; 4],
            imms: [0; 2],
            target: 0,
        }
    }

    /// The instruction's opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The operands in signature order, computed from the inline fields
    /// without allocating.
    pub fn operands(&self) -> impl ExactSizeIterator<Item = Operand> + '_ {
        (0..self.opcode.slots().len()).map(|index| self.operand(index))
    }

    /// The operand at `index`, which must be within the signature.
    fn operand(&self, index: usize) -> Operand {
        let reg = self.regs[index];
        match self.opcode.slots()[index] {
            OperandSlot::IntDst | OperandSlot::IntSrc => Operand::Reg(Reg(reg)),
            OperandSlot::VecDst | OperandSlot::VecSrc => Operand::VReg(VReg(reg)),
            OperandSlot::Imm => Operand::Imm(self.imms[imm_index(self.opcode, index)]),
            OperandSlot::BranchTarget => Operand::Target(self.target),
        }
    }

    /// Replaces the operand at `index`, revalidating its kind.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadOperands`] if `index` is out of range or the
    /// new operand does not fit the slot.
    pub fn set_operand(&mut self, index: usize, operand: Operand) -> Result<(), IsaError> {
        let slot = *self
            .opcode
            .slots()
            .get(index)
            .ok_or_else(|| IsaError::BadOperands {
                opcode: self.opcode,
                message: format!("operand index {index} out of range"),
            })?;
        if !operand.fits(slot) {
            return Err(IsaError::BadOperands {
                opcode: self.opcode,
                message: format!("operand {} must be a {}", index + 1, slot.describe()),
            });
        }
        match operand {
            Operand::Reg(r) => self.regs[index] = r.index(),
            Operand::VReg(v) => self.regs[index] = v.index(),
            Operand::Imm(value) => self.imms[imm_index(self.opcode, index)] = value,
            Operand::Target(t) => self.target = t,
        }
        Ok(())
    }

    /// Register indices of the operand positions whose slot is `wanted`.
    fn slot_indices(&self, wanted: OperandSlot) -> impl Iterator<Item = u8> + '_ {
        self.opcode
            .slots()
            .iter()
            .zip(self.regs)
            .filter_map(move |(&slot, reg)| (slot == wanted).then_some(reg))
    }

    /// Integer registers written by this instruction.
    pub fn int_dsts(&self) -> impl Iterator<Item = Reg> + '_ {
        self.slot_indices(OperandSlot::IntDst).map(Reg)
    }

    /// Integer registers read by this instruction.
    pub fn int_srcs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.slot_indices(OperandSlot::IntSrc).map(Reg)
    }

    /// Vector registers written by this instruction.
    pub fn vec_dsts(&self) -> impl Iterator<Item = VReg> + '_ {
        self.slot_indices(OperandSlot::VecDst).map(VReg)
    }

    /// Vector registers read by this instruction.
    pub fn vec_srcs(&self) -> impl Iterator<Item = VReg> + '_ {
        self.slot_indices(OperandSlot::VecSrc).map(VReg)
    }

    /// The branch distance for branch instructions, if any.
    pub fn branch_target(&self) -> Option<u8> {
        self.opcode.is_branch().then_some(self.target)
    }

    /// Renders the instruction using a custom format string.
    ///
    /// The placeholders `op1`, `op2`, … are replaced by the corresponding
    /// operands, mirroring the paper's `format="LDR op1,[op2,#op3]"`
    /// configuration attribute. Placeholders are substituted
    /// highest-index-first so `op12` is not clobbered by `op1`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), gest_isa::IsaError> {
    /// use gest_isa::{asm, Instruction};
    /// let ldr = asm::parse_line("LDR x1, [x2, #8]")
    ///     .map_err(|e| gest_isa::IsaError::Config(e.to_string()))?
    ///     .unwrap();
    /// assert_eq!(ldr.render_with("load op1 from op2+op3"), "load x1 from x2+#8");
    /// # Ok(())
    /// # }
    /// ```
    pub fn render_with(&self, format: &str) -> String {
        let mut out = format.to_owned();
        for index in (0..self.opcode.slots().len()).rev() {
            let placeholder = format!("op{}", index + 1);
            let value = self.operand(index).to_string();
            out = out.replace(&placeholder, &value);
        }
        out
    }
}

impl fmt::Display for Instruction {
    /// Renders in canonical assembler syntax (what the assembler parses).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode.mnemonic())?;
        let op = |index| self.operand(index);
        match self.opcode {
            // Memory instructions use bracketed address syntax.
            Opcode::Ldr | Opcode::Str | Opcode::Vldr | Opcode::Vstr => {
                write!(f, " {}, [{}, {}]", op(0), op(1), op(2))
            }
            Opcode::Ldp | Opcode::Stp => {
                write!(f, " {}, {}, [{}, {}]", op(0), op(1), op(2), op(3))
            }
            _ => {
                for (i, op) in self.operands().enumerate() {
                    if i == 0 {
                        write!(f, " {op}")?;
                    } else {
                        write!(f, ", {op}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(i: u8) -> Operand {
        Operand::Reg(Reg::new(i).unwrap())
    }

    fn vreg(i: u8) -> Operand {
        Operand::VReg(VReg::new(i).unwrap())
    }

    #[test]
    fn wrong_arity_rejected() {
        let err = Instruction::new(Opcode::Add, vec![reg(1), reg(2)]).unwrap_err();
        assert!(matches!(err, IsaError::BadOperands { .. }));
    }

    #[test]
    fn wrong_kind_rejected() {
        let err = Instruction::new(Opcode::Add, vec![reg(1), reg(2), vreg(3)]).unwrap_err();
        assert!(matches!(err, IsaError::BadOperands { .. }));
    }

    #[test]
    fn display_mem_syntax() {
        let ldr = Instruction::new(Opcode::Ldr, vec![reg(1), reg(10), Operand::Imm(8)]).unwrap();
        assert_eq!(ldr.to_string(), "LDR x1, [x10, #8]");
        let stp =
            Instruction::new(Opcode::Stp, vec![reg(1), reg(2), reg(10), Operand::Imm(16)]).unwrap();
        assert_eq!(stp.to_string(), "STP x1, x2, [x10, #16]");
    }

    #[test]
    fn display_branch_syntax() {
        let cbnz = Instruction::new(Opcode::Cbnz, vec![reg(4), Operand::Target(2)]).unwrap();
        assert_eq!(cbnz.to_string(), "CBNZ x4, #2");
    }

    #[test]
    fn display_large_imm_in_hex() {
        let movi = Instruction::new(
            Opcode::Movi,
            vec![reg(0), Operand::Imm(0xAAAA_AAAA_AAAA_AAAAu64 as i64)],
        )
        .unwrap();
        assert_eq!(movi.to_string(), "MOVI x0, #0xAAAAAAAAAAAAAAAA");
    }

    #[test]
    fn dst_src_queries() {
        let mla = Instruction::new(Opcode::Mla, vec![reg(1), reg(2), reg(3), reg(4)]).unwrap();
        assert_eq!(mla.int_dsts().count(), 1);
        assert_eq!(mla.int_srcs().count(), 3);
        let ldp =
            Instruction::new(Opcode::Ldp, vec![reg(1), reg(2), reg(10), Operand::Imm(0)]).unwrap();
        assert_eq!(ldp.int_dsts().count(), 2);
        assert_eq!(ldp.int_srcs().count(), 1);
    }

    #[test]
    fn set_operand_validates() {
        let mut add = Instruction::new(Opcode::Add, vec![reg(1), reg(2), reg(3)]).unwrap();
        add.set_operand(2, reg(5)).unwrap();
        assert_eq!(add.to_string(), "ADD x1, x2, x5");
        assert!(add.set_operand(2, vreg(0)).is_err());
        assert!(add.set_operand(9, reg(0)).is_err());
    }

    #[test]
    fn render_with_many_placeholders() {
        let mla = Instruction::new(Opcode::Mla, vec![reg(1), reg(2), reg(3), reg(4)]).unwrap();
        assert_eq!(mla.render_with("op1 = op2*op3 + op4"), "x1 = x2*x3 + x4");
    }

    #[test]
    fn branch_target_accessor() {
        let b = Instruction::new(Opcode::B, vec![Operand::Target(1)]).unwrap();
        assert_eq!(b.branch_target(), Some(1));
        assert_eq!(Instruction::nop().branch_target(), None);
    }
}
