//! Complete runnable programs: initialization plus a stress loop body.

use crate::instruction::Instruction;
use crate::semantics::{ArchState, Flow, CHECKERBOARD};
use std::fmt;

/// How the data-memory buffer is initialized before a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemInit {
    /// All zero bytes.
    #[default]
    Zero,
    /// A repeating byte value.
    Fill(u8),
    /// The `0xAA` checkerboard the paper's templates use to maximize bit
    /// switching on loads.
    Checkerboard,
}

impl MemInit {
    /// Applies the initialization to a state's memory buffer.
    pub fn apply(self, state: &mut ArchState) {
        state.fill_mem(self.fill_byte());
    }

    /// The repeating byte the initialization fills memory with. Two
    /// `MemInit`s with equal fill bytes produce identical images (and
    /// identical [`ArchState::mem_hash`] values) for equal buffer sizes.
    pub fn fill_byte(self) -> u8 {
        match self {
            MemInit::Zero => 0,
            MemInit::Fill(byte) => byte,
            MemInit::Checkerboard => 0xAA,
        }
    }
}

/// A runnable program: one-shot initialization code plus the loop body that
/// the simulator executes repeatedly.
///
/// This is the materialized form of a template with the GA individual
/// substituted for `#loop_code` (paper §III.B.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Display name (benchmark name or individual id).
    pub name: String,
    /// Register/memory initialization, executed once, straight-line.
    pub init: Vec<Instruction>,
    /// The loop body, executed repeatedly by the simulator.
    pub body: Vec<Instruction>,
    /// Memory-buffer initialization.
    pub mem_init: MemInit,
}

impl Program {
    /// Creates a program with empty init and the given body.
    pub fn from_body(name: impl Into<String>, body: Vec<Instruction>) -> Program {
        Program {
            name: name.into(),
            init: Vec::new(),
            body,
            mem_init: MemInit::Zero,
        }
    }

    /// Applies memory initialization and executes the init block against
    /// `state`. Branches in the init block are honoured (taken skips).
    pub fn apply_init(&self, state: &mut ArchState) {
        self.mem_init.apply(state);
        self.apply_init_instrs(state);
    }

    /// Executes just the init instruction stream, without the memory
    /// fill. Batched simulation applies [`MemInit`] itself (seeding a
    /// shared content hash for the fill pattern) and then calls this.
    pub fn apply_init_instrs(&self, state: &mut ArchState) {
        let mut pc = 0usize;
        while pc < self.init.len() {
            let effect = self.init[pc].apply(state);
            pc += 1;
            if let Flow::Skip(n) = effect.flow {
                pc += n as usize;
            }
        }
    }

    /// The canonical checkerboard value used by stress templates.
    pub const CHECKERBOARD: u64 = CHECKERBOARD;

    /// Total instruction count (init + body).
    pub fn len(&self) -> usize {
        self.init.len() + self.body.len()
    }

    /// Whether the program contains no instructions at all.
    pub fn is_empty(&self) -> bool {
        self.init.is_empty() && self.body.is_empty()
    }
}

impl fmt::Display for Program {
    /// Renders as template-style assembly source.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program: {}", self.name)?;
        match self.mem_init {
            MemInit::Zero => writeln!(f, ".mem zero")?,
            MemInit::Fill(byte) => writeln!(f, ".mem fill 0x{byte:02X}")?,
            MemInit::Checkerboard => writeln!(f, ".mem checkerboard")?,
        }
        writeln!(f, ".init")?;
        for instr in &self.init {
            writeln!(f, "{instr}")?;
        }
        writeln!(f, ".loop")?;
        for instr in &self.body {
            writeln!(f, "{instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::reg::Reg;

    #[test]
    fn init_runs_straight_line() {
        let program = Program {
            name: "t".into(),
            init: asm::parse_block("MOVI x1, #5\nMOVI x2, #7\nADD x3, x1, x2").unwrap(),
            body: vec![],
            mem_init: MemInit::Checkerboard,
        };
        let mut state = ArchState::new(64);
        program.apply_init(&mut state);
        assert_eq!(state.reg(Reg::new(3).unwrap()), 12);
        assert!(state.mem().iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn init_honours_branches() {
        // CBZ x0 (zero) skips the poison MOVI.
        let program = Program {
            name: "t".into(),
            init: asm::parse_block("CBZ x0, #1\nMOVI x1, #99\nMOVI x2, #1").unwrap(),
            body: vec![],
            mem_init: MemInit::Zero,
        };
        let mut state = ArchState::new(64);
        program.apply_init(&mut state);
        assert_eq!(state.reg(Reg::new(1).unwrap()), 0, "skipped");
        assert_eq!(state.reg(Reg::new(2).unwrap()), 1);
    }

    #[test]
    fn init_branch_past_end_terminates() {
        let program = Program {
            name: "t".into(),
            init: asm::parse_block("B #200").unwrap(),
            body: vec![],
            mem_init: MemInit::Zero,
        };
        let mut state = ArchState::new(64);
        program.apply_init(&mut state);
    }

    #[test]
    fn display_emits_sections() {
        let program = Program {
            name: "demo".into(),
            init: asm::parse_block("MOVI x1, #1").unwrap(),
            body: asm::parse_block("ADD x1, x1, x1").unwrap(),
            mem_init: MemInit::Fill(0x55),
        };
        let text = program.to_string();
        assert!(text.contains(".mem fill 0x55"));
        assert!(text.contains(".init"));
        assert!(text.contains(".loop"));
        assert!(text.contains("ADD x1, x1, x1"));
    }

    #[test]
    fn len_and_empty() {
        let program = Program::from_body("x", asm::parse_block("NOP\nNOP").unwrap());
        assert_eq!(program.len(), 2);
        assert!(!program.is_empty());
        assert!(Program::default().is_empty());
    }
}
