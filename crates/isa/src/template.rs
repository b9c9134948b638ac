//! Template source files with the paper's `#loop_code` marker.
//!
//! A template prescribes everything around the GA-generated loop body:
//! memory-pattern initialization, register initialization, and optional
//! fixed loop instructions before/after the marker (paper §III.B.2, e.g.
//! "add NOP instructions for padding"). The format:
//!
//! ```text
//! ; anything after ';' is a comment
//! .mem checkerboard          ; or: zero | fill 0xNN
//! .init
//! MOVI x10, #0               ; register initialization
//! MOVI x1, #0xAAAAAAAAAAAAAAAA
//! .loop
//! NOP                        ; fixed code before the individual
//! #loop_code
//! NOP                        ; fixed code after the individual
//! ```

use crate::asm;
use crate::instruction::{Instruction, Operand};
use crate::opcode::Opcode;
use crate::program::{MemInit, Program};
use crate::reg::{Reg, VReg};
use crate::semantics::CHECKERBOARD;
use crate::IsaError;

/// The marker string the GA individual replaces.
pub const LOOP_CODE_MARKER: &str = "#loop_code";

/// A parsed template source file.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_isa::IsaError> {
/// use gest_isa::{asm, Template};
/// let template = Template::parse(
///     ".mem checkerboard\n.init\nMOVI x10, #0\n.loop\n#loop_code\n",
/// )?;
/// let body = asm::parse_block("ADD x1, x1, x1")?;
/// let program = template.materialize("ind_1", body);
/// assert_eq!(program.body.len(), 1);
/// assert_eq!(program.init.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    mem_init: MemInit,
    init: Vec<Instruction>,
    pre: Vec<Instruction>,
    post: Vec<Instruction>,
}

impl Template {
    /// Parses a template source.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Config`] if the `.loop` section or the
    /// `#loop_code` marker is missing (the paper requires the marker inside
    /// an empty loop body), or any assembler error from the fixed code.
    pub fn parse(source: &str) -> Result<Template, IsaError> {
        #[derive(PartialEq)]
        enum Section {
            Preamble,
            Init,
            LoopPre,
            LoopPost,
        }
        let mut section = Section::Preamble;
        let mut mem_init = MemInit::Zero;
        let mut init = Vec::new();
        let mut pre = Vec::new();
        let mut post = Vec::new();
        let mut saw_marker = false;
        let mut saw_loop = false;

        for (i, raw_line) in source.lines().enumerate() {
            let line_no = (i + 1) as u32;
            let line = raw_line.split(';').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == LOOP_CODE_MARKER {
                if saw_marker {
                    return Err(IsaError::Config(format!(
                        "line {line_no}: duplicate {LOOP_CODE_MARKER} marker"
                    )));
                }
                if section != Section::LoopPre {
                    return Err(IsaError::Config(format!(
                        "line {line_no}: {LOOP_CODE_MARKER} must appear inside the .loop section"
                    )));
                }
                saw_marker = true;
                section = Section::LoopPost;
                continue;
            }
            if let Some(directive) = line.strip_prefix('.') {
                let mut parts = directive.split_whitespace();
                match parts.next() {
                    Some("mem") => {
                        // Accept `.mem fill 0xNN` and the shorthand `.mem 0xNN`.
                        let arg = match parts.next() {
                            Some("fill") => parts.next(),
                            other => other,
                        };
                        mem_init = parse_mem_directive(arg, line_no)?;
                    }
                    Some("init") => section = Section::Init,
                    Some("loop") => {
                        saw_loop = true;
                        section = Section::LoopPre;
                    }
                    Some(other) => {
                        return Err(IsaError::Config(format!(
                            "line {line_no}: unknown directive .{other}"
                        )))
                    }
                    None => {
                        return Err(IsaError::Config(format!("line {line_no}: empty directive")))
                    }
                }
                continue;
            }
            let instr = asm::parse_line_numbered(line, line_no)?;
            let Some(instr) = instr else { continue };
            match section {
                Section::Preamble => {
                    return Err(IsaError::Config(format!(
                        "line {line_no}: instruction before any .init/.loop section"
                    )))
                }
                Section::Init => init.push(instr),
                Section::LoopPre => pre.push(instr),
                Section::LoopPost => post.push(instr),
            }
        }
        if !saw_loop {
            return Err(IsaError::Config("template has no .loop section".into()));
        }
        if !saw_marker {
            return Err(IsaError::Config(format!(
                "template .loop section has no {LOOP_CODE_MARKER} marker"
            )));
        }
        Ok(Template {
            mem_init,
            init,
            pre,
            post,
        })
    }

    /// The default stress template used throughout the reproduction:
    /// checkerboard memory, checkerboard integer registers (the paper finds
    /// checkerboard patterns maximize bit switching), a zeroed base address
    /// register `x10`, and vector registers seeded with dense-mantissa
    /// floating-point values in both lanes.
    pub fn default_stress() -> Template {
        let movi = |reg, value: u64| {
            Instruction::from_operands(
                Opcode::Movi,
                &[Operand::Reg(Reg(reg)), Operand::Imm(value as i64)],
            )
            .expect("MOVI signature")
        };
        // x10 is the conventional memory base register in the shipped
        // configurations; keep it zero so address = offset (wrapped).
        let patterns = [CHECKERBOARD, !CHECKERBOARD];
        let mut init: Vec<Instruction> = (0..8u8)
            .map(|i| movi(i, patterns[(i % 2) as usize]))
            .collect();
        init.push(movi(10, 0));
        // Dense-mantissa values close to 1 keep FP pipelines busy without
        // overflowing, with alternating signs for extra sign-bit churn.
        let fp_values = [1.000_000_123_456_789f64, -0.999_999_876_543_21f64];
        init.extend((0..8u8).map(|i| {
            let lane = |j: u8| Operand::Imm(fp_values[((i + j) % 2) as usize].to_bits() as i64);
            Instruction::from_operands(Opcode::Vmovi, &[Operand::VReg(VReg(i)), lane(0), lane(1)])
                .expect("VMOVI signature")
        }));
        Template {
            mem_init: MemInit::Checkerboard,
            init,
            pre: Vec::new(),
            post: Vec::new(),
        }
    }

    /// Substitutes `body` for the `#loop_code` marker and produces a
    /// runnable [`Program`].
    pub fn materialize(&self, name: impl Into<String>, body: Vec<Instruction>) -> Program {
        let mut full_body = Vec::with_capacity(self.pre.len() + body.len() + self.post.len());
        full_body.extend_from_slice(&self.pre);
        full_body.extend(body);
        full_body.extend_from_slice(&self.post);
        Program {
            name: name.into(),
            init: self.init.clone(),
            body: full_body,
            mem_init: self.mem_init,
        }
    }

    /// The register/memory initialization instructions.
    pub fn init(&self) -> &[Instruction] {
        &self.init
    }

    /// Fixed loop instructions placed before the individual.
    pub fn fixed_pre(&self) -> &[Instruction] {
        &self.pre
    }

    /// Fixed loop instructions placed after the individual.
    pub fn fixed_post(&self) -> &[Instruction] {
        &self.post
    }

    /// The memory initialization pattern.
    pub fn mem_init(&self) -> MemInit {
        self.mem_init
    }

    /// Renders the template back to its source form (parseable by
    /// [`Template::parse`]), for record-keeping in run output directories.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), gest_isa::IsaError> {
    /// let template = gest_isa::Template::default_stress();
    /// let reparsed = gest_isa::Template::parse(&template.to_source())?;
    /// assert_eq!(reparsed, template);
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        match self.mem_init {
            MemInit::Zero => out.push_str(".mem zero\n"),
            MemInit::Fill(byte) => out.push_str(&format!(".mem fill 0x{byte:02X}\n")),
            MemInit::Checkerboard => out.push_str(".mem checkerboard\n"),
        }
        out.push_str(".init\n");
        for instr in &self.init {
            out.push_str(&instr.to_string());
            out.push('\n');
        }
        out.push_str(".loop\n");
        for instr in &self.pre {
            out.push_str(&instr.to_string());
            out.push('\n');
        }
        out.push_str(LOOP_CODE_MARKER);
        out.push('\n');
        for instr in &self.post {
            out.push_str(&instr.to_string());
            out.push('\n');
        }
        out
    }
}

fn parse_mem_directive(arg: Option<&str>, line_no: u32) -> Result<MemInit, IsaError> {
    match arg {
        Some("zero") => Ok(MemInit::Zero),
        Some("checkerboard") => Ok(MemInit::Checkerboard),
        None => Err(IsaError::Config(format!(
            "line {line_no}: .mem requires an argument (zero, checkerboard, or fill 0xNN)"
        ))),
        Some(other) => {
            if let Some(hex) = other
                .strip_prefix("0x")
                .or_else(|| other.strip_prefix("0X"))
            {
                u8::from_str_radix(hex, 16).map(MemInit::Fill).map_err(|_| {
                    IsaError::Config(format!("line {line_no}: bad fill byte {other:?}"))
                })
            } else {
                Err(IsaError::Config(format!(
                    "line {line_no}: unknown .mem pattern {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::ArchState;

    const BASIC: &str = "\
.mem checkerboard
.init
MOVI x10, #0
MOVI x1, #0xAAAAAAAAAAAAAAAA
.loop
NOP
#loop_code
NOP
";

    #[test]
    fn parse_and_materialize() {
        let template = Template::parse(BASIC).unwrap();
        assert_eq!(template.init().len(), 2);
        assert_eq!(template.fixed_pre().len(), 1);
        assert_eq!(template.fixed_post().len(), 1);
        let body = asm::parse_block("ADD x1, x1, x1\nSUB x2, x1, x1").unwrap();
        let program = template.materialize("ind", body);
        assert_eq!(program.body.len(), 4, "pre + 2 + post");
        assert_eq!(program.body[0].opcode(), Opcode::Nop);
        assert_eq!(program.body[3].opcode(), Opcode::Nop);
    }

    #[test]
    fn missing_marker_rejected() {
        let err = Template::parse(".loop\nNOP\n").unwrap_err();
        assert!(matches!(err, IsaError::Config(ref m) if m.contains("#loop_code")));
    }

    #[test]
    fn missing_loop_section_rejected() {
        let err = Template::parse(".init\nMOVI x0, #1\n").unwrap_err();
        assert!(matches!(err, IsaError::Config(ref m) if m.contains(".loop")));
    }

    #[test]
    fn duplicate_marker_rejected() {
        let err = Template::parse(".loop\n#loop_code\n#loop_code\n").unwrap_err();
        assert!(matches!(err, IsaError::Config(ref m) if m.contains("duplicate")));
    }

    #[test]
    fn marker_outside_loop_rejected() {
        let err = Template::parse("#loop_code\n.loop\n").unwrap_err();
        assert!(matches!(err, IsaError::Config(_)));
    }

    #[test]
    fn instruction_before_sections_rejected() {
        let err = Template::parse("NOP\n.loop\n#loop_code\n").unwrap_err();
        assert!(matches!(err, IsaError::Config(_)));
    }

    #[test]
    fn mem_fill_directive() {
        let template = Template::parse(".mem 0x55\n.loop\n#loop_code\n").unwrap();
        assert_eq!(template.mem_init(), MemInit::Fill(0x55));
    }

    #[test]
    fn comments_ignored() {
        let template =
            Template::parse("; header\n.loop ; the loop\n#loop_code\nNOP ; pad\n").unwrap();
        assert_eq!(template.fixed_post().len(), 1);
    }

    #[test]
    fn to_source_round_trips() {
        let template = Template::parse(BASIC).unwrap();
        let reparsed = Template::parse(&template.to_source()).unwrap();
        assert_eq!(reparsed, template);
    }

    #[test]
    fn default_stress_initializes_registers() {
        let template = Template::default_stress();
        let program = template.materialize("d", Vec::new());
        let mut state = ArchState::new(1 << 12);
        program.apply_init(&mut state);
        assert_eq!(state.reg(Reg::new(0).unwrap()), CHECKERBOARD);
        assert_eq!(state.reg(Reg::new(1).unwrap()), !CHECKERBOARD);
        assert_eq!(state.reg(Reg::new(10).unwrap()), 0);
        let lanes = state.vreg(VReg::new(0).unwrap());
        assert!(f64::from_bits(lanes[0]).is_finite());
        assert!(state.mem().iter().all(|&b| b == 0xAA));
    }
}
