//! The GA search space: instruction and operand *definitions*.
//!
//! Mirrors the paper's XML schema (Figure 4): an [`OperandDef`] names a set
//! of candidate values (a register list, an immediate range with stride, or
//! a branch-offset range), and an [`InstructionDef`] links one opcode — or
//! a whole *sequence* of opcodes, which the paper supports as atomically
//! included units ("the experimenter can specify both
//! individual-instructions as well as whole instructions sequences") — to
//! the operand definitions it draws from. An [`InstructionPool`] is the
//! validated collection the GA samples.

use crate::instruction::{Instruction, Operand};
use crate::opcode::{InstrClass, Opcode, OperandSlot};
use crate::reg::{Reg, VReg};
use crate::IsaError;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// The candidate-value set for one operand position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperandKind {
    /// A choice among integer registers.
    IntReg(Vec<Reg>),
    /// A choice among vector registers.
    VecReg(Vec<VReg>),
    /// An immediate range: `min`, `min+stride`, …, up to `max` inclusive.
    ///
    /// The paper's example: min=0, max=256, stride=8 gives 33 values.
    Imm {
        /// Smallest value.
        min: i64,
        /// Largest admissible value (the last value generated is the largest
        /// `min + k*stride <= max`).
        max: i64,
        /// Step between values; must be positive.
        stride: i64,
    },
    /// A forward branch distance range (in instructions), both inclusive.
    BranchOffset {
        /// Minimum skip distance (>= 1).
        min: u8,
        /// Maximum skip distance.
        max: u8,
    },
}

impl OperandKind {
    /// How many distinct values this operand can take.
    pub fn cardinality(&self) -> u64 {
        match self {
            OperandKind::IntReg(regs) => regs.len() as u64,
            OperandKind::VecReg(regs) => regs.len() as u64,
            // Wide arithmetic: a configuration file can name any `i64`
            // bounds, and the stride is checked only when a pool is built.
            OperandKind::Imm { min, max, stride } => {
                if max < min || *stride <= 0 {
                    0
                } else {
                    let span = i128::from(*max) - i128::from(*min);
                    u64::try_from(span / i128::from(*stride) + 1).unwrap_or(u64::MAX)
                }
            }
            OperandKind::BranchOffset { min, max } => {
                if max < min {
                    0
                } else {
                    u64::from(max - min) + 1
                }
            }
        }
    }

    /// Draws one concrete operand uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if the kind has zero cardinality; [`PoolBuilder`] rejects such
    /// definitions, so pool-sampled kinds never panic.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Operand {
        match self {
            OperandKind::IntReg(regs) => Operand::Reg(regs[rng.random_range(0..regs.len())]),
            OperandKind::VecReg(regs) => Operand::VReg(regs[rng.random_range(0..regs.len())]),
            OperandKind::Imm { min, stride, .. } => {
                let count = self.cardinality();
                assert!(count > 0, "empty immediate range");
                let k = i128::from(rng.random_range(0..count));
                let value = i128::from(*min) + k * i128::from(*stride);
                Operand::Imm(i64::try_from(value).expect("k * stride stays within max - min"))
            }
            OperandKind::BranchOffset { min, max } => {
                Operand::Target(rng.random_range(*min..=*max))
            }
        }
    }

    /// Whether a concrete operand belongs to this value set.
    pub fn contains(&self, operand: Operand) -> bool {
        match (self, operand) {
            (OperandKind::IntReg(regs), Operand::Reg(r)) => regs.contains(&r),
            (OperandKind::VecReg(regs), Operand::VReg(v)) => regs.contains(&v),
            (OperandKind::Imm { min, max, stride }, Operand::Imm(value)) => {
                value >= *min
                    && value <= *max
                    && (i128::from(value) - i128::from(*min)) % i128::from(*stride) == 0
            }
            (OperandKind::BranchOffset { min, max }, Operand::Target(t)) => t >= *min && t <= *max,
            _ => false,
        }
    }

    /// Whether this kind can legally occupy the given opcode slot.
    pub fn compatible(&self, slot: OperandSlot) -> bool {
        matches!(
            (self, slot),
            (OperandKind::IntReg(_), OperandSlot::IntDst)
                | (OperandKind::IntReg(_), OperandSlot::IntSrc)
                | (OperandKind::VecReg(_), OperandSlot::VecDst)
                | (OperandKind::VecReg(_), OperandSlot::VecSrc)
                | (OperandKind::Imm { .. }, OperandSlot::Imm)
                | (OperandKind::BranchOffset { .. }, OperandSlot::BranchTarget)
        )
    }
}

/// A named operand definition (paper: `<operand id=... />`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandDef {
    /// Unique id referenced by instruction definitions.
    pub id: String,
    /// The candidate-value set.
    pub kind: OperandKind,
}

impl OperandDef {
    /// Creates an operand definition.
    pub fn new(id: impl Into<String>, kind: OperandKind) -> OperandDef {
        OperandDef {
            id: id.into(),
            kind,
        }
    }
}

/// One instruction of an [`InstructionDef`]: an opcode plus the operand-
/// definition ids filling its slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionPart {
    /// The opcode instantiated instructions will carry.
    pub opcode: Opcode,
    /// Operand-definition ids, one per opcode slot.
    pub operand_ids: Vec<String>,
}

impl InstructionPart {
    /// Creates a part.
    pub fn new(
        opcode: Opcode,
        operand_ids: impl IntoIterator<Item = impl Into<String>>,
    ) -> InstructionPart {
        InstructionPart {
            opcode,
            operand_ids: operand_ids.into_iter().map(Into::into).collect(),
        }
    }
}

/// A named instruction definition (paper: `<instruction name=... />`).
///
/// Most definitions hold a single [`InstructionPart`]; multi-part
/// definitions are the paper's atomic instruction *sequences* — the GA
/// treats the whole sequence as one gene, so crossover and mutation never
/// split it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionDef {
    /// Unique name (usually the mnemonic, but variants like `LDR_near`
    /// and `LDR_far` may share an opcode).
    pub name: String,
    /// The instruction(s) this definition instantiates (at least one).
    pub parts: Vec<InstructionPart>,
    /// Optional custom output format (`"LDR op1,[op2,#op3]"`); only
    /// meaningful for single-part definitions, where the placeholders map
    /// onto the sole instruction's operands.
    pub format: Option<String>,
}

impl InstructionDef {
    /// Creates a single-instruction definition with the canonical output
    /// format.
    pub fn new(
        name: impl Into<String>,
        opcode: Opcode,
        operand_ids: impl IntoIterator<Item = impl Into<String>>,
    ) -> InstructionDef {
        InstructionDef {
            name: name.into(),
            parts: vec![InstructionPart::new(opcode, operand_ids)],
            format: None,
        }
    }

    /// Creates an atomic multi-instruction sequence definition.
    pub fn sequence(
        name: impl Into<String>,
        parts: impl IntoIterator<Item = InstructionPart>,
    ) -> InstructionDef {
        InstructionDef {
            name: name.into(),
            parts: parts.into_iter().collect(),
            format: None,
        }
    }

    /// The first part's opcode — the definition's "headline" opcode, used
    /// for single-part defs (every shipped pool) and reporting.
    pub fn opcode(&self) -> Opcode {
        self.parts[0].opcode
    }

    /// Total instructions one gene of this definition expands to.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the definition has no parts (rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

/// One gene of a GA individual: the concrete instruction(s) plus the index
/// of the [`InstructionDef`] they were instantiated from (needed so
/// operand mutation re-samples from the right value sets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gene {
    /// Index into [`InstructionPool::defs`].
    pub def_index: usize,
    /// The concrete instructions (one per definition part).
    pub instrs: GeneInstrs,
}

/// The concrete instructions of one [`Gene`], read as a slice.
///
/// Every definition in the shipped pools has one part, so a one-part gene
/// holds its instruction inline and building, cloning or dropping it never
/// touches the heap; only multi-part sequence genes own a boxed slice.
/// Equality and `Debug` are the slice's, so the two forms are
/// indistinguishable to readers.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_isa::IsaError> {
/// use gest_isa::{asm, GeneInstrs};
///
/// let block = asm::parse_block("ADD x1, x2, x3")?;
/// let instrs = GeneInstrs::from(block.clone());
/// assert_eq!(&*instrs, block.as_slice());
/// assert_eq!(instrs, block.into_iter().collect::<GeneInstrs>());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct GeneInstrs(Parts);

/// [`GeneInstrs`]' storage. `Many` never holds exactly one instruction.
#[derive(Clone)]
enum Parts {
    One(Instruction),
    Many(Box<[Instruction]>),
}

impl std::ops::Deref for GeneInstrs {
    type Target = [Instruction];

    fn deref(&self) -> &[Instruction] {
        match &self.0 {
            Parts::One(instr) => std::slice::from_ref(instr),
            Parts::Many(instrs) => instrs,
        }
    }
}

impl std::ops::DerefMut for GeneInstrs {
    fn deref_mut(&mut self) -> &mut [Instruction] {
        match &mut self.0 {
            Parts::One(instr) => std::slice::from_mut(instr),
            Parts::Many(instrs) => instrs,
        }
    }
}

impl<'a> IntoIterator for &'a GeneInstrs {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<Instruction>> for GeneInstrs {
    fn from(instrs: Vec<Instruction>) -> GeneInstrs {
        instrs.into_iter().collect()
    }
}

impl FromIterator<Instruction> for GeneInstrs {
    fn from_iter<I: IntoIterator<Item = Instruction>>(iter: I) -> GeneInstrs {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return GeneInstrs(Parts::Many(Box::default()));
        };
        let Some(second) = iter.next() else {
            return GeneInstrs(Parts::One(first));
        };
        let mut instrs = vec![first, second];
        instrs.extend(iter);
        GeneInstrs(Parts::Many(instrs.into_boxed_slice()))
    }
}

impl PartialEq for GeneInstrs {
    fn eq(&self, other: &GeneInstrs) -> bool {
        **self == **other
    }
}

impl Eq for GeneInstrs {}

impl fmt::Debug for GeneInstrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Gene {
    /// The gene's first (usually only) instruction.
    pub fn first(&self) -> &Instruction {
        &self.instrs[0]
    }

    /// Total instructions this gene contributes to the loop body.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the gene holds no instructions (never true for pool-made
    /// genes).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl fmt::Display for Gene {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.instrs.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{instr}")?;
        }
        Ok(())
    }
}

/// Incrementally builds a validated [`InstructionPool`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_isa::IsaError> {
/// use gest_isa::{InstructionDef, Opcode, OperandDef, OperandKind, PoolBuilder, Reg};
///
/// let pool = PoolBuilder::new()
///     .operand(OperandDef::new(
///         "r",
///         OperandKind::IntReg(vec![Reg::new(1)?, Reg::new(2)?]),
///     ))
///     .instruction(InstructionDef::new("ADD", Opcode::Add, ["r", "r", "r"]))
///     .build()?;
/// assert_eq!(pool.variations(0), 8); // 2 × 2 × 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PoolBuilder {
    operands: Vec<OperandDef>,
    instructions: Vec<InstructionDef>,
}

impl PoolBuilder {
    /// Creates an empty builder.
    pub fn new() -> PoolBuilder {
        PoolBuilder::default()
    }

    /// Adds an operand definition.
    pub fn operand(mut self, def: OperandDef) -> PoolBuilder {
        self.operands.push(def);
        self
    }

    /// Adds an instruction definition.
    pub fn instruction(mut self, def: InstructionDef) -> PoolBuilder {
        self.instructions.push(def);
        self
    }

    /// Validates and produces the pool.
    ///
    /// # Errors
    ///
    /// * [`IsaError::DuplicateDefinition`] for repeated names/ids,
    /// * [`IsaError::UndefinedOperand`] when an instruction references an
    ///   operand id that was never defined (the paper mandates terminating
    ///   on this),
    /// * [`IsaError::IncompatibleOperand`] when an operand kind cannot fill
    ///   the opcode slot,
    /// * [`IsaError::EmptyDefinition`] for empty value sets, part-less
    ///   definitions, or a pool with no instructions,
    /// * [`IsaError::BadOperands`] when an operand count mismatches its
    ///   opcode.
    pub fn build(self) -> Result<InstructionPool, IsaError> {
        let mut operands = BTreeMap::new();
        for def in self.operands {
            if let OperandKind::Imm { stride, .. } = def.kind {
                if stride <= 0 {
                    return Err(IsaError::Config(format!(
                        "operand {:?} has non-positive stride {stride}",
                        def.id
                    )));
                }
            }
            if def.kind.cardinality() == 0 {
                return Err(IsaError::EmptyDefinition { id: def.id });
            }
            if let OperandKind::BranchOffset { min, .. } = def.kind {
                if min == 0 {
                    return Err(IsaError::Config(format!(
                        "operand {:?} allows branch offset 0",
                        def.id
                    )));
                }
            }
            let id = def.id.clone();
            if operands.insert(id.clone(), def).is_some() {
                return Err(IsaError::DuplicateDefinition { id });
            }
        }
        if self.instructions.is_empty() {
            return Err(IsaError::EmptyDefinition {
                id: "<instruction pool>".into(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for def in &self.instructions {
            if !seen.insert(def.name.clone()) {
                return Err(IsaError::DuplicateDefinition {
                    id: def.name.clone(),
                });
            }
            if def.parts.is_empty() {
                return Err(IsaError::EmptyDefinition {
                    id: def.name.clone(),
                });
            }
            for part in &def.parts {
                let slots = part.opcode.slots();
                if slots.len() != part.operand_ids.len() {
                    return Err(IsaError::BadOperands {
                        opcode: part.opcode,
                        message: format!(
                            "definition {:?} supplies {} operand ids, opcode needs {}",
                            def.name,
                            part.operand_ids.len(),
                            slots.len()
                        ),
                    });
                }
                for (id, &slot) in part.operand_ids.iter().zip(slots) {
                    let operand = operands.get(id).ok_or_else(|| IsaError::UndefinedOperand {
                        instruction: def.name.clone(),
                        operand: id.clone(),
                    })?;
                    if !operand.kind.compatible(slot) {
                        return Err(IsaError::IncompatibleOperand {
                            instruction: def.name.clone(),
                            operand: id.clone(),
                            expected: slot.describe(),
                        });
                    }
                }
            }
        }
        Ok(InstructionPool {
            operands,
            defs: self.instructions,
            xml: OnceLock::new(),
        })
    }
}

/// The validated GA search space: every instruction (or atomic sequence)
/// the optimization may emit, with the operand value sets it may draw
/// from.
#[derive(Clone)]
pub struct InstructionPool {
    operands: BTreeMap<String, OperandDef>,
    defs: Vec<InstructionDef>,
    /// [`InstructionPool::xml_text`], rendered on first use. A pool has no
    /// `&mut` methods, so the rendering can never go stale.
    xml: OnceLock<String>,
}

/// Pools compare by content; the memoized rendering follows from it.
impl PartialEq for InstructionPool {
    fn eq(&self, other: &InstructionPool) -> bool {
        self.operands == other.operands && self.defs == other.defs
    }
}

impl Eq for InstructionPool {}

impl fmt::Debug for InstructionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstructionPool")
            .field("operands", &self.operands)
            .field("defs", &self.defs)
            .finish()
    }
}

impl InstructionPool {
    /// The pool's compact XML rendering, `pool_to_xml(self).to_string()`,
    /// made on the first call and kept: a configuration fingerprint
    /// hashes it once per pool instead of rebuilding the subtree for
    /// every run.
    pub fn xml_text(&self) -> &str {
        self.xml
            .get_or_init(|| crate::pool_to_xml(self).to_string())
    }

    /// The instruction definitions in declaration order.
    pub fn defs(&self) -> &[InstructionDef] {
        &self.defs
    }

    /// The operand definitions, keyed by id.
    pub fn operands(&self) -> impl Iterator<Item = &OperandDef> {
        self.operands.values()
    }

    /// Looks up an operand definition by id.
    pub fn operand(&self, id: &str) -> Option<&OperandDef> {
        self.operands.get(id)
    }

    /// Looks up an instruction definition index by name.
    pub fn def_index(&self, name: &str) -> Option<usize> {
        self.defs.iter().position(|d| d.name == name)
    }

    /// How many concrete forms instruction definition `def_index` can take
    /// (the paper's example: LDR with 3 result registers × 1 base × 33
    /// immediates = 99 forms).
    ///
    /// # Panics
    ///
    /// Panics if `def_index` is out of range.
    pub fn variations(&self, def_index: usize) -> u128 {
        self.defs[def_index]
            .parts
            .iter()
            .flat_map(|part| part.operand_ids.iter())
            .map(|id| self.operands[id].kind.cardinality() as u128)
            .product()
    }

    /// Total search-space size for one gene slot (sum over all
    /// definitions).
    pub fn total_variations(&self) -> u128 {
        (0..self.defs.len()).map(|i| self.variations(i)).sum()
    }

    /// Instantiates definition `def_index` with uniformly-sampled operands.
    ///
    /// # Panics
    ///
    /// Panics if `def_index` is out of range.
    pub fn instantiate<R: Rng + ?Sized>(&self, def_index: usize, rng: &mut R) -> Gene {
        let def = &self.defs[def_index];
        let instrs = def
            .parts
            .iter()
            .map(|part| {
                let mut operands = [Operand::Target(0); 4];
                for (operand, id) in operands.iter_mut().zip(&part.operand_ids) {
                    *operand = self.operands[id].kind.sample(rng);
                }
                Instruction::from_operands(part.opcode, &operands[..part.operand_ids.len()])
                    .expect("pool validation guarantees operand compatibility")
            })
            .collect();
        Gene { def_index, instrs }
    }

    /// Draws a uniformly-random instruction definition and instantiates it.
    pub fn random_gene<R: Rng + ?Sized>(&self, rng: &mut R) -> Gene {
        let def_index = rng.random_range(0..self.defs.len());
        self.instantiate(def_index, rng)
    }

    /// Mutates one randomly-chosen operand of `gene` in place, re-sampling
    /// it from the operand definition's value set (paper: "an operand is
    /// transformed to another operand"). For sequences, one operand of one
    /// randomly-chosen part is mutated.
    ///
    /// Genes whose instructions have no operands (e.g. `NOP`) are
    /// unchanged.
    pub fn mutate_operand<R: Rng + ?Sized>(&self, gene: &mut Gene, rng: &mut R) {
        let def = &self.defs[gene.def_index];
        // Collect (part, slot) positions that have operands.
        let total: usize = def.parts.iter().map(|p| p.operand_ids.len()).sum();
        if total == 0 {
            return;
        }
        let mut pick = rng.random_range(0..total);
        for (part_index, part) in def.parts.iter().enumerate() {
            if pick < part.operand_ids.len() {
                let operand = self.operands[&part.operand_ids[pick]].kind.sample(rng);
                gene.instrs[part_index]
                    .set_operand(pick, operand)
                    .expect("pool validation guarantees operand compatibility");
                return;
            }
            pick -= part.operand_ids.len();
        }
    }

    /// Replaces `gene` with a fresh random instruction (paper: "the whole
    /// instruction is randomly transformed to a new instruction").
    pub fn mutate_whole<R: Rng + ?Sized>(&self, gene: &mut Gene, rng: &mut R) {
        *gene = self.random_gene(rng);
    }

    /// Finds a definition that could have produced this instruction
    /// sequence (same opcodes, all operands inside the definition's value
    /// sets). Used when seeding populations from saved files.
    pub fn match_def_seq(&self, instrs: &[Instruction]) -> Option<usize> {
        self.defs.iter().position(|def| {
            def.parts.len() == instrs.len()
                && def.parts.iter().zip(instrs).all(|(part, instr)| {
                    part.opcode == instr.opcode()
                        && part
                            .operand_ids
                            .iter()
                            .zip(instr.operands())
                            .all(|(id, op)| self.operands[id].kind.contains(op))
                })
        })
    }

    /// [`match_def_seq`](Self::match_def_seq) for a single instruction.
    pub fn match_def(&self, instr: &Instruction) -> Option<usize> {
        self.match_def_seq(std::slice::from_ref(instr))
    }

    /// Renders a gene using its definition's custom format when present
    /// (single-part definitions only); sequences render one instruction
    /// per line.
    pub fn render(&self, gene: &Gene) -> String {
        match (&self.defs[gene.def_index].format, gene.instrs.len()) {
            (Some(format), 1) => gene.instrs[0].render_with(format),
            _ => gene.to_string(),
        }
    }

    /// Per-class histogram of a sequence of genes, in [`InstrClass::ALL`]
    /// order — the paper's "instruction breakdown" (Table III). Counts
    /// every instruction, including all parts of sequence genes.
    pub fn class_breakdown(genes: &[Gene]) -> [usize; 6] {
        let mut counts = [0usize; 6];
        for gene in genes {
            for instr in &gene.instrs {
                let class = instr.opcode().class();
                let index = InstrClass::ALL
                    .iter()
                    .position(|c| *c == class)
                    .expect("every class is in ALL");
                counts[index] += 1;
            }
        }
        counts
    }

    /// Number of unique instruction definitions used by a gene sequence —
    /// the paper's "unique instructions" metric for the simplicity fitness.
    pub fn unique_defs(genes: &[Gene]) -> usize {
        let mut seen: Vec<usize> = genes.iter().map(|g| g.def_index).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Flattens genes into the loop-body instruction list.
    pub fn flatten(genes: &[Gene]) -> Vec<Instruction> {
        genes
            .iter()
            .flat_map(|g| g.instrs.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn regs(indices: &[u8]) -> Vec<Reg> {
        indices.iter().map(|&i| Reg::new(i).unwrap()).collect()
    }

    fn paper_ldr_pool() -> InstructionPool {
        // The exact example from paper Figure 4: 3 result registers × 1 base
        // register × 33 immediates = 99 variations.
        PoolBuilder::new()
            .operand(OperandDef::new(
                "mem_result",
                OperandKind::IntReg(regs(&[2, 3, 4])),
            ))
            .operand(OperandDef::new(
                "mem_address_register",
                OperandKind::IntReg(regs(&[10])),
            ))
            .operand(OperandDef::new(
                "immediate_value",
                OperandKind::Imm {
                    min: 0,
                    max: 256,
                    stride: 8,
                },
            ))
            .instruction(InstructionDef {
                name: "LDR".into(),
                parts: vec![InstructionPart::new(
                    Opcode::Ldr,
                    ["mem_result", "mem_address_register", "immediate_value"],
                )],
                format: Some("LDR op1,[op2,#op3]".into()),
            })
            .build()
            .unwrap()
    }

    fn sequence_pool() -> InstructionPool {
        PoolBuilder::new()
            .operand(OperandDef::new("r", OperandKind::IntReg(regs(&[0, 1, 2]))))
            .operand(OperandDef::new("base", OperandKind::IntReg(regs(&[10]))))
            .operand(OperandDef::new(
                "off",
                OperandKind::Imm {
                    min: 0,
                    max: 64,
                    stride: 8,
                },
            ))
            .instruction(InstructionDef::new("ADD", Opcode::Add, ["r", "r", "r"]))
            .instruction(InstructionDef::sequence(
                "LOAD_USE",
                [
                    InstructionPart::new(Opcode::Ldr, ["r", "base", "off"]),
                    InstructionPart::new(Opcode::Add, ["r", "r", "r"]),
                    InstructionPart::new(Opcode::Str, ["r", "base", "off"]),
                ],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_has_99_variations() {
        let pool = paper_ldr_pool();
        assert_eq!(pool.variations(0), 99);
        assert_eq!(pool.total_variations(), 99);
    }

    #[test]
    fn sampled_genes_are_always_in_set() {
        let pool = paper_ldr_pool();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let gene = pool.random_gene(&mut rng);
            assert_eq!(pool.match_def(gene.first()), Some(0));
            let offset = gene.first().operands().nth(2).unwrap();
            match offset {
                Operand::Imm(v) => {
                    assert!((0..=256).contains(&v) && v % 8 == 0, "imm {v}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn degenerate_and_extreme_ranges_neither_panic_nor_overflow() {
        let imm = |min, max, stride| OperandKind::Imm { min, max, stride };
        let build = |kind| {
            PoolBuilder::new()
                .operand(OperandDef::new("i", kind))
                .operand(OperandDef::new("r", OperandKind::IntReg(regs(&[1]))))
                .instruction(InstructionDef::new("ADDI", Opcode::Addi, ["r", "r", "i"]))
                .build()
        };
        // A zero stride used to divide by zero before the stride check.
        for stride in [0, -8] {
            assert_eq!(imm(0, 256, stride).cardinality(), 0);
            assert!(matches!(
                build(imm(0, 256, stride)),
                Err(IsaError::Config(_))
            ));
        }
        let full = imm(i64::MIN, i64::MAX, 1);
        assert_eq!(full.cardinality(), u64::MAX);
        assert_eq!(imm(i64::MIN, i64::MAX, i64::MAX).cardinality(), 3);
        let mut rng = StdRng::seed_from_u64(11);
        let pool = build(full.clone()).unwrap();
        for _ in 0..64 {
            let Operand::Imm(value) = full.sample(&mut rng) else {
                panic!("an immediate kind samples immediates")
            };
            assert!(full.contains(Operand::Imm(value)));
            pool.random_gene(&mut rng);
        }
        assert_eq!(
            OperandKind::BranchOffset { min: 0, max: 255 }.cardinality(),
            256
        );
    }

    #[test]
    fn custom_format_rendering() {
        let pool = paper_ldr_pool();
        let mut rng = StdRng::seed_from_u64(3);
        let gene = pool.random_gene(&mut rng);
        let rendered = pool.render(&gene);
        assert!(rendered.starts_with("LDR x"), "{rendered}");
        assert!(rendered.contains("[x10,#"), "{rendered}");
    }

    #[test]
    fn undefined_operand_rejected() {
        let err = PoolBuilder::new()
            .instruction(InstructionDef::new("ADD", Opcode::Add, ["a", "a", "a"]))
            .build()
            .unwrap_err();
        assert!(matches!(err, IsaError::UndefinedOperand { .. }));
    }

    #[test]
    fn incompatible_operand_rejected() {
        let err = PoolBuilder::new()
            .operand(OperandDef::new(
                "imm",
                OperandKind::Imm {
                    min: 0,
                    max: 8,
                    stride: 1,
                },
            ))
            .instruction(InstructionDef::new(
                "ADD",
                Opcode::Add,
                ["imm", "imm", "imm"],
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, IsaError::IncompatibleOperand { .. }));
    }

    #[test]
    fn wrong_operand_count_rejected() {
        let err = PoolBuilder::new()
            .operand(OperandDef::new("r", OperandKind::IntReg(regs(&[0]))))
            .instruction(InstructionDef::new("ADD", Opcode::Add, ["r", "r"]))
            .build()
            .unwrap_err();
        assert!(matches!(err, IsaError::BadOperands { .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = PoolBuilder::new()
            .operand(OperandDef::new("r", OperandKind::IntReg(regs(&[0]))))
            .operand(OperandDef::new("r", OperandKind::IntReg(regs(&[1]))))
            .instruction(InstructionDef::new("ADD", Opcode::Add, ["r", "r", "r"]))
            .build()
            .unwrap_err();
        assert!(matches!(err, IsaError::DuplicateDefinition { .. }));
    }

    #[test]
    fn empty_pool_rejected() {
        assert!(matches!(
            PoolBuilder::new().build().unwrap_err(),
            IsaError::EmptyDefinition { .. }
        ));
    }

    #[test]
    fn partless_definition_rejected() {
        let err = PoolBuilder::new()
            .instruction(InstructionDef::sequence("EMPTY", []))
            .build()
            .unwrap_err();
        assert!(matches!(err, IsaError::EmptyDefinition { .. }));
    }

    #[test]
    fn zero_branch_offset_rejected() {
        let err = PoolBuilder::new()
            .operand(OperandDef::new(
                "t",
                OperandKind::BranchOffset { min: 0, max: 3 },
            ))
            .instruction(InstructionDef::new("B", Opcode::B, ["t"]))
            .build()
            .unwrap_err();
        assert!(matches!(err, IsaError::Config(_)));
    }

    #[test]
    fn operand_mutation_stays_in_set() {
        let pool = paper_ldr_pool();
        let mut rng = StdRng::seed_from_u64(11);
        let mut gene = pool.random_gene(&mut rng);
        for _ in 0..100 {
            pool.mutate_operand(&mut gene, &mut rng);
            assert_eq!(pool.match_def(gene.first()), Some(0));
        }
    }

    #[test]
    fn breakdown_and_unique_counts() {
        let pool = PoolBuilder::new()
            .operand(OperandDef::new("r", OperandKind::IntReg(regs(&[0, 1]))))
            .operand(OperandDef::new(
                "v",
                OperandKind::VecReg(vec![VReg::new(0).unwrap()]),
            ))
            .instruction(InstructionDef::new("ADD", Opcode::Add, ["r", "r", "r"]))
            .instruction(InstructionDef::new("FMUL", Opcode::Fmul, ["v", "v", "v"]))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let genes = vec![
            pool.instantiate(0, &mut rng),
            pool.instantiate(0, &mut rng),
            pool.instantiate(1, &mut rng),
        ];
        let counts = InstructionPool::class_breakdown(&genes);
        assert_eq!(counts[0], 2); // ShortInt
        assert_eq!(counts[2], 1); // Float/SIMD
        assert_eq!(InstructionPool::unique_defs(&genes), 2);
    }

    #[test]
    fn imm_cardinality_truncates_to_max() {
        let kind = OperandKind::Imm {
            min: 0,
            max: 10,
            stride: 4,
        };
        // 0, 4, 8 — 10 is not reachable.
        assert_eq!(kind.cardinality(), 3);
        assert!(kind.contains(Operand::Imm(8)));
        assert!(!kind.contains(Operand::Imm(10)));
        assert!(!kind.contains(Operand::Imm(2)));
    }

    // ---- sequence definitions (paper: atomically-included sequences) ----

    #[test]
    fn sequence_genes_expand_to_all_parts() {
        let pool = sequence_pool();
        let seq = pool.def_index("LOAD_USE").unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let gene = pool.instantiate(seq, &mut rng);
        assert_eq!(gene.len(), 3);
        assert_eq!(gene.instrs[0].opcode(), Opcode::Ldr);
        assert_eq!(gene.instrs[1].opcode(), Opcode::Add);
        assert_eq!(gene.instrs[2].opcode(), Opcode::Str);
        let flat = InstructionPool::flatten(&[gene]);
        assert_eq!(flat.len(), 3);
    }

    #[test]
    fn sequence_variations_multiply_across_parts() {
        let pool = sequence_pool();
        let seq = pool.def_index("LOAD_USE").unwrap();
        // LDR: 3 × 1 × 9; ADD: 3 × 3 × 3; STR: 3 × 1 × 9.
        assert_eq!(pool.variations(seq), 27 * 27 * 27);
    }

    #[test]
    fn sequence_operand_mutation_touches_one_part() {
        let pool = sequence_pool();
        let seq = pool.def_index("LOAD_USE").unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..50 {
            let gene = pool.instantiate(seq, &mut rng);
            let mut mutated = gene.clone();
            pool.mutate_operand(&mut mutated, &mut rng);
            let differing = gene
                .instrs
                .iter()
                .zip(&mutated.instrs)
                .filter(|(a, b)| a != b)
                .count();
            assert!(
                differing <= 1,
                "one operand mutation may change at most one part"
            );
            assert_eq!(
                pool.match_def_seq(&mutated.instrs),
                Some(seq),
                "stays in set"
            );
        }
    }

    #[test]
    fn sequence_match_def_requires_full_match() {
        let pool = sequence_pool();
        let mut rng = StdRng::seed_from_u64(23);
        let gene = pool.instantiate(pool.def_index("LOAD_USE").unwrap(), &mut rng);
        assert_eq!(pool.match_def_seq(&gene.instrs), pool.def_index("LOAD_USE"));
        // A prefix does not match the sequence (but the lone ADD def
        // matches an ADD).
        assert_eq!(pool.match_def_seq(&gene.instrs[..2]), None);
        assert_eq!(pool.match_def(&gene.instrs[1]), pool.def_index("ADD"));
    }

    #[test]
    fn sequence_breakdown_counts_every_instruction() {
        let pool = sequence_pool();
        let mut rng = StdRng::seed_from_u64(24);
        let genes = vec![
            pool.instantiate(pool.def_index("LOAD_USE").unwrap(), &mut rng),
            pool.instantiate(pool.def_index("ADD").unwrap(), &mut rng),
        ];
        let counts = InstructionPool::class_breakdown(&genes);
        assert_eq!(counts[0], 2, "two ADDs");
        assert_eq!(counts[3], 2, "LDR + STR");
        assert_eq!(InstructionPool::unique_defs(&genes), 2);
    }

    #[test]
    fn a_one_part_gene_is_the_same_however_it_was_built() {
        use crate::codec::{Decoder, Encoder};
        let pool = paper_ldr_pool();
        let mut rng = StdRng::seed_from_u64(26);
        let instantiated = pool.instantiate(0, &mut rng);
        let instr = *instantiated.first();
        let from_vec = Gene {
            def_index: 0,
            instrs: vec![instr].into(),
        };
        let collected = Gene {
            def_index: 0,
            instrs: std::iter::once(instr).collect(),
        };
        let mut enc = Encoder::new();
        enc.genes(std::slice::from_ref(&from_vec));
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.count(2, "genes").unwrap(), 1);
        let decoded = dec.gene().unwrap();
        for gene in [&from_vec, &collected, &decoded] {
            assert_eq!(gene, &instantiated);
            assert_eq!(format!("{gene:?}"), format!("{instantiated:?}"));
            assert_eq!(gene.to_string(), instantiated.to_string());
            assert_eq!(pool.render(gene), pool.render(&instantiated));
        }
        // `Debug` and equality are the slice's.
        assert_eq!(format!("{:?}", decoded.instrs), format!("{:?}", [instr]));
        assert_eq!(*decoded.instrs, [instr]);
        // A multi-part gene built either way is the same too, and never
        // equals its one-part prefix.
        let block = vec![instr, Instruction::nop(), instr];
        let many = GeneInstrs::from(block.clone());
        assert_eq!(many, block.iter().copied().collect::<GeneInstrs>());
        assert_eq!(format!("{many:?}"), format!("{block:?}"));
        assert_ne!(many, instantiated.instrs);
        assert!(GeneInstrs::from(Vec::new()).is_empty());
    }

    #[test]
    fn operand_mutation_rewrites_a_part_in_place() {
        for (pool, def_index) in [(paper_ldr_pool(), 0), (sequence_pool(), 1)] {
            let mut rng = StdRng::seed_from_u64(27);
            let mut gene = pool.instantiate(def_index, &mut rng);
            let parts = gene.instrs.as_ptr();
            let mut changed = 0;
            for _ in 0..50 {
                let before = gene.clone();
                pool.mutate_operand(&mut gene, &mut rng);
                assert_eq!(gene.instrs.as_ptr(), parts, "the parts stay where they are");
                assert_eq!(gene.len(), before.len());
                assert_eq!(pool.match_def_seq(&gene.instrs), Some(def_index));
                changed += usize::from(gene != before);
            }
            assert!(changed > 0, "50 operand mutations never changed the gene");
        }
    }

    #[test]
    fn gene_display_multi_line() {
        let pool = sequence_pool();
        let mut rng = StdRng::seed_from_u64(25);
        let gene = pool.instantiate(pool.def_index("LOAD_USE").unwrap(), &mut rng);
        let text = gene.to_string();
        assert_eq!(text.lines().count(), 3);
    }
}
