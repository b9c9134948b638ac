//! Default instruction pools, shipped like the paper's example
//! configurations ("in the framework release we include measurement
//! scripts and fitness functions that can be used for power, IPC, dI/dt
//! noise and instruction-stream simplicity optimization", §IV).
//!
//! The pools encode the paper's §III.B.1 guidance:
//!
//! * the memory base register (`x10`) is its own single-value operand
//!   class, so generated addresses always stay inside the scratch buffer;
//! * the registers loads write (`x11`–`x13`) are disjoint from the ALU
//!   operand registers (`x0`–`x7`), so integer instructions never depend on
//!   loads ("to avoid integer instructions depending on memory loads the
//!   user can specify two disjoint sets of integer register operands");
//! * branch skip distances are small forward hops.

use gest_isa::{
    InstructionDef, InstructionPool, Opcode, OperandDef, OperandKind, PoolBuilder, Reg, VReg,
};

fn int_regs(range: std::ops::RangeInclusive<u8>) -> OperandKind {
    OperandKind::IntReg(range.map(|i| Reg::new(i).expect("index < 16")).collect())
}

fn vec_regs(range: std::ops::RangeInclusive<u8>) -> OperandKind {
    OperandKind::VecReg(range.map(|i| VReg::new(i).expect("index < 16")).collect())
}

fn base_builder() -> PoolBuilder {
    PoolBuilder::new()
        // ALU operand registers (initialized to checkerboards by the
        // default template).
        .operand(OperandDef::new("int_op", int_regs(0..=7)))
        // Destinations for loads, disjoint from ALU sources.
        .operand(OperandDef::new("mem_result", int_regs(11..=13)))
        // Single base register, kept pointing at the scratch buffer.
        .operand(OperandDef::new("mem_base", int_regs(10..=10)))
        // The paper's Figure 4 example range: 0..256 stride 8.
        .operand(OperandDef::new(
            "mem_offset",
            OperandKind::Imm {
                min: 0,
                max: 256,
                stride: 8,
            },
        ))
        .operand(OperandDef::new(
            "shift_amount",
            OperandKind::Imm {
                min: 1,
                max: 31,
                stride: 1,
            },
        ))
        .operand(OperandDef::new(
            "small_imm",
            OperandKind::Imm {
                min: 0,
                max: 64,
                stride: 1,
            },
        ))
        .operand(OperandDef::new("vec_op", vec_regs(0..=7)))
        .operand(OperandDef::new("vec_acc", vec_regs(8..=15)))
        .operand(OperandDef::new(
            "skip",
            OperandKind::BranchOffset { min: 1, max: 3 },
        ))
}

fn with_int_ops(builder: PoolBuilder) -> PoolBuilder {
    builder
        .instruction(InstructionDef::new(
            "ADD",
            Opcode::Add,
            ["int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "SUB",
            Opcode::Sub,
            ["int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "AND",
            Opcode::And,
            ["int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "ORR",
            Opcode::Orr,
            ["int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "EOR",
            Opcode::Eor,
            ["int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "ADDI",
            Opcode::Addi,
            ["int_op", "int_op", "small_imm"],
        ))
        .instruction(InstructionDef::new(
            "LSL",
            Opcode::Lsl,
            ["int_op", "int_op", "shift_amount"],
        ))
        .instruction(InstructionDef::new(
            "LSR",
            Opcode::Lsr,
            ["int_op", "int_op", "shift_amount"],
        ))
}

fn with_long_int_ops(builder: PoolBuilder) -> PoolBuilder {
    builder
        .instruction(InstructionDef::new(
            "MUL",
            Opcode::Mul,
            ["int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "MLA",
            Opcode::Mla,
            ["int_op", "int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "SMULH",
            Opcode::Smulh,
            ["int_op", "int_op", "int_op"],
        ))
        .instruction(InstructionDef::new(
            "SDIV",
            Opcode::Sdiv,
            ["int_op", "int_op", "int_op"],
        ))
}

fn with_fp_ops(builder: PoolBuilder) -> PoolBuilder {
    builder
        .instruction(InstructionDef::new(
            "FADD",
            Opcode::Fadd,
            ["vec_acc", "vec_op", "vec_op"],
        ))
        .instruction(InstructionDef::new(
            "FMUL",
            Opcode::Fmul,
            ["vec_acc", "vec_op", "vec_op"],
        ))
        .instruction(InstructionDef::new(
            "FMLA",
            Opcode::Fmla,
            ["vec_acc", "vec_op", "vec_op"],
        ))
        .instruction(InstructionDef::new(
            "VFADD",
            Opcode::Vfadd,
            ["vec_acc", "vec_op", "vec_op"],
        ))
        .instruction(InstructionDef::new(
            "VFMUL",
            Opcode::Vfmul,
            ["vec_acc", "vec_op", "vec_op"],
        ))
        .instruction(InstructionDef::new(
            "VFMLA",
            Opcode::Vfmla,
            ["vec_acc", "vec_op", "vec_op"],
        ))
        .instruction(InstructionDef::new(
            "VEOR",
            Opcode::Veor,
            ["vec_acc", "vec_op", "vec_op"],
        ))
        .instruction(InstructionDef::new(
            "VMUL",
            Opcode::Vmul,
            ["vec_acc", "vec_op", "vec_op"],
        ))
}

fn with_mem_ops(builder: PoolBuilder) -> PoolBuilder {
    builder
        .instruction(InstructionDef {
            name: "LDR".into(),
            parts: vec![gest_isa::InstructionPart::new(
                Opcode::Ldr,
                ["mem_result", "mem_base", "mem_offset"],
            )],
            format: Some("LDR op1,[op2,#op3]".into()),
        })
        .instruction(InstructionDef::new(
            "STR",
            Opcode::Str,
            ["int_op", "mem_base", "mem_offset"],
        ))
        .instruction(InstructionDef::new(
            "LDP",
            Opcode::Ldp,
            ["mem_result", "mem_result", "mem_base", "mem_offset"],
        ))
        .instruction(InstructionDef::new(
            "VLDR",
            Opcode::Vldr,
            ["vec_acc", "mem_base", "mem_offset"],
        ))
        .instruction(InstructionDef::new(
            "VSTR",
            Opcode::Vstr,
            ["vec_op", "mem_base", "mem_offset"],
        ))
}

fn with_branch_ops(builder: PoolBuilder) -> PoolBuilder {
    builder
        .instruction(InstructionDef::new("B", Opcode::B, ["skip"]))
        .instruction(InstructionDef::new("CBZ", Opcode::Cbz, ["int_op", "skip"]))
        .instruction(InstructionDef::new(
            "CBNZ",
            Opcode::Cbnz,
            ["int_op", "skip"],
        ))
}

/// The full default pool: every instruction category (power and
/// temperature searches use this — the GA decides the mix).
pub fn full_pool() -> InstructionPool {
    with_branch_ops(with_mem_ops(with_fp_ops(with_long_int_ops(with_int_ops(
        base_builder(),
    )))))
    .build()
    .expect("default pool is statically valid")
}

/// Alias of [`full_pool`]: power searches get the whole menu.
pub fn power_pool() -> InstructionPool {
    full_pool()
}

/// IPC-search pool: long-latency integer ops are left in deliberately —
/// the paper observes the GA eliminates them on its own ("after few
/// generations the DIV instruction will most probably be eliminated").
pub fn ipc_pool() -> InstructionPool {
    full_pool()
}

/// dI/dt-search pool: the full menu plus nothing extra — the low/high
/// activity phases come from the mix of serial (accumulator-chained,
/// divide) and wide (independent FP/SIMD) instructions the GA arranges.
pub fn didt_pool() -> InstructionPool {
    full_pool()
}

/// LLC/DRAM-stress pool (paper §VII: "providing in the input file
/// load/store instruction definitions with various strides, base memory
/// registers and various min-max immediate values"): the usual menu plus
/// far-striding loads/stores and a pointer-advance instruction, so the GA
/// can construct access patterns that defeat the L1. Use with a machine
/// whose scratch buffer exceeds L1 and the `cache_miss` measurement.
pub fn llc_pool() -> InstructionPool {
    let builder = base_builder()
        // Strides covering a 256 KiB window at line granularity.
        .operand(OperandDef::new(
            "far_offset",
            OperandKind::Imm {
                min: 0,
                max: 256 * 1024,
                stride: 64,
            },
        ))
        // Pointer-advance amounts: one line up to 4 KiB.
        .operand(OperandDef::new(
            "advance",
            OperandKind::Imm {
                min: 64,
                max: 4096,
                stride: 64,
            },
        ));
    let builder = with_branch_ops(with_mem_ops(with_fp_ops(with_int_ops(builder))))
        .instruction(InstructionDef::new(
            "LDR_far",
            Opcode::Ldr,
            ["mem_result", "mem_base", "far_offset"],
        ))
        .instruction(InstructionDef::new(
            "VLDR_far",
            Opcode::Vldr,
            ["vec_acc", "mem_base", "far_offset"],
        ))
        .instruction(InstructionDef::new(
            "STR_far",
            Opcode::Str,
            ["int_op", "mem_base", "far_offset"],
        ))
        .instruction(InstructionDef::new(
            "ADVANCE",
            Opcode::Addi,
            ["mem_base", "mem_base", "advance"],
        ));
    builder.build().expect("llc pool is statically valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_isa::InstrClass;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_pool_builds_and_covers_all_classes() {
        let pool = full_pool();
        let classes: std::collections::HashSet<InstrClass> =
            pool.defs().iter().map(|d| d.opcode().class()).collect();
        for class in [
            InstrClass::ShortInt,
            InstrClass::LongInt,
            InstrClass::FloatSimd,
            InstrClass::Mem,
            InstrClass::Branch,
        ] {
            assert!(classes.contains(&class), "missing {class}");
        }
    }

    #[test]
    fn paper_ldr_variations_preserved() {
        // The shipped LDR definition matches the paper's Figure 4 example:
        // 3 result registers × 1 base × 33 offsets = 99 forms.
        let pool = full_pool();
        let ldr = pool.def_index("LDR").unwrap();
        assert_eq!(pool.variations(ldr), 99);
    }

    #[test]
    fn loads_never_feed_alu_operands() {
        // Disjoint register classes: mem_result (x11-x13) vs int_op (x0-x7).
        let pool = full_pool();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let gene = pool.random_gene(&mut rng);
            if gene.first().opcode() == Opcode::Ldr || gene.first().opcode() == Opcode::Ldp {
                for dst in gene.first().int_dsts() {
                    assert!(
                        (11..=13).contains(&dst.index()),
                        "load destination {dst} outside mem_result class"
                    );
                }
            }
        }
    }

    #[test]
    fn generated_programs_execute() {
        use gest_isa::{ArchState, Template};
        let pool = full_pool();
        let mut rng = StdRng::seed_from_u64(9);
        let genes: Vec<_> = (0..50).map(|_| pool.random_gene(&mut rng)).collect();
        let body = gest_isa::InstructionPool::flatten(&genes);
        let program = Template::default_stress().materialize("t", body);
        let mut state = ArchState::new(1 << 14);
        program.apply_init(&mut state);
        for instr in &program.body {
            instr.apply(&mut state);
        }
    }

    #[test]
    fn llc_pool_has_far_strides() {
        let pool = llc_pool();
        let far = pool.def_index("LDR_far").expect("far load exists");
        // 3 dest regs x 1 base x 4097 offsets.
        assert!(pool.variations(far) > 10_000, "{}", pool.variations(far));
        assert!(pool.def_index("ADVANCE").is_some());
        // Programs from the llc pool still execute safely.
        use gest_isa::{ArchState, Template};
        let mut rng = StdRng::seed_from_u64(4);
        let genes: Vec<_> = (0..40).map(|_| pool.random_gene(&mut rng)).collect();
        let body = gest_isa::InstructionPool::flatten(&genes);
        let program = Template::default_stress().materialize("llc", body);
        let mut state = ArchState::new(1 << 20);
        program.apply_init(&mut state);
        for instr in &program.body {
            instr.apply(&mut state);
        }
    }

    #[test]
    fn total_search_space_is_large() {
        let pool = full_pool();
        assert!(
            pool.total_variations() > 1000,
            "{}",
            pool.total_variations()
        );
    }
}
