//! Absolute simulator digests over a seeded program corpus.
//!
//! For each machine preset, 64 seeded programs — together covering every
//! opcode, loads and stores, taken and not-taken branches, and divides —
//! run with the steady-state detector on and off, one program per call
//! through one reused scratch. FNV-1a 64 over every `RunResult` field (floats as their bits)
//! pins the simulator's output itself, not just agreement between two
//! paths of one build. One traced run per machine pins the per-cycle
//! power and voltage waveforms as well.
//!
//! Changing a digest is a deliberate, reviewed act: a mismatch prints the
//! digests the current build produces.

use gest_isa::{
    ArchState, Flow, Instruction, MemInit, Opcode, Operand, OperandSlot, Program, Reg, VReg,
};
use gest_sim::{MachineConfig, RunConfig, RunResult, RunScratch, Simulator, Traces};
use std::collections::BTreeSet;

/// Programs generated per machine.
const PROGRAMS: usize = 64;

/// `(machine, steady on, steady off, traced waveform)` digests.
const GOLDEN: [(&str, u64, u64, u64); 4] = [
    (
        "cortex-a15",
        0xa629_e2b6_ff97_614e,
        0xa629_e2b6_ff97_614e,
        0xe09c_93dd_4647_ee75,
    ),
    (
        "cortex-a7",
        0xb6e7_a7a6_d0d5_0839,
        0xb6e7_a7a6_d0d5_0839,
        0x142f_4384_d871_ea36,
    ),
    (
        "xgene2",
        0x93f4_ccfe_738d_9294,
        0x93f4_ccfe_738d_9294,
        0xda2a_8437_7f58_d5cc,
    ),
    (
        "athlon-x4",
        0xdd43_5aa0_174d_c5ba,
        0xdd43_5aa0_174d_c5ba,
        0x91dc_0d7e_21ad_33f6,
    ),
];

/// FNV-1a 64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn result(&mut self, r: &RunResult) {
        self.bytes(r.name.as_bytes());
        self.u64(r.cycles);
        self.u64(r.instructions);
        self.f64(r.ipc);
        self.f64(r.energy_j);
        self.f64(r.avg_power_w);
        self.f64(r.chip_power_w);
        self.f64(r.peak_power_w);
        self.f64(r.temperature_c);
        self.f64(r.steady_temp_c);
        self.u64(r.l1.hits);
        self.u64(r.l1.misses);
        self.f64(r.branch_accuracy);
        match r.voltage {
            Some(v) => {
                self.u64(1);
                self.f64(v.nominal_v);
                self.f64(v.min_v);
                self.f64(v.max_v);
            }
            None => self.u64(0),
        }
        for &count in &r.class_counts {
            self.u64(count);
        }
    }

    fn traces(&mut self, t: &Traces) {
        self.u64(t.power_w.len() as u64);
        for &p in &t.power_w {
            self.bytes(&p.to_bits().to_le_bytes());
        }
        self.u64(t.voltage_v.len() as u64);
        for &v in &t.voltage_v {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// SplitMix64: a self-contained stream, so the corpus never moves with a
/// dependency's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A register/immediate value: zeros (so `CBZ` takes and divides hit
/// their zero-divisor path), small integers, checkerboards, FP values
/// near one, and raw random bits.
fn value(rng: &mut Rng) -> i64 {
    match rng.below(6) {
        0 => 0,
        1 => rng.below(64) as i64 - 8,
        2 => Program::CHECKERBOARD as i64,
        3 => !Program::CHECKERBOARD as i64,
        4 => (1.0 + rng.below(1 << 20) as f64 * 1e-7).to_bits() as i64,
        _ => rng.next() as i64,
    }
}

fn instruction(rng: &mut Rng, opcode: Opcode) -> Instruction {
    let operands = opcode
        .slots()
        .iter()
        .map(|slot| match slot {
            OperandSlot::IntDst | OperandSlot::IntSrc => {
                Operand::Reg(Reg::new(rng.below(16) as u8).unwrap())
            }
            OperandSlot::VecDst | OperandSlot::VecSrc => {
                Operand::VReg(VReg::new(rng.below(16) as u8).unwrap())
            }
            OperandSlot::Imm if opcode.is_mem() => Operand::Imm(rng.below(129) as i64 * 8 - 512),
            OperandSlot::Imm if matches!(opcode, Opcode::Movi | Opcode::Vmovi) => {
                Operand::Imm(value(rng))
            }
            OperandSlot::Imm => Operand::Imm(rng.below(64) as i64),
            OperandSlot::BranchTarget => Operand::Target(1 + rng.below(3) as u8),
        })
        .collect();
    Instruction::new(opcode, operands).unwrap()
}

fn random_opcode(rng: &mut Rng) -> Opcode {
    Opcode::ALL[rng.below(Opcode::ALL.len() as u64) as usize]
}

/// Program `index` of a machine's corpus. Its first body instruction
/// walks `Opcode::ALL`, so every opcode appears in every machine's corpus.
fn program(rng: &mut Rng, machine: &str, index: usize) -> Program {
    let mut init = Vec::new();
    for r in 0..16u8 {
        init.push(
            Instruction::new(
                Opcode::Movi,
                vec![Operand::Reg(Reg::new(r).unwrap()), Operand::Imm(value(rng))],
            )
            .unwrap(),
        );
    }
    for v in 0..16u8 {
        init.push(
            Instruction::new(
                Opcode::Vmovi,
                vec![
                    Operand::VReg(VReg::new(v).unwrap()),
                    Operand::Imm(value(rng)),
                    Operand::Imm(value(rng)),
                ],
            )
            .unwrap(),
        );
    }
    // A few arbitrary instructions (stores and branches included) so the
    // init block itself exercises more than register moves.
    for _ in 0..rng.below(6) {
        let opcode = random_opcode(rng);
        init.push(instruction(rng, opcode));
    }
    let len = 4 + rng.below(21) as usize;
    let mut body = vec![instruction(rng, Opcode::ALL[index % Opcode::ALL.len()])];
    // Half the corpus draws from a small per-program menu, which makes
    // loop-invariant bodies (and so steady-state hits) common.
    let menu: Vec<Instruction> = (0..3)
        .map(|_| {
            let opcode = random_opcode(rng);
            instruction(rng, opcode)
        })
        .collect();
    let repetitive = index % 2 == 1;
    while body.len() < len {
        if repetitive {
            body.push(menu[rng.below(menu.len() as u64) as usize]);
        } else {
            let opcode = random_opcode(rng);
            body.push(instruction(rng, opcode));
        }
    }
    let mem_init = match rng.below(3) {
        0 => MemInit::Zero,
        1 => MemInit::Checkerboard,
        _ => MemInit::Fill(rng.below(256) as u8),
    };
    Program {
        name: format!("{machine}-{index}"),
        init,
        body,
        mem_init,
    }
}

fn corpus(machine: &MachineConfig, seed: u64) -> Vec<Program> {
    let mut rng = Rng(seed);
    (0..PROGRAMS)
        .map(|index| program(&mut rng, &machine.name, index))
        .collect()
}

/// What the corpus exercises, observed by functional execution.
#[derive(Default)]
struct Coverage {
    opcodes: BTreeSet<Opcode>,
    loads: u64,
    stores: u64,
    taken: u64,
    not_taken: u64,
    divides: u64,
}

fn cover(programs: &[Program], mem_bytes: usize, coverage: &mut Coverage) {
    for program in programs {
        let mut state = ArchState::new(mem_bytes);
        program.apply_init(&mut state);
        for _ in 0..4 {
            let mut pc = 0;
            while pc < program.body.len() {
                let instr = &program.body[pc];
                let effect = instr.apply(&mut state);
                let opcode = instr.opcode();
                coverage.opcodes.insert(opcode);
                if let Some(access) = effect.mem {
                    if access.is_store {
                        coverage.stores += 1;
                    } else {
                        coverage.loads += 1;
                    }
                }
                if matches!(opcode, Opcode::Cbz | Opcode::Cbnz) {
                    if effect.branch_taken {
                        coverage.taken += 1;
                    } else {
                        coverage.not_taken += 1;
                    }
                }
                if matches!(opcode, Opcode::Sdiv | Opcode::Udiv | Opcode::Fdiv) {
                    coverage.divides += 1;
                }
                pc += 1;
                if let Flow::Skip(n) = effect.flow {
                    pc += n as usize;
                }
            }
        }
    }
}

/// Digests one machine's corpus with the detector on and off (one program
/// per call through one scratch) and one traced run.
fn digests(machine: &MachineConfig, programs: &[Program]) -> (u64, u64, u64, u64) {
    let simulator = Simulator::new(machine.clone());
    let mut out = [0u64; 2];
    let mut steady_hits = 0;
    for (slot, steady_detect) in [true, false].into_iter().enumerate() {
        let config = RunConfig {
            steady_detect,
            ..RunConfig::quick()
        };
        let mut scratch = RunScratch::new();
        let mut fnv = Fnv::new();
        for program in programs {
            fnv.result(
                &simulator
                    .run_with_scratch(program, &config, &mut scratch)
                    .unwrap(),
            );
        }
        out[slot] = fnv.0;
        if steady_detect {
            steady_hits = scratch.steady_hits;
        }
    }
    let (result, traces) = simulator
        .run_traced(&programs[0], &RunConfig::quick())
        .unwrap();
    let mut fnv = Fnv::new();
    fnv.result(&result);
    fnv.traces(&traces);
    (out[0], out[1], fnv.0, steady_hits)
}

#[test]
fn seeded_corpus_matches_committed_digests_on_every_preset() {
    let mut coverage = Coverage::default();
    let mut actual = Vec::new();
    for (seed, machine) in MachineConfig::all_presets().iter().enumerate() {
        let programs = corpus(machine, 0x5eed_0000 + seed as u64);
        cover(&programs, machine.mem_bytes, &mut coverage);
        let (on, off, traced, steady_hits) = digests(machine, &programs);
        assert_eq!(on, off, "{}: the detector must be invisible", machine.name);
        assert!(
            steady_hits > 0 && steady_hits < PROGRAMS as u64,
            "{}: the corpus must mix steady and non-steady runs, got {steady_hits} hits",
            machine.name
        );
        actual.push((machine.name.clone(), on, off, traced));
    }

    assert_eq!(
        coverage.opcodes.len(),
        Opcode::ALL.len(),
        "every opcode must execute"
    );
    assert!(coverage.loads > 0 && coverage.stores > 0);
    assert!(coverage.taken > 0 && coverage.not_taken > 0);
    assert!(coverage.divides > 0);

    let expected: Vec<(String, u64, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, on, off, traced)| (name.to_owned(), on, off, traced))
        .collect();
    assert_eq!(
        actual,
        expected,
        "simulator corpus digests moved; this build produces:\n{}",
        actual
            .iter()
            .map(|(name, on, off, traced)| format!(
                "    (\"{name}\", {on:#018x}, {off:#018x}, {traced:#018x}),"
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
