//! Genome featurization for surrogate fitness models.
//!
//! Maps a GA individual (a slice of [`Gene`]s, i.e. the canonical codec
//! encoding's payload) to a small fixed-length numeric vector capturing
//! the properties the simulator's power/IPC/noise models respond to:
//! per-class instruction mix, dependency-distance structure, operand
//! toggle density, and register pressure. The vector feeds the runner's
//! online ridge-regression surrogate (`gest-core::surrogate`), which
//! screens candidates before full simulation.
//!
//! Everything here is pure integer/float arithmetic over the genes in
//! their stored order — no RNG, no ambient state — so featurization is
//! deterministic and identical across threads, lane widths, and resume.

use crate::def::Gene;
use crate::instruction::{Instruction, Operand};
use crate::opcode::InstrClass;
use crate::reg::{NUM_INT_REGS, NUM_VEC_REGS};

/// Length of the feature vector produced by [`featurize`], including the
/// trailing constant bias term.
pub const FEATURE_DIM: usize = 16;

/// A fixed-length genome feature vector; see [`featurize`] for the layout.
pub type FeatureVec = [f64; FEATURE_DIM];

/// Dependency-distance histogram buckets: distance 1, distance 2,
/// distances 3–4, and distance ≥ 5 (which includes every loop-carried
/// dependency, since those wrap the whole body).
const DIST_BUCKETS: usize = 4;

/// Featurizes one individual. Layout (canonical order):
///
/// | index | feature |
/// |-------|---------|
/// | 0–5   | instruction-class mix fractions, [`InstrClass::ALL`] order |
/// | 6–9   | dependency-distance histogram (1, 2, 3–4, ≥5/loop-carried) |
/// | 10    | operand toggle density: mean popcount of immediates / 64 |
/// | 11    | integer register pressure: distinct registers touched / 16 |
/// | 12    | vector register pressure: distinct registers touched / 16 |
/// | 13    | loop-carried source fraction |
/// | 14    | unique-definition fraction (the paper's simplicity metric) |
/// | 15    | constant bias term (always 1.0) |
///
/// Fractions are normalized so every component lies in `[0, 1]`,
/// keeping the downstream ridge regression scale-free. An empty genome
/// featurizes to all zeros plus the bias.
pub fn featurize(genes: &[Gene]) -> FeatureVec {
    let mut features = [0.0; FEATURE_DIM];
    features[FEATURE_DIM - 1] = 1.0;
    let instrs: Vec<&Instruction> = genes.iter().flat_map(|gene| gene.instrs.iter()).collect();
    if instrs.is_empty() {
        return features;
    }
    let total = instrs.len() as f64;

    // 0–5: class mix.
    for instr in &instrs {
        let class = instr.opcode().class();
        let slot = InstrClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("every class is in ALL");
        features[slot] += 1.0;
    }
    for share in features.iter_mut().take(InstrClass::ALL.len()) {
        *share /= total;
    }

    // 6–9 and 13: dependency distances (to the most recent producer of
    // each register source, wrapping around the loop body for
    // loop-carried dependencies) and the loop-carried fraction.
    let (histogram, carried, sources) = dependency_histogram(&instrs);
    if sources > 0 {
        for (bucket, &count) in histogram.iter().enumerate() {
            features[6 + bucket] = count as f64 / sources as f64;
        }
        features[13] = carried as f64 / sources as f64;
    }

    // 10: operand toggle density over immediate bit patterns.
    let mut imm_bits = 0u32;
    let mut imm_count = 0u32;
    for instr in &instrs {
        for operand in instr.operands() {
            if let Operand::Imm(value) = operand {
                imm_bits += (value as u64).count_ones();
                imm_count += 1;
            }
        }
    }
    if imm_count > 0 {
        features[10] = f64::from(imm_bits) / (64.0 * f64::from(imm_count));
    }

    // 11–12: register pressure.
    let mut int_used = [false; NUM_INT_REGS as usize];
    let mut vec_used = [false; NUM_VEC_REGS as usize];
    for instr in &instrs {
        for reg in instr.int_dsts().chain(instr.int_srcs()) {
            int_used[reg.index() as usize] = true;
        }
        for reg in instr.vec_dsts().chain(instr.vec_srcs()) {
            vec_used[reg.index() as usize] = true;
        }
    }
    features[11] = int_used.iter().filter(|&&used| used).count() as f64 / f64::from(NUM_INT_REGS);
    features[12] = vec_used.iter().filter(|&&used| used).count() as f64 / f64::from(NUM_VEC_REGS);

    // 14: unique definitions.
    let mut defs: Vec<usize> = genes.iter().map(|gene| gene.def_index).collect();
    defs.sort_unstable();
    defs.dedup();
    features[14] = defs.len() as f64 / genes.len() as f64;

    features
}

/// Distance from each register source to its most recent producer,
/// bucketed; returns `(histogram, loop_carried, sources_with_producer)`.
///
/// The body is a loop, so a source with no earlier producer wraps around
/// to the *last* producer in the body (a loop-carried dependency of
/// distance `position + len - producer`). Sources never produced at all
/// (live-in registers) are skipped.
fn dependency_histogram(instrs: &[&Instruction]) -> ([u32; DIST_BUCKETS], u32, u32) {
    let len = instrs.len();
    let mut final_int_def = [None; NUM_INT_REGS as usize];
    let mut final_vec_def = [None; NUM_VEC_REGS as usize];
    for (position, instr) in instrs.iter().enumerate() {
        for reg in instr.int_dsts() {
            final_int_def[reg.index() as usize] = Some(position);
        }
        for reg in instr.vec_dsts() {
            final_vec_def[reg.index() as usize] = Some(position);
        }
    }

    let mut histogram = [0u32; DIST_BUCKETS];
    let mut carried = 0u32;
    let mut sources = 0u32;
    let mut int_def = [None; NUM_INT_REGS as usize];
    let mut vec_def = [None; NUM_VEC_REGS as usize];
    let mut record = |distance: usize, is_carried: bool| {
        sources += 1;
        if is_carried {
            carried += 1;
        }
        let bucket = match distance {
            0 | 1 => 0,
            2 => 1,
            3 | 4 => 2,
            _ => 3,
        };
        histogram[bucket] += 1;
    };
    for (position, instr) in instrs.iter().enumerate() {
        for reg in instr.int_srcs() {
            let slot = reg.index() as usize;
            match (int_def[slot], final_int_def[slot]) {
                (Some(producer), _) => record(position - producer, false),
                (None, Some(producer)) => record(position + len - producer, true),
                (None, None) => {}
            }
        }
        for reg in instr.vec_srcs() {
            let slot = reg.index() as usize;
            match (vec_def[slot], final_vec_def[slot]) {
                (Some(producer), _) => record(position - producer, false),
                (None, Some(producer)) => record(position + len - producer, true),
                (None, None) => {}
            }
        }
        for reg in instr.int_dsts() {
            int_def[reg.index() as usize] = Some(position);
        }
        for reg in instr.vec_dsts() {
            vec_def[reg.index() as usize] = Some(position);
        }
    }
    (histogram, carried, sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    fn gene_of(line: &str) -> Gene {
        Gene {
            def_index: 0,
            instrs: vec![asm::parse_line(line).unwrap().unwrap()],
        }
    }

    #[test]
    fn empty_genome_is_bias_only() {
        let features = featurize(&[]);
        assert_eq!(features[FEATURE_DIM - 1], 1.0);
        assert_eq!(features[..FEATURE_DIM - 1], [0.0; FEATURE_DIM - 1]);
    }

    #[test]
    fn class_mix_and_pressure_are_fractions() {
        let genes = vec![
            gene_of("ADD x1, x2, x3"),
            gene_of("ADD x4, x1, x1"),
            gene_of("NOP"),
            gene_of("NOP"),
        ];
        let features = featurize(&genes);
        // Two ShortInt (first ALL slot), two Nop (last ALL slot).
        assert!((features[0] - 0.5).abs() < 1e-12);
        assert!((features[5] - 0.5).abs() < 1e-12);
        // Registers x1..x4: 4 of 16.
        assert!((features[11] - 0.25).abs() < 1e-12);
        assert_eq!(features[12], 0.0);
        assert_eq!(features[FEATURE_DIM - 1], 1.0);
        for value in features {
            assert!((0.0..=1.0).contains(&value), "{features:?}");
        }
    }

    #[test]
    fn dependency_distances_wrap_the_loop() {
        // x1 is written at position 1 and read at position 0: a
        // loop-carried dependency of distance 0 + 2 - 1 = 1.
        let genes = vec![gene_of("ADD x2, x1, x1"), gene_of("ADD x1, x3, x3")];
        let features = featurize(&genes);
        assert!(features[6] > 0.0, "distance-1 bucket: {features:?}");
        assert!(features[13] > 0.0, "loop-carried fraction: {features:?}");
    }

    #[test]
    fn identical_genomes_featurize_identically() {
        let genes = vec![gene_of("MUL x5, x6, x7"), gene_of("ADD x1, x5, x5")];
        let a = featurize(&genes);
        let b = featurize(&genes.clone());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
