//! Search-health diagnostics: population diversity, stall detection, and
//! fault-rate trend.
//!
//! The paper's workflow watches fitness convergence to decide when a
//! stress-test is "done" (§IV); these metrics answer the adjacent
//! operational questions — *is the population collapsing?*, *has the
//! search stalled?*, *are measurements failing?* — per generation,
//! without feeding anything back into the GA. Everything here is computed
//! from read-only views (the evaluated population and the convergence
//! history), so enabling health diagnostics never changes the evolved
//! result.

use gest_ga::{History, Population};
use gest_isa::codec::Encoder;
use gest_isa::Gene;

/// Plateau window used by the runner's per-generation health probe: the
/// search counts as plateaued when the best fitness has not improved by
/// more than [`HEALTH_EPSILON`] over this many generations.
pub const HEALTH_WINDOW: usize = 5;

/// Fitness-improvement threshold below which a generation does not reset
/// the plateau window.
pub const HEALTH_EPSILON: f64 = 1e-9;

/// One generation's health snapshot, emitted as a `health` trace point
/// and mirrored into `health.*` gauges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthReport {
    /// Generation the snapshot describes.
    pub generation: u32,
    /// Mean pairwise normalized genome distance in `[0, 1]`: `0` means
    /// every individual encodes byte-identically (population collapse),
    /// `1` means no two genomes share a byte.
    pub diversity: f64,
    /// Generations since the best-ever fitness last improved (`0` when
    /// this generation set a new best).
    pub stall_generations: u32,
    /// Whether the best fitness has been flat for [`HEALTH_WINDOW`]
    /// generations (per [`History::plateaued`]).
    pub plateaued: bool,
}

/// Canonical byte encoding of one individual's genes — the same codec
/// rendering population files and [`crate::genes_hash`] use, so distance
/// is measured over exactly the bytes that determine artifact identity.
pub fn genome_bytes(genes: &[Gene]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.genes(genes);
    enc.into_bytes()
}

/// Normalized distance between two canonical genome encodings: byte
/// Hamming distance over the common prefix plus the length difference,
/// divided by the longer length. `0.0` for identical encodings, `1.0`
/// for fully disjoint ones; `0.0` when both are empty.
pub fn genome_distance(a: &[u8], b: &[u8]) -> f64 {
    let longest = a.len().max(b.len());
    if longest == 0 {
        return 0.0;
    }
    let differing = differing_bytes(a, b) + a.len().abs_diff(b.len());
    differing as f64 / longest as f64
}

/// Positions where `a` and `b` differ over their common prefix, compared
/// eight bytes at a time: a byte of `x = a ^ b` is non-zero exactly when
/// adding `0x7f` to its low seven bits, or its own high bit, sets bit 7.
/// The per-byte sums stay below `0x100`, so no carry crosses a byte.
fn differing_bytes(a: &[u8], b: &[u8]) -> usize {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let common = a.len().min(b.len());
    let (a, b) = (&a[..common], &b[..common]);
    let words_a = a.chunks_exact(8);
    let words_b = b.chunks_exact(8);
    let tail = words_a
        .remainder()
        .iter()
        .zip(words_b.remainder())
        .filter(|(byte_a, byte_b)| byte_a != byte_b)
        .count();
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    words_a
        .zip(words_b)
        .map(|(word_a, word_b)| {
            let x = word(word_a) ^ word(word_b);
            ((((x & LOW7) + LOW7) | x) & HIGH).count_ones() as usize
        })
        .sum::<usize>()
        + tail
}

/// Mean pairwise [`genome_distance`] across the population. `0.0` for
/// fewer than two individuals. The pair loop is O(P²) over pre-encoded
/// genomes — about as long as a whole generation of cache hits at the
/// paper's population of 50 — so the runner computes it only for traced
/// runs, where the `health` point reads it.
pub fn population_diversity(population: &Population<Gene>) -> f64 {
    let encoded: Vec<Vec<u8>> = population
        .individuals
        .iter()
        .map(|individual| genome_bytes(&individual.genes))
        .collect();
    if encoded.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0u64;
    for (i, a) in encoded.iter().enumerate() {
        for b in &encoded[i + 1..] {
            total += genome_distance(a, b);
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Generations since the running best fitness last improved: `0` when
/// the latest recorded generation set a new best, and `0` for an empty
/// history.
pub fn stall_generations(history: &History) -> u32 {
    let summaries = history.summaries();
    let mut best = f64::NEG_INFINITY;
    let mut last_improvement = 0;
    for (index, summary) in summaries.iter().enumerate() {
        if summary.best_fitness > best {
            best = summary.best_fitness;
            last_improvement = index;
        }
    }
    summaries.len().saturating_sub(last_improvement + 1) as u32
}

/// Computes the full health snapshot for the generation just evaluated.
pub fn report(generation: u32, population: &Population<Gene>, history: &History) -> HealthReport {
    HealthReport {
        generation,
        diversity: population_diversity(population),
        stall_generations: stall_generations(history),
        plateaued: history.plateaued(HEALTH_WINDOW, HEALTH_EPSILON),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_ga::Evaluated;
    use gest_isa::{Instruction, Opcode, Operand, Reg};
    use proptest::prelude::*;

    fn gene(def_index: usize, rd: u8) -> Gene {
        let reg = |i: u8| Operand::Reg(Reg::new(i).unwrap());
        Gene {
            def_index,
            instrs: vec![Instruction::new(Opcode::Add, vec![reg(rd), reg(1), reg(2)]).unwrap()]
                .into(),
        }
    }

    fn individual(id: u64, fitness: f64, genes: Vec<Gene>) -> Evaluated<Gene> {
        Evaluated {
            id,
            parents: (None, None),
            genes,
            fitness,
            measurements: vec![fitness],
        }
    }

    #[test]
    fn distance_is_zero_for_identical_and_one_for_disjoint() {
        assert_eq!(genome_distance(&[], &[]), 0.0);
        assert_eq!(genome_distance(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(genome_distance(&[1, 2], &[3, 4]), 1.0);
        // Common prefix, one extra byte: 1 differing position out of 3.
        assert!((genome_distance(&[1, 2, 3], &[1, 2]) - 1.0 / 3.0).abs() < 1e-12);
    }

    /// The byte-at-a-time distance the word-wise one must reproduce.
    fn scalar_distance(a: &[u8], b: &[u8]) -> f64 {
        let longest = a.len().max(b.len());
        if longest == 0 {
            return 0.0;
        }
        let differing = a
            .iter()
            .zip(b.iter())
            .filter(|(byte_a, byte_b)| byte_a != byte_b)
            .count()
            + a.len().abs_diff(b.len());
        differing as f64 / longest as f64
    }

    #[test]
    fn word_distance_counts_every_byte_value() {
        // Each lane differing by every possible XOR value, including the
        // high-bit-only and low-bit-only patterns the trick relies on.
        for delta in 0..=255u8 {
            let a = [0x5au8; 19];
            let b: Vec<u8> = a.iter().map(|byte| byte ^ delta).collect();
            assert_eq!(
                genome_distance(&a, &b).to_bits(),
                scalar_distance(&a, &b).to_bits(),
                "delta {delta:#04x}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn word_distance_matches_the_scalar_oracle(
            a in prop::collection::vec(any::<u8>(), 0..40usize),
            b in prop::collection::vec(any::<u8>(), 0..40usize),
            short in prop::collection::vec(any::<u8>(), 0..8usize),
            edits in prop::collection::vec((any::<bool>(), any::<u8>()), 40usize),
        ) {
            let same = |x: &[u8], y: &[u8]| {
                prop_assert_eq!(
                    genome_distance(x, y).to_bits(),
                    scalar_distance(x, y).to_bits(),
                    "{:?} vs {:?}",
                    x,
                    y
                );
            };
            // Unrelated bytes, mostly of unequal lengths.
            same(&a, &b);
            // Equal lengths with sparse edits, the common case for two
            // genomes of one population.
            let near: Vec<u8> = a
                .iter()
                .zip(&edits)
                .map(|(&byte, &(edit, value))| if edit { value } else { byte })
                .collect();
            same(&a, &near);
            // Shorter than one word, and empty.
            same(&short, &a);
            same(&short, &near);
            same(&short, &[]);
            same(&[], &[]);
        }
    }

    #[test]
    fn collapsed_population_has_zero_diversity() {
        let genes = vec![gene(0, 1)];
        let population = Population {
            generation: 0,
            individuals: vec![
                individual(0, 1.0, genes.clone()),
                individual(1, 2.0, genes.clone()),
                individual(2, 3.0, genes),
            ],
        };
        assert_eq!(population_diversity(&population), 0.0);
    }

    #[test]
    fn varied_population_has_positive_diversity() {
        let population = Population {
            generation: 0,
            individuals: vec![
                individual(0, 1.0, vec![gene(0, 1)]),
                individual(1, 2.0, vec![gene(1, 2)]),
            ],
        };
        let diversity = population_diversity(&population);
        assert!(diversity > 0.0 && diversity <= 1.0, "got {diversity}");
        // Fewer than two individuals: trivially zero.
        let single = Population {
            generation: 0,
            individuals: vec![individual(0, 1.0, vec![gene(0, 1)])],
        };
        assert_eq!(population_diversity(&single), 0.0);
    }

    #[test]
    fn stall_counts_generations_since_last_improvement() {
        let mut history = History::new();
        assert_eq!(stall_generations(&history), 0);
        for (generation, fitness) in [(0, 1.0), (1, 2.0), (2, 2.0), (3, 1.5)] {
            history.record(&Population {
                generation,
                individuals: vec![individual(u64::from(generation), fitness, vec![gene(0, 1)])],
            });
        }
        // Last improvement at generation 1; generations 2 and 3 stalled.
        assert_eq!(stall_generations(&history), 2);
    }
}
