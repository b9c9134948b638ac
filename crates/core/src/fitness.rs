//! The fitness plug-in interface (the paper's `DefaultFitness.py`).
//!
//! A fitness function ranks individuals from their measurement values and,
//! for multi-objective functions, properties of the instruction sequence
//! itself (the paper's temperature + simplicity search, Equation 1).

use gest_isa::{Gene, InstructionPool};
use std::fmt::Debug;

/// Everything a fitness function may consult for one individual.
#[derive(Debug, Clone, Copy)]
pub struct FitnessContext<'a> {
    /// Measurement values, in the measurement's metric order.
    pub measurements: &'a [f64],
    /// The individual's genes.
    pub genes: &'a [Gene],
    /// The pool the genes were drawn from (for unique-instruction counts).
    pub pool: &'a InstructionPool,
}

/// Assigns a fitness value to a measured individual.
pub trait Fitness: Send + Sync + Debug {
    /// Identifier used in configuration files.
    fn name(&self) -> &'static str;

    /// Computes the fitness (higher is fitter).
    fn fitness(&self, ctx: &FitnessContext<'_>) -> f64;
}

/// The paper's default: the first measurement *is* the fitness.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultFitness;

impl Fitness for DefaultFitness {
    fn name(&self) -> &'static str {
        "default"
    }

    fn fitness(&self, ctx: &FitnessContext<'_>) -> f64 {
        ctx.measurements.first().copied().unwrap_or(0.0)
    }
}

/// Paper Equation 1: reward high temperature *and* instruction-stream
/// simplicity (few unique instructions), weighted equally:
///
/// ```text
/// F = (M_T − I_T) / (MAX_T − I_T) · 0.5 + (T_I − U_I) / T_I · 0.5
/// ```
///
/// where `M_T` is the measured temperature (first measurement), `I_T` the
/// idle temperature, `MAX_T` the maximum temperature (TJMAX or a previous
/// run's best), `T_I` the total and `U_I` the unique instruction count.
///
/// # Examples
///
/// ```
/// use gest_core::TempSimplicityFitness;
/// let fitness = TempSimplicityFitness::new(30.0, 105.0);
/// // Paper's worked example: 50 instructions, 25 unique → simplicity 0.5;
/// // 15 unique → 0.7.
/// assert!((fitness.simplicity_score(50, 25) - 0.5).abs() < 1e-12);
/// assert!((fitness.simplicity_score(50, 15) - 0.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TempSimplicityFitness {
    /// Idle temperature `I_T` (°C).
    pub idle_c: f64,
    /// Maximum temperature `MAX_T` (°C).
    pub max_c: f64,
}

impl TempSimplicityFitness {
    /// Creates the fitness with the given idle and maximum temperatures.
    pub fn new(idle_c: f64, max_c: f64) -> TempSimplicityFitness {
        TempSimplicityFitness { idle_c, max_c }
    }

    /// The temperature half of Equation 1, clamped to `[0, 1]`
    /// (unweighted). A degenerate range (`max_c <= idle_c`) scores 0 so the
    /// fitness never turns NaN and poisons selection.
    pub fn temperature_score(&self, measured_c: f64) -> f64 {
        let range = self.max_c - self.idle_c;
        if range <= 0.0 {
            return 0.0;
        }
        ((measured_c - self.idle_c) / range).clamp(0.0, 1.0)
    }

    /// The simplicity half of Equation 1 (unweighted): `(T_I − U_I) / T_I`.
    pub fn simplicity_score(&self, total: usize, unique: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        (total - unique.min(total)) as f64 / total as f64
    }
}

impl Fitness for TempSimplicityFitness {
    fn name(&self) -> &'static str {
        "temp_simplicity"
    }

    fn fitness(&self, ctx: &FitnessContext<'_>) -> f64 {
        let measured = ctx.measurements.first().copied().unwrap_or(self.idle_c);
        let unique = InstructionPool::unique_defs(ctx.genes);
        self.temperature_score(measured) * 0.5
            + self.simplicity_score(ctx.genes.len(), unique) * 0.5
    }
}

/// An example of a different multi-objective trade-off: maximize the first
/// measurement while *penalizing* the second (e.g. maximize voltage droop
/// while keeping average power low, a combination the paper calls out as
/// a desirable custom fitness in §III.C).
#[derive(Debug, Clone, Copy)]
pub struct IpcPowerFitness {
    /// Weight on the second measurement's penalty term.
    pub penalty_weight: f64,
    /// Normalization for the second measurement.
    pub penalty_scale: f64,
}

impl Default for IpcPowerFitness {
    fn default() -> Self {
        IpcPowerFitness {
            penalty_weight: 0.25,
            penalty_scale: 1.0,
        }
    }
}

impl Fitness for IpcPowerFitness {
    fn name(&self) -> &'static str {
        "primary_minus_secondary"
    }

    fn fitness(&self, ctx: &FitnessContext<'_>) -> f64 {
        let primary = ctx.measurements.first().copied().unwrap_or(0.0);
        let secondary = ctx.measurements.get(1).copied().unwrap_or(0.0);
        primary - self.penalty_weight * secondary / self.penalty_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::full_pool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn context_with<'a>(
        pool: &'a InstructionPool,
        genes: &'a [Gene],
        measurements: &'a [f64],
    ) -> FitnessContext<'a> {
        FitnessContext {
            measurements,
            genes,
            pool,
        }
    }

    #[test]
    fn default_fitness_is_first_measurement() {
        let pool = full_pool();
        let ctx = context_with(&pool, &[], &[3.5, 9.9]);
        assert_eq!(DefaultFitness.fitness(&ctx), 3.5);
        let empty = context_with(&pool, &[], &[]);
        assert_eq!(DefaultFitness.fitness(&empty), 0.0);
    }

    #[test]
    fn equation1_bounds() {
        let pool = full_pool();
        let mut rng = StdRng::seed_from_u64(1);
        let genes: Vec<Gene> = (0..50).map(|_| pool.random_gene(&mut rng)).collect();
        let fitness = TempSimplicityFitness::new(30.0, 105.0);
        for temp in [0.0, 30.0, 70.0, 105.0, 400.0] {
            let measurements = [temp];
            let ctx = context_with(&pool, &genes, &measurements);
            let value = fitness.fitness(&ctx);
            assert!(
                (0.0..=1.0).contains(&value),
                "temp {temp} → fitness {value}"
            );
        }
    }

    #[test]
    fn equation1_rewards_fewer_unique_instructions() {
        let pool = full_pool();
        let mut rng = StdRng::seed_from_u64(2);
        // Diverse individual: 30 random genes; simple individual: one gene
        // repeated 30 times.
        let diverse: Vec<Gene> = (0..30).map(|_| pool.random_gene(&mut rng)).collect();
        let simple: Vec<Gene> = vec![pool.random_gene(&mut rng); 30];
        let fitness = TempSimplicityFitness::new(30.0, 105.0);
        let same_temp = [70.0];
        let f_diverse = fitness.fitness(&context_with(&pool, &diverse, &same_temp));
        let f_simple = fitness.fitness(&context_with(&pool, &simple, &same_temp));
        assert!(f_simple > f_diverse, "{f_simple} vs {f_diverse}");
    }

    #[test]
    fn equation1_rewards_temperature_equally() {
        let pool = full_pool();
        let mut rng = StdRng::seed_from_u64(3);
        let genes: Vec<Gene> = (0..30).map(|_| pool.random_gene(&mut rng)).collect();
        let fitness = TempSimplicityFitness::new(30.0, 105.0);
        let cold = fitness.fitness(&context_with(&pool, &genes, &[40.0]));
        let hot = fitness.fitness(&context_with(&pool, &genes, &[100.0]));
        assert!(hot > cold);
        // Equal weights: the temperature half alone can move fitness by at
        // most 0.5.
        assert!(hot - cold <= 0.5 + 1e-12);
    }

    #[test]
    fn penalty_fitness_trades_off() {
        let pool = full_pool();
        let fitness = IpcPowerFitness {
            penalty_weight: 0.5,
            penalty_scale: 1.0,
        };
        let high_primary = fitness.fitness(&context_with(&pool, &[], &[4.0, 2.0]));
        let low_penalty = fitness.fitness(&context_with(&pool, &[], &[3.5, 0.0]));
        assert!((high_primary - 3.0).abs() < 1e-12);
        assert!(low_penalty > high_primary);
    }

    #[test]
    fn degenerate_temperature_range_scores_zero_not_nan() {
        let fitness = TempSimplicityFitness::new(50.0, 50.0);
        assert_eq!(fitness.temperature_score(60.0), 0.0);
        let inverted = TempSimplicityFitness::new(80.0, 50.0);
        assert_eq!(inverted.temperature_score(60.0), 0.0);
    }

    #[test]
    fn simplicity_score_edge_cases() {
        let fitness = TempSimplicityFitness::new(0.0, 1.0);
        assert_eq!(fitness.simplicity_score(0, 0), 0.0);
        assert_eq!(fitness.simplicity_score(10, 10), 0.0);
        assert!((fitness.simplicity_score(10, 1) - 0.9).abs() < 1e-12);
    }
}
