#![warn(missing_docs)]

//! Genetic-algorithm engine for GeST.
//!
//! Implements the GA flow of paper §III.A / Figure 2: seed population →
//! measure individuals → create the next generation with tournament
//! selection, crossover (one-point by default — the paper finds it
//! preserves instruction order and converges faster than uniform),
//! per-gene mutation, and elitism. The engine is generic over the gene
//! type via the [`Genetics`] trait, so the same machinery can evolve
//! instruction sequences (the GeST use case) or anything else.
//!
//! Measurement and fitness evaluation live *outside* the engine, exactly
//! as in the paper's architecture (Figure 1): [`GaEngine::seed`] and
//! [`GaEngine::next_generation`] produce [`Candidate`]s; the caller
//! measures them, assigns fitness, and feeds back an evaluated
//! [`Population`].
//!
//! # Examples
//!
//! Evolving byte strings toward maximum sum:
//!
//! ```
//! use gest_ga::{Candidate, Evaluated, GaConfig, GaEngine, Genetics, Population};
//! use rand::rngs::StdRng;
//! use rand::Rng;
//!
//! struct Bytes;
//! impl Genetics for Bytes {
//!     type Gene = u8;
//!     fn random_gene(&self, rng: &mut StdRng) -> u8 { rng.random() }
//!     fn mutate_gene(&self, gene: &mut u8, rng: &mut StdRng) { *gene = rng.random(); }
//! }
//!
//! let config = GaConfig { individual_size: 8, population_size: 20, ..GaConfig::default() };
//! let mut engine = GaEngine::new(config, Bytes, 42);
//! let mut population = Population::evaluate(0, engine.seed(), |genes| {
//!     let fitness = genes.iter().map(|&b| b as f64).sum();
//!     (fitness, vec![fitness])
//! });
//! for generation in 1..=30 {
//!     let candidates = engine.next_generation(&population);
//!     population = Population::evaluate(generation, candidates, |genes| {
//!         let fitness = genes.iter().map(|&b| b as f64).sum();
//!         (fitness, vec![fitness])
//!     });
//! }
//! assert!(population.best().unwrap().fitness > 8.0 * 200.0);
//! ```

mod config;
mod engine;
mod hash;
mod history;
mod ops;
mod population;

pub use config::{CrossoverOp, GaConfig, GaConfigError, SelectionOp};
pub use engine::{Candidate, EngineState, GaEngine, Genetics, OpCounts};
pub use hash::{canonical_hash_bytes, Fnv128};
pub use history::{GenerationSummary, History};
pub use ops::{crossover_one_point, crossover_uniform, mutate, tournament_select};
pub use population::{Evaluated, Population};
