#![warn(missing_docs)]

//! The GeST framework: automatic CPU stress-test generation by genetic
//! algorithm search (reproduction of Hadjilambrou et al., ISPASS 2019).
//!
//! The framework ties together the five parts of paper Figure 1:
//!
//! 1. **Inputs** — [`GestConfig`]: GA parameters, the instruction/operand
//!    pool (paper Figure 4 schema, loadable from XML via
//!    [`GestConfig::from_xml_str`]), the template source with its
//!    `#loop_code` marker, and the names of the measurement and fitness
//!    plug-ins to use.
//! 2. **GA engine** — reused from [`gest_ga`], specialized to instruction
//!    genes by [`PoolGenetics`].
//! 3. **Measurement** — the [`Measurement`] trait (the paper's
//!    `Measurement.py`); shipped implementations run programs on the
//!    simulated machines from [`gest_sim`] and report average power,
//!    chip temperature, IPC, or oscilloscope-style voltage-noise numbers.
//! 4. **Fitness evaluation** — the [`Fitness`] trait (the paper's
//!    `DefaultFitness.py`), including the multi-objective
//!    temperature + instruction-simplicity function of paper Equation 1.
//! 5. **Outputs** — per-individual source files named
//!    `{generation}_{id}_{measurement...}.txt` and per-generation binary
//!    population files that can be post-processed ([`stats`]) or used to
//!    seed a new search, exactly as §III.D describes.
//!
//! # Examples
//!
//! A miniature power-virus search on the Cortex-A15 model:
//!
//! ```
//! # fn main() -> Result<(), gest_core::GestError> {
//! use gest_core::{GestConfig, GestRun};
//!
//! let config = GestConfig::builder("cortex-a15")
//!     .measurement("power")
//!     .population_size(8)
//!     .individual_size(10)
//!     .generations(3)
//!     .seed(42)
//!     .build()?;
//! let summary = GestRun::builder().config(config).build()?.run()?;
//! assert!(summary.best.fitness > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! Long searches survive crashes: run with
//! [`GestConfigBuilder::checkpoint_every`] set and an output directory,
//! then [`GestRun::resume`] the directory after an interruption — the
//! resumed search continues bit-identically (see [`checkpoint`]).

pub mod checkpoint;
mod config;
mod error;
mod evalbackend;
mod evalcache;
mod fault;
mod fitness;
mod genetics;
pub mod health;
mod measurement;
mod output;
mod pools;
mod registry;
mod runner;
pub mod stats;

pub use checkpoint::{config_fingerprint, Checkpoint, CHECKPOINT_FILE, CHECKPOINT_VERSION};
pub use config::{GestConfig, GestConfigBuilder};
pub use error::GestError;
pub use evalbackend::{catch_measure, watchdog_measure, EvalBackend, EvalRequest, LocalBackend};
pub use evalcache::{genes_hash, CachedEval, EvalCache, EvalCacheStats, EvalKey, EVAL_CACHE_FILE};
pub use fault::{FaultPolicy, QUARANTINE_FITNESS};
pub use fitness::{
    DefaultFitness, Fitness, FitnessContext, IpcPowerFitness, TempSimplicityFitness,
};
pub use genetics::PoolGenetics;
pub use measurement::{
    sim_fast_path_stats, CacheMissMeasurement, IpcMeasurement, MeasuredBatch, Measurement,
    NoisyMeasurement, PowerMeasurement, SimFastPathStats, TemperatureMeasurement,
    VoltageNoiseMeasurement,
};
pub use output::{OutputWriter, RealFs, RunIdAllocator, SavedIndividual, SavedPopulation, WriteFs};
pub use pools::{didt_pool, full_pool, ipc_pool, llc_pool, power_pool};
pub use registry::{FitnessParams, Registry};
pub use runner::{GestRun, GestRunBuilder, RunSummary, StepOutcome};
