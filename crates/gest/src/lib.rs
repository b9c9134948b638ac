#![warn(missing_docs)]

//! GeST — automatic CPU stress-test generation by genetic-algorithm
//! search.
//!
//! A Rust reproduction of *GeST: An Automatic Framework For Generating CPU
//! Stress-Tests* (Hadjilambrou, Das, Whatmough, Bull, Sazeides — ISPASS
//! 2019), complete with the simulated CPU substrate (pipeline timing,
//! activity-based power, RC thermal, RLC power-delivery network) that
//! stands in for the paper's lab hardware.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`isa`] — the synthetic ARM-flavoured instruction set, the
//!   instruction/operand definition schema (paper Figure 4), templates
//!   with `#loop_code` markers, and the assembler;
//! * [`ga`] — the genetic-algorithm engine (paper §III.A, Table I);
//! * [`sim`] — the simulated machines: Cortex-A15/A7, X-Gene2, and an
//!   Athlon-class desktop with oscilloscope-grade PDN modelling;
//! * [`core`] — the framework proper: configuration, measurements,
//!   fitness functions, the run driver, outputs and statistics;
//! * [`workloads`] — the baseline benchmark proxies the paper compares
//!   against;
//! * [`telemetry`] — spans, metrics, and `run_trace.jsonl` artifacts for
//!   observing the search (disabled by default, near-zero cost when off);
//! * [`dist`] — coordinator/worker distributed evaluation over TCP
//!   (`gest worker` + `gest run --workers`), reproducing the paper's
//!   parallel measurement across identical boards (§III.C);
//! * [`chaos`] — deterministic fault injection across evaluation,
//!   distribution, and persistence, plus the `gest chaos` soak that
//!   proves artifacts stay byte-identical under fire;
//! * [`obs`] — the live observability plane: an embedded `/metrics` +
//!   `/status` + `/trace` HTTP endpoint (`gest run --status-addr`) and
//!   the `gest top` console dashboard, strictly read-only over the
//!   search;
//! * [`serve`] — the multi-tenant search service (`gest serve`): REST
//!   run submission, SSE progress streams, and a resumable
//!   generation-step scheduler multiplexing runs with checkpoint-backed
//!   eviction;
//! * [`xml`] — the minimal XML parser behind the configuration files.
//!
//! # Quick start
//!
//! ```
//! # fn main() -> Result<(), gest::core::GestError> {
//! use gest::core::{GestConfig, GestRun};
//!
//! let config = GestConfig::builder("cortex-a15")
//!     .measurement("power")
//!     .population_size(8)
//!     .individual_size(12)
//!     .generations(3)
//!     .seed(1)
//!     .build()?;
//! let summary = GestRun::builder().config(config).build()?.run()?;
//! println!("best power: {:.3} W", summary.best.fitness);
//! println!("{}", summary.best_program);
//! # Ok(())
//! # }
//! ```
//!
//! Long searches can checkpoint and survive crashes: configure
//! `checkpoint_every` (or pass `--checkpoint-every=N` to `gest run`) and
//! restore with [`core::GestRun::resume`] or `gest resume <dir>` — the
//! resumed search continues bit-identically to an uninterrupted one.

pub use gest_chaos as chaos;
pub use gest_core as core;
pub use gest_dist as dist;
pub use gest_ga as ga;
pub use gest_isa as isa;
pub use gest_obs as obs;
pub use gest_serve as serve;
pub use gest_sim as sim;
pub use gest_telemetry as telemetry;
pub use gest_workloads as workloads;
pub use gest_xml as xml;

/// Convenience prelude bringing the most-used types into scope.
pub mod prelude {
    pub use gest_core::{
        Checkpoint, DefaultFitness, FaultPolicy, Fitness, FitnessContext, FitnessParams,
        GestConfig, GestError, GestRun, GestRunBuilder, Measurement, Registry, RunSummary,
        TempSimplicityFitness,
    };
    pub use gest_ga::{CrossoverOp, GaConfig, History, Population, SelectionOp};
    pub use gest_isa::{
        asm, Gene, InstrClass, Instruction, InstructionPool, Opcode, Program, Template,
    };
    pub use gest_sim::{
        characterize_vmin, MachineConfig, RunConfig, RunResult, Simulator, VminConfig,
    };
    pub use gest_telemetry::{ConsoleSink, JsonlSink, MemorySink, Telemetry};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let machine = MachineConfig::cortex_a15();
        assert_eq!(machine.width, 3);
        let config = GaConfig::default();
        assert_eq!(config.population_size, 50);
    }
}
