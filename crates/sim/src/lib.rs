#![warn(missing_docs)]

//! Simulated CPU substrate for the GeST reproduction.
//!
//! The paper measures real silicon: an ARM energy probe on a Versatile
//! Express board, i2c temperature sensors on an X-Gene2 server, and an
//! oscilloscope on an AMD desktop's voltage sense points. This crate is the
//! stand-in for all of that hardware:
//!
//! * [`MachineConfig`] — parameterized micro-architecture models with
//!   presets for the paper's four CPUs ([`MachineConfig::cortex_a15`],
//!   [`MachineConfig::cortex_a7`], [`MachineConfig::xgene2`],
//!   [`MachineConfig::athlon_x4`]),
//! * `pipeline` — a scoreboard timing model (in-order and out-of-order)
//!   with functional-unit contention, a small L1 data cache, and a 2-bit
//!   branch predictor,
//! * `power` — an activity-based energy model driven by the ISA's
//!   bit-toggle accounting (base energy per class + switching + in-flight
//!   occupancy + static),
//! * `thermal` — a lumped-RC thermal model,
//! * `pdn` — a second-order RLC power-delivery-network model whose die
//!   voltage responds to the per-cycle current waveform (the dI/dt physics
//!   the voltage-noise virus search exploits),
//! * `vmin` — the paper's V_MIN protocol: lower the supply in 12.5 mV
//!   steps until the workload's droop crosses the failure threshold.
//!
//! The top-level entry point is [`Simulator`]:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gest_isa::{asm, Program};
//! use gest_sim::{MachineConfig, RunConfig, Simulator};
//!
//! let machine = MachineConfig::cortex_a15();
//! let body = asm::parse_block("FMUL v0, v1, v2\nADD x1, x2, x3")?;
//! let program = Program::from_body("demo", body);
//! let result = Simulator::new(machine).run(&program, &RunConfig::default())?;
//! assert!(result.ipc > 0.0);
//! assert!(result.avg_power_w > 0.0);
//! # Ok(())
//! # }
//! ```

mod cache;
mod machine;
mod mitigation;
mod multicore;
mod pdn;
mod pipeline;
mod power;
mod predictor;
mod result;
mod simulator;
mod thermal;
pub mod vmin;

pub use cache::{CacheConfig, CacheStats, DataCache};
pub use machine::{EnergyConfig, FuClass, FuConfig, MachineConfig, PdnConfig, ThermalConfig};
pub use mitigation::{simulate_adaptive_clock, AdaptiveClockConfig, MitigationResult};
pub use multicore::{CoreResult, MemSharing, MultiCoreResult, MultiCoreSimulator, UncoreConfig};
pub use pdn::{Pdn, VoltageStats};
pub use pipeline::{Pipeline, PipelineKind};
pub use power::EnergyModel;
pub use predictor::BranchPredictor;
pub use result::{RunConfig, RunMetrics, RunResult, SimError, METRIC_NAMES};
pub use simulator::{RunScratch, Simulator, Traces};
pub use thermal::{ThermalModel, ThermalSchedule};
pub use vmin::{characterize_vmin, VminConfig, VminResult};
