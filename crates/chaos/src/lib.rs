#![warn(missing_docs)]

//! gest-chaos — deterministic fault injection across evaluation,
//! distribution, and persistence.
//!
//! A GeST search that checkpoints, caches, and fans out to workers has
//! three seams where the real world bites: the measurement itself
//! (panics, hangs, garbage values), the wire (dropped, garbled, and
//! truncated frames; dead workers), and the disk (torn writes, full
//! disks, flipped bits). This crate injects all of it *determin-
//! istically*: a [`FaultPlan`] is a pure function of its seed, so a
//! failing chaos run reproduces from `--seed` alone.
//!
//! One shim per seam, each consuming its own sub-schedule of the plan:
//!
//! * [`ChaosBackend`] — wraps any `EvalBackend`; injects measurement
//!   panics (contained by `catch_measure`), hangs (tripping the
//!   runner's watchdog), and NaN measurement vectors (rejected by the
//!   runner's finite-value check);
//! * [`ChaosTransport`] — plugs into `CoordinatorOptions::chaos`;
//!   drops, garbles, truncates, and delays received dist frames under
//!   the framed reader, driving the coordinator's discard-and-retry
//!   and reconnection paths;
//! * [`ChaosFs`] — implements `WriteFs`; tears a checkpoint manifest
//!   write, fails one with ENOSPC, and flips a bit in an eval-cache
//!   sidecar, exercising the runner's write-retry and the sidecar's
//!   per-record CRC recovery.
//!
//! The [`soak`] module ties it together: a full checkpointed,
//! distributed, cached run under a randomized plan — including an
//! abrupt kill of the whole worker fleet and the coordinator's graceful
//! degradation to a local backend — must finish with population and
//! checkpoint artifacts **byte-identical** to the fault-free same-seed
//! run. Run it from the CLI with `gest chaos --seed=S --faults=K`.
//!
//! The [`serve`] module lifts the same discipline to the gest-serve
//! service layer: a live server under serve-seam faults (a panic
//! escaping `step()`, ENOSPC/torn writes on registry manifests and
//! eviction checkpoints, measurement faults inside managed runs) must
//! keep answering its API, land every faulted run in a documented
//! terminal state, and complete every unaffected run byte-identical to
//! its blocking reference. Run it with `gest chaos --serve --seed=S`.
//!
//! Every injection increments a `chaos.fault.<name>` telemetry counter
//! before firing, so tests can assert which faults actually happened
//! rather than trusting the schedule.

mod backend;
mod fs;
mod plan;
pub mod serve;
pub mod soak;
mod transport;

pub use backend::ChaosBackend;
pub use fs::ChaosFs;
pub use plan::{FaultKind, FaultLayer, FaultPlan};
pub use serve::{
    run_serve_soak, ServeRunOutcome, ServeSoakOptions, ServeSoakReport, StepPanicBackend,
};
pub use soak::{run_soak, SoakOptions, SoakReport};
pub use transport::ChaosTransport;
