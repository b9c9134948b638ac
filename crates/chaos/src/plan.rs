//! Fault taxonomy and the seeded plan that schedules it.
//!
//! A [`FaultPlan`] is a deterministic sequence of [`FaultKind`]s drawn
//! from the workspace's seeded `StdRng`: the same `(seed, count)` always
//! yields the same plan, so a failing chaos run is reproducible from its
//! seed. The plan is split by injection layer — evaluation backend, dist
//! transport, persistence — and each layer's shim consumes its own
//! sub-schedule.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Every fault the chaos layer knows how to inject, spanning the three
/// classic seams (evaluation backend, dist transport, write path), the
/// one harness-level fault (killing worker processes), and the serve
/// seams added with the gest-serve supervision layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The measurement panics mid-flight (contained by
    /// `gest_core::catch_measure`).
    MeasurePanic,
    /// The measurement hangs well past the configured watchdog.
    MeasureHang,
    /// The backend returns a NaN measurement vector; the runner must
    /// reject it before it can poison fitness or the eval cache.
    NonFiniteMeasurement,
    /// A received dist frame vanishes (surfaces as a read timeout).
    DropFrame,
    /// A received dist frame's kind byte is overwritten, forcing the
    /// protocol-error path.
    GarbleFrame,
    /// A received dist frame is cut in half mid-payload.
    TruncateFrame,
    /// Frame delivery stalls briefly, simulating a congested or
    /// GC-paused worker that is slow but not dead.
    DelayHeartbeat,
    /// A worker process dies abruptly (executed by the soak harness,
    /// which kills the whole in-process fleet: total fleet loss).
    KillWorker,
    /// A checkpoint manifest write tears: half the bytes land on disk
    /// and the writer is told it succeeded — what a power cut after a
    /// non-atomic write leaves behind.
    TornCheckpointWrite,
    /// A checkpoint manifest write fails with ENOSPC.
    DiskFullOnSave,
    /// An eval-cache sidecar write flips a bit, corrupting the final
    /// record's CRC.
    CorruptCacheRecord,
    /// A panic escapes `GestRun::step()` on the serve scheduler thread
    /// (injected by panicking inside the backend's `slots()` hook, which
    /// runs on the stepping thread outside `catch_measure`); the
    /// scheduler must quarantine the run, not unwind.
    StepPanic,
    /// A serve registry manifest (`serve_run.json`) write fails with
    /// ENOSPC; the scheduler must record the staleness, not crash.
    RegistryPersistEnospc,
    /// A serve registry manifest write tears: half the bytes land and
    /// the writer is told it succeeded. Rehydration must skip the
    /// unreadable manifest rather than wedge the service.
    RegistryPersistTorn,
    /// Two consecutive checkpoint writes of a serve-managed run fail
    /// with ENOSPC — punching through core's internal retry-once so the
    /// failure surfaces to the scheduler's eviction/restart machinery.
    ServeCheckpointEnospc,
}

/// The seam a [`FaultKind`] is injected through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLayer {
    /// Injected by [`crate::ChaosBackend`] around `measure` calls.
    Backend,
    /// Injected by [`crate::ChaosTransport`] under the dist frame
    /// reader.
    Transport,
    /// Injected by [`crate::ChaosFs`] on atomic artifact writes.
    Fs,
    /// Executed by the soak harness itself (process-level).
    Harness,
    /// Injected inside the serve scheduler's step path (the serve soak's
    /// step-panic shim).
    Serve,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 15] = [
        FaultKind::MeasurePanic,
        FaultKind::MeasureHang,
        FaultKind::NonFiniteMeasurement,
        FaultKind::DropFrame,
        FaultKind::GarbleFrame,
        FaultKind::TruncateFrame,
        FaultKind::DelayHeartbeat,
        FaultKind::KillWorker,
        FaultKind::TornCheckpointWrite,
        FaultKind::DiskFullOnSave,
        FaultKind::CorruptCacheRecord,
        FaultKind::StepPanic,
        FaultKind::RegistryPersistEnospc,
        FaultKind::RegistryPersistTorn,
        FaultKind::ServeCheckpointEnospc,
    ];

    /// The original distributed-run taxonomy — exactly the kinds (and
    /// order) [`FaultPlan::generate`] has always drawn from, kept
    /// separate so plans stay byte-identical per seed as new serve-seam
    /// kinds are added to [`FaultKind::ALL`].
    pub const DIST: [FaultKind; 11] = [
        FaultKind::MeasurePanic,
        FaultKind::MeasureHang,
        FaultKind::NonFiniteMeasurement,
        FaultKind::DropFrame,
        FaultKind::GarbleFrame,
        FaultKind::TruncateFrame,
        FaultKind::DelayHeartbeat,
        FaultKind::KillWorker,
        FaultKind::TornCheckpointWrite,
        FaultKind::DiskFullOnSave,
        FaultKind::CorruptCacheRecord,
    ];

    /// The serve-seam taxonomy the `gest chaos --serve` soak draws from:
    /// backend faults inside a serve-managed run plus the four
    /// serve-specific seams.
    pub const SERVE: [FaultKind; 7] = [
        FaultKind::MeasurePanic,
        FaultKind::MeasureHang,
        FaultKind::NonFiniteMeasurement,
        FaultKind::StepPanic,
        FaultKind::RegistryPersistEnospc,
        FaultKind::RegistryPersistTorn,
        FaultKind::ServeCheckpointEnospc,
    ];

    /// Stable snake_case name, used in telemetry counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::MeasurePanic => "measure_panic",
            FaultKind::MeasureHang => "measure_hang",
            FaultKind::NonFiniteMeasurement => "non_finite_measurement",
            FaultKind::DropFrame => "drop_frame",
            FaultKind::GarbleFrame => "garble_frame",
            FaultKind::TruncateFrame => "truncate_frame",
            FaultKind::DelayHeartbeat => "delay_heartbeat",
            FaultKind::KillWorker => "worker_kill",
            FaultKind::TornCheckpointWrite => "torn_checkpoint_write",
            FaultKind::DiskFullOnSave => "disk_full_on_save",
            FaultKind::CorruptCacheRecord => "corrupt_cache_record",
            FaultKind::StepPanic => "step_panic",
            FaultKind::RegistryPersistEnospc => "registry_persist_enospc",
            FaultKind::RegistryPersistTorn => "registry_persist_torn",
            FaultKind::ServeCheckpointEnospc => "serve_checkpoint_enospc",
        }
    }

    /// The telemetry counter incremented every time this fault fires.
    pub fn counter(self) -> String {
        format!("chaos.fault.{}", self.name())
    }

    /// Which shim injects this fault.
    pub fn layer(self) -> FaultLayer {
        match self {
            FaultKind::MeasurePanic | FaultKind::MeasureHang | FaultKind::NonFiniteMeasurement => {
                FaultLayer::Backend
            }
            FaultKind::DropFrame
            | FaultKind::GarbleFrame
            | FaultKind::TruncateFrame
            | FaultKind::DelayHeartbeat => FaultLayer::Transport,
            FaultKind::TornCheckpointWrite
            | FaultKind::DiskFullOnSave
            | FaultKind::CorruptCacheRecord
            | FaultKind::RegistryPersistEnospc
            | FaultKind::RegistryPersistTorn
            | FaultKind::ServeCheckpointEnospc => FaultLayer::Fs,
            FaultKind::KillWorker => FaultLayer::Harness,
            FaultKind::StepPanic => FaultLayer::Serve,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic fault schedule: a pure function of `(seed, count)`
/// and the taxonomy it draws from.
///
/// The first `min(count, kinds.len())` entries are a seeded shuffle of
/// the whole taxonomy, so any large-enough plan is guaranteed to
/// exercise every kind; entries beyond that are drawn uniformly. This
/// breadth-first shape is what lets the soaks assert "at least N
/// distinct fault kinds fired" without retry loops.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// Generates the plan for `seed` with `count` scheduled faults drawn
    /// from the classic distributed-run taxonomy ([`FaultKind::DIST`]).
    /// Byte-stable per seed across releases: new fault kinds join via
    /// new taxonomies ([`FaultPlan::generate_from`]), never this one.
    pub fn generate(seed: u64, count: usize) -> FaultPlan {
        FaultPlan::generate_from(seed, count, &FaultKind::DIST)
    }

    /// Generates the plan for `seed` with `count` faults drawn from an
    /// explicit taxonomy — e.g. [`FaultKind::SERVE`] for the
    /// `gest chaos --serve` soak.
    ///
    /// # Panics
    ///
    /// If `kinds` is empty.
    pub fn generate_from(seed: u64, count: usize, kinds: &[FaultKind]) -> FaultPlan {
        assert!(!kinds.is_empty(), "a fault taxonomy cannot be empty");
        // `next_u64() % bound`, not `random_range`: the plan's byte
        // stability rests on this exact reduction (its slight modulo bias
        // is irrelevant at bounds of a dozen or so).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuffled = kinds.to_vec();
        for i in (1..shuffled.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut faults = Vec::with_capacity(count);
        for slot in 0..count {
            match shuffled.get(slot) {
                Some(&kind) => faults.push(kind),
                None => {
                    let pick = (rng.next_u64() % kinds.len() as u64) as usize;
                    faults.push(kinds[pick]);
                }
            }
        }
        FaultPlan { seed, faults }
    }

    /// The seed this plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full schedule, in firing order within each layer.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// The sub-schedule for one injection layer, in plan order.
    pub fn for_layer(&self, layer: FaultLayer) -> VecDeque<FaultKind> {
        self.faults
            .iter()
            .copied()
            .filter(|kind| kind.layer() == layer)
            .collect()
    }

    /// Whether the harness should kill the worker fleet mid-run.
    pub fn kills_workers(&self) -> bool {
        self.faults.contains(&FaultKind::KillWorker)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {:#x}: ", self.seed)?;
        for (i, kind) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(kind.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let a = FaultPlan::generate(99, 20);
        let b = FaultPlan::generate(99, 20);
        assert_eq!(a.faults(), b.faults());
        assert_ne!(
            FaultPlan::generate(100, 20).faults(),
            a.faults(),
            "different seeds should give different schedules"
        );
    }

    #[test]
    fn a_full_size_plan_covers_every_dist_kind() {
        for seed in 0..32 {
            let plan = FaultPlan::generate(seed, FaultKind::DIST.len());
            let distinct: HashSet<FaultKind> = plan.faults().iter().copied().collect();
            assert_eq!(distinct.len(), FaultKind::DIST.len(), "seed {seed}");
        }
    }

    #[test]
    fn generate_draws_from_the_dist_taxonomy_only() {
        // The serve-seam kinds joined FaultKind::ALL but must never
        // appear in a classic plan — that would reshuffle every seeded
        // schedule the dist soak's assertions are pinned to.
        let plan = FaultPlan::generate(0xC0FFEE, 100);
        assert!(plan
            .faults()
            .iter()
            .all(|kind| FaultKind::DIST.contains(kind)));
    }

    #[test]
    fn serve_taxonomy_plans_cover_every_serve_kind() {
        for seed in 0..32 {
            let plan = FaultPlan::generate_from(seed, FaultKind::SERVE.len(), &FaultKind::SERVE);
            let distinct: HashSet<FaultKind> = plan.faults().iter().copied().collect();
            assert_eq!(distinct.len(), FaultKind::SERVE.len(), "seed {seed}");
        }
    }

    #[test]
    fn layers_partition_the_schedule() {
        let plan = FaultPlan::generate(7, 25);
        let mut serve = FaultPlan::generate_from(7, 10, &FaultKind::SERVE)
            .faults()
            .to_vec();
        let mut all = plan.faults().to_vec();
        all.append(&mut serve);
        let plan = FaultPlan {
            seed: 7,
            faults: all,
        };
        let split: usize = [
            FaultLayer::Backend,
            FaultLayer::Transport,
            FaultLayer::Fs,
            FaultLayer::Harness,
            FaultLayer::Serve,
        ]
        .into_iter()
        .map(|layer| plan.for_layer(layer).len())
        .sum();
        assert_eq!(split, plan.faults().len());
    }

    #[test]
    fn plans_are_byte_stable_per_seed() {
        // The plans the CI chaos soaks run: `gest chaos --seed=1` and
        // `--seed=2 --faults=12`, and `gest chaos --serve --seed=1/2`.
        assert_eq!(
            FaultPlan::generate(1, 12).to_string(),
            "seed 0x1: disk_full_on_save, measure_panic, drop_frame, torn_checkpoint_write, \
             delay_heartbeat, garble_frame, measure_hang, worker_kill, truncate_frame, \
             non_finite_measurement, corrupt_cache_record, corrupt_cache_record"
        );
        assert_eq!(
            FaultPlan::generate(2, 12).to_string(),
            "seed 0x2: disk_full_on_save, worker_kill, drop_frame, torn_checkpoint_write, \
             measure_hang, measure_panic, garble_frame, truncate_frame, delay_heartbeat, \
             non_finite_measurement, corrupt_cache_record, delay_heartbeat"
        );
        let serve =
            |seed| FaultPlan::generate_from(seed, FaultKind::SERVE.len(), &FaultKind::SERVE);
        assert_eq!(
            serve(1).to_string(),
            "seed 0x1: measure_hang, registry_persist_torn, non_finite_measurement, \
             serve_checkpoint_enospc, measure_panic, registry_persist_enospc, step_panic"
        );
        assert_eq!(
            serve(2).to_string(),
            "seed 0x2: step_panic, serve_checkpoint_enospc, measure_panic, measure_hang, \
             registry_persist_torn, registry_persist_enospc, non_finite_measurement"
        );
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: HashSet<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FaultKind::ALL.len());
        assert_eq!(FaultKind::KillWorker.counter(), "chaos.fault.worker_kill");
    }
}
