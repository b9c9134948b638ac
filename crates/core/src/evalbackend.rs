//! Pluggable evaluation backends: *where* a candidate's measurement runs.
//!
//! The paper scales GeST by measuring individuals in parallel across
//! identical boards (§III.C). [`crate::GestRun`] keeps everything that
//! must be deterministic — cache lookups, fitness, the fault policy,
//! result ordering — on the coordinator side and delegates only the raw
//! measurement of a batch of candidates (one, at the default lane width)
//! to an [`EvalBackend`]. Below the backend, a batch is that many calls of
//! one measurement:
//!
//! * [`LocalBackend`] measures in-process on a thread pool (the default,
//!   extracted from the runner's original `std::thread::scope` fan-out);
//! * `gest-dist`'s `Coordinator` ships candidates to remote workers over
//!   TCP and implements the same trait.
//!
//! Because a backend only turns genes into a measurement vector — a pure
//! function for content-pure measurements — swapping backends can never
//! change the evolved result, only the wall-clock it takes.

use crate::error::GestError;
use crate::measurement::{MeasuredBatch, Measurement};
use gest_isa::{Gene, Template};
use gest_sim::RunResult;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// One candidate measurement to be performed by a backend.
#[derive(Debug, Clone, Copy)]
pub struct EvalRequest<'a> {
    /// Generation index (used for program naming only).
    pub generation: u32,
    /// The candidate's id within the run.
    pub candidate_id: u64,
    /// The candidate's genes; the program content being measured.
    pub genes: &'a [Gene],
}

impl EvalRequest<'_> {
    /// The canonical program name (`{generation}_{id}`), matching the
    /// per-individual source files the framework writes.
    pub fn program_name(&self) -> String {
        format!("{}_{}", self.generation, self.candidate_id)
    }
}

/// Where candidate measurements execute.
///
/// Implementations decide the substrate (local threads, remote workers)
/// and their internal dispatch; the runner owns everything above the raw
/// measurement: caching, fitness, retry/quarantine, and deterministic
/// result ordering.
pub trait EvalBackend: Send + Sync + std::fmt::Debug {
    /// Short backend name for telemetry and diagnostics.
    fn name(&self) -> &str;

    /// Number of concurrent measurement slots to drive for `pending`
    /// outstanding chunks of at most [`lane_width`](EvalBackend::lane_width)
    /// candidates (local: threads; remote: workers). The runner asks once
    /// per generation, on the thread stepping the run, for the chunks of
    /// the candidates its cache could not answer; a generation the cache
    /// answers in full never asks. It drives slot 0 on its own thread and
    /// spawns one scoped thread for each other slot.
    fn slots(&self, pending: usize) -> usize;

    /// Measures one candidate, returning the measurement vector and —
    /// when the backend has it locally — the simulator's full result for
    /// telemetry detail. Must be callable concurrently from all slots.
    /// The runner itself only calls
    /// [`measure_batch`](EvalBackend::measure_batch), whose default loops
    /// this method.
    ///
    /// # Errors
    ///
    /// Measurement or transport failures; the runner's
    /// [`crate::FaultPolicy`] decides whether to retry or quarantine.
    fn measure(
        &self,
        slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError>;

    /// How many candidates this backend prefers to receive per
    /// [`measure_batch`](EvalBackend::measure_batch) call. `1` (the
    /// default) has the runner hand over one candidate per call; a backend
    /// set to a wider width (see [`LocalBackend::with_lane_width`]) has the
    /// runner hand it whole chunks, and decorators forward their inner
    /// backend's width.
    fn lane_width(&self) -> usize {
        1
    }

    /// Measures a batch of candidates on one slot, one result per request,
    /// in order — the runner's only entry point into a backend. The
    /// default loops [`measure`](EvalBackend::measure), so every backend —
    /// including `gest-dist`'s `Coordinator` — composes with the runner
    /// without changes. A failing candidate yields an `Err` in its lane
    /// only; the runner's [`crate::FaultPolicy`] then handles that lane.
    fn measure_batch(&self, slot: usize, requests: &[EvalRequest<'_>]) -> MeasuredBatch {
        requests
            .iter()
            .map(|request| self.measure(slot, request))
            .collect()
    }
}

/// Renders a panic payload into a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "evaluation worker panicked".to_string()
    }
}

/// Runs a measurement closure with panic containment: a panicking
/// measurement plug-in becomes a [`GestError::Measurement`] carrying the
/// panic payload instead of aborting the process.
///
/// This is the single home of the panic-to-error plumbing — the runner
/// (through `catch_measure_batch`) and `gest-dist` workers wrap their
/// measurements in it, so neither side re-implements it.
///
/// # Errors
///
/// The closure's own error, or a [`GestError::Measurement`] when it
/// panicked.
pub fn catch_measure<T>(
    candidate: u64,
    f: impl FnOnce() -> Result<T, GestError>,
) -> Result<T, GestError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(GestError::Measurement {
            candidate,
            message: panic_message(payload),
        })
    })
}

/// Batch counterpart of [`catch_measure`]. A panic anywhere inside the
/// batched call leaves no way to tell which lanes completed, so the lanes
/// are re-run one per call: the panicking lane fails alone with the panic
/// payload, and its neighbours keep their (pure, hence identical)
/// measurements.
pub(crate) fn catch_measure_batch(
    requests: &[EvalRequest<'_>],
    measure_batch: &dyn Fn(&[EvalRequest<'_>]) -> MeasuredBatch,
) -> MeasuredBatch {
    match catch_unwind(AssertUnwindSafe(|| measure_batch(requests))) {
        Ok(lanes) => lanes,
        Err(payload) => match requests {
            [_] => fail_lanes(requests, &panic_message(payload)),
            _ => requests
                .chunks(1)
                .flat_map(|lane| catch_measure_batch(lane, measure_batch))
                .collect(),
        },
    }
}

/// Fails every lane of a call with the same measurement error.
pub(crate) fn fail_lanes(requests: &[EvalRequest<'_>], message: &str) -> MeasuredBatch {
    requests
        .iter()
        .map(|request| {
            Err(GestError::Measurement {
                candidate: request.candidate_id,
                message: message.to_owned(),
            })
        })
        .collect()
}

/// Runs one backend [`measure_batch`](EvalBackend::measure_batch) call on
/// a sacrificial thread with a hard wall-clock bound of `watchdog_ms` per
/// request. If the call does not finish within the bound, the attempt is
/// abandoned — the stuck thread is left to finish (or leak) in the
/// background and every lane gets a [`GestError::Measurement`]
/// immediately, so a wedged measurement plug-in cannot stall its
/// evaluation slot forever. This is the local analogue of `gest-dist`'s
/// heartbeat timeout; the runner uses it whenever
/// [`crate::FaultPolicy::watchdog_ms`] is set. Panics are contained per
/// lane as in `catch_measure_batch`.
pub fn watchdog_measure(
    backend: &Arc<dyn EvalBackend>,
    slot: usize,
    requests: &[EvalRequest<'_>],
    watchdog_ms: u64,
) -> MeasuredBatch {
    let bound_ms = watchdog_ms.saturating_mul(requests.len() as u64);
    let owned: Vec<(u32, u64, Vec<Gene>)> = requests
        .iter()
        .map(|request| {
            (
                request.generation,
                request.candidate_id,
                request.genes.to_vec(),
            )
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let backend = Arc::clone(backend);
    let name = format!(
        "gest-watchdog-{}",
        requests.first().map_or(0, |request| request.candidate_id)
    );
    let spawned = std::thread::Builder::new().name(name).spawn(move || {
        let requests: Vec<EvalRequest<'_>> = owned
            .iter()
            .map(|(generation, candidate_id, genes)| EvalRequest {
                generation: *generation,
                candidate_id: *candidate_id,
                genes,
            })
            .collect();
        let lanes = catch_measure_batch(&requests, &|batch| backend.measure_batch(slot, batch));
        let _ = tx.send(lanes);
    });
    if let Err(error) = spawned {
        return fail_lanes(
            requests,
            &format!("could not start the watchdog thread: {error}"),
        );
    }
    match rx.recv_timeout(Duration::from_millis(bound_ms)) {
        Ok(lanes) => lanes,
        Err(_) => fail_lanes(
            requests,
            &format!(
                "measurement still running after the {bound_ms}ms watchdog; attempt abandoned"
            ),
        ),
    }
}

/// The in-process backend: materializes each candidate against the run's
/// template and measures it on the calling slot thread. This is the
/// original `GestRun` thread-pool evaluation, extracted behind
/// [`EvalBackend`].
#[derive(Debug)]
pub struct LocalBackend {
    measurement: Arc<dyn Measurement>,
    template: Template,
    threads: usize,
    lane_width: usize,
}

impl LocalBackend {
    /// Creates a backend over `measurement`; `threads == 0` means one
    /// slot per available CPU.
    pub fn new(measurement: Arc<dyn Measurement>, template: Template, threads: usize) -> Self {
        LocalBackend {
            measurement,
            template,
            threads,
            lane_width: 1,
        }
    }

    /// Sets how many candidates the runner hands a slot per
    /// [`measure_batch`](EvalBackend::measure_batch) call (`0` and `1` both
    /// mean one). The slot measures them one per call, so the width only
    /// chunks the work across slots: an execution detail like `threads`
    /// that changes wall-clock, never results.
    #[must_use]
    pub fn with_lane_width(mut self, lane_width: usize) -> Self {
        self.lane_width = lane_width.max(1);
        self
    }
}

impl EvalBackend for LocalBackend {
    fn name(&self) -> &str {
        "local"
    }

    fn slots(&self, pending: usize) -> usize {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        threads.min(pending.max(1))
    }

    fn measure(
        &self,
        _slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        let body = gest_isa::InstructionPool::flatten(request.genes);
        let program = self.template.materialize(request.program_name(), body);
        self.measurement.measure_detailed(&program)
    }

    fn lane_width(&self) -> usize {
        self.lane_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_measure_converts_panics() {
        let ok: Result<u32, GestError> = catch_measure(7, || Ok(42));
        assert_eq!(ok.unwrap(), 42);

        let err = catch_measure::<u32>(7, || panic!("probe fell off")).unwrap_err();
        match err {
            GestError::Measurement { candidate, message } => {
                assert_eq!(candidate, 7);
                assert!(message.contains("probe fell off"), "{message}");
            }
            other => panic!("expected measurement error, got {other}"),
        }

        let err = catch_measure::<u32>(3, || {
            std::panic::panic_any(1234_u64);
        })
        .unwrap_err();
        match err {
            GestError::Measurement { message, .. } => {
                assert!(message.contains("panicked"), "{message}");
            }
            other => panic!("expected measurement error, got {other}"),
        }
    }

    /// Sleeps `sleep_ms` on candidate `hung`, answers at once otherwise.
    #[derive(Debug)]
    struct SleepyBackend {
        hung: u64,
        sleep_ms: u64,
    }

    impl EvalBackend for SleepyBackend {
        fn name(&self) -> &str {
            "sleepy"
        }

        fn slots(&self, _pending: usize) -> usize {
            1
        }

        fn measure(
            &self,
            _slot: usize,
            request: &EvalRequest<'_>,
        ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
            if request.candidate_id == self.hung {
                std::thread::sleep(Duration::from_millis(self.sleep_ms));
            }
            Ok((vec![request.candidate_id as f64], None))
        }
    }

    fn requests(ids: &[u64]) -> Vec<EvalRequest<'static>> {
        ids.iter()
            .map(|&candidate_id| EvalRequest {
                generation: 1,
                candidate_id,
                genes: &[],
            })
            .collect()
    }

    #[test]
    fn watchdog_passes_fast_measurements_and_abandons_hangs() {
        let chunk = requests(&[7, 8, 9]);
        let backend: Arc<dyn EvalBackend> = Arc::new(SleepyBackend {
            hung: 9,
            sleep_ms: 3_000,
        });

        // A chunk of one fast lane passes straight through.
        let lanes = watchdog_measure(&backend, 0, &chunk[..1], 5_000);
        assert_eq!(lanes.len(), 1);
        let (values, detail) = lanes.into_iter().next().unwrap().unwrap();
        assert_eq!(values, vec![7.0]);
        assert!(detail.is_none());

        // So does a whole chunk of fast lanes, in order.
        let fast: Arc<dyn EvalBackend> = Arc::new(SleepyBackend {
            hung: u64::MAX,
            sleep_ms: 0,
        });
        let lanes = watchdog_measure(&fast, 0, &chunk, 5_000);
        let values: Vec<f64> = lanes.into_iter().map(|lane| lane.unwrap().0[0]).collect();
        assert_eq!(values, vec![7.0, 8.0, 9.0]);

        // One hung lane trips the chunk-level bound (3 lanes x 50 ms)
        // long before the hang ends, failing every lane of the call.
        let started = std::time::Instant::now();
        let lanes = watchdog_measure(&backend, 0, &chunk, 50);
        assert!(
            started.elapsed() < Duration::from_millis(2_000),
            "abandoned early"
        );
        assert_eq!(lanes.len(), 3);
        for (lane, request) in lanes.into_iter().zip(&chunk) {
            match lane.unwrap_err() {
                GestError::Measurement { candidate, message } => {
                    assert_eq!(candidate, request.candidate_id);
                    assert!(message.contains("150ms watchdog"), "{message}");
                }
                other => panic!("expected measurement error, got {other}"),
            }
        }
    }

    /// Fails odd-id candidates so batch/loop equivalence covers error
    /// lanes too.
    #[derive(Debug)]
    struct ParityBackend;

    impl EvalBackend for ParityBackend {
        fn name(&self) -> &str {
            "parity"
        }

        fn slots(&self, _pending: usize) -> usize {
            1
        }

        fn measure(
            &self,
            slot: usize,
            request: &EvalRequest<'_>,
        ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
            if request.candidate_id % 2 == 1 {
                return Err(GestError::Measurement {
                    candidate: request.candidate_id,
                    message: "odd lane".into(),
                });
            }
            Ok((vec![request.candidate_id as f64, slot as f64], None))
        }
    }

    #[test]
    fn default_measure_batch_loops_measure_with_per_lane_errors() {
        let backend = ParityBackend;
        assert_eq!(backend.lane_width(), 1, "default is one candidate per call");
        let genes = [];
        let requests: Vec<EvalRequest<'_>> = (0..5)
            .map(|id| EvalRequest {
                generation: 2,
                candidate_id: id,
                genes: &genes,
            })
            .collect();
        let batched = backend.measure_batch(3, &requests);
        assert_eq!(batched.len(), requests.len());
        for (request, lane) in requests.iter().zip(batched) {
            match (lane, backend.measure(3, request)) {
                (Ok(lane), Ok(single)) => assert_eq!(lane, single),
                (Err(GestError::Measurement { candidate, .. }), Err(_)) => {
                    assert_eq!(candidate, request.candidate_id);
                }
                (lane, single) => panic!(
                    "candidate {}: lane ok={} but single ok={}",
                    request.candidate_id,
                    lane.is_ok(),
                    single.is_ok()
                ),
            }
        }
    }

    #[test]
    fn catch_measure_batch_fails_every_lane_on_panic() {
        let chunk = requests(&[4, 5, 6]);
        let lanes = catch_measure_batch(&chunk, &|_| panic!("batch fell over"));
        assert_eq!(lanes.len(), 3);
        for (lane, request) in lanes.iter().zip(&chunk) {
            match lane {
                Err(GestError::Measurement { candidate, message }) => {
                    assert_eq!(*candidate, request.candidate_id);
                    assert!(message.contains("batch fell over"), "{message}");
                }
                other => panic!("expected per-lane panic error, got {other:?}"),
            }
        }
        let ok = catch_measure_batch(&chunk, &|_| vec![Ok((vec![1.0], None))]);
        assert_eq!(ok.len(), 1, "non-panicking closures pass through");
    }

    #[test]
    fn catch_measure_batch_pins_a_panic_on_its_own_lane() {
        let chunk = requests(&[4, 5, 6]);
        let lanes = catch_measure_batch(&chunk, &|batch| {
            batch
                .iter()
                .map(|request| {
                    assert!(request.candidate_id != 5, "lane 5 fell over");
                    Ok((vec![request.candidate_id as f64], None))
                })
                .collect()
        });
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[0].as_ref().unwrap().0, vec![4.0]);
        assert_eq!(lanes[2].as_ref().unwrap().0, vec![6.0]);
        match &lanes[1] {
            Err(GestError::Measurement { candidate, message }) => {
                assert_eq!(*candidate, 5);
                assert!(message.contains("lane 5 fell over"), "{message}");
            }
            other => panic!("expected the panic on lane 5 alone, got {other:?}"),
        }
    }

    #[test]
    fn local_backend_slots_respect_pending_work() {
        let config = crate::GestConfig::builder("cortex-a7").build().unwrap();
        let measurement = crate::Registry::default()
            .build_measurement("power", config.machine.clone(), config.run_config)
            .unwrap();
        let backend = LocalBackend::new(measurement, config.template.clone(), 4);
        assert_eq!(backend.slots(100), 4);
        assert_eq!(backend.slots(2), 2);
        assert_eq!(backend.slots(0), 1, "at least one slot");
        assert_eq!(backend.name(), "local");
    }

    #[test]
    fn local_backend_batches_bit_identically_to_singles() {
        let config = crate::GestConfig::builder("cortex-a7").build().unwrap();
        let measurement = crate::Registry::default()
            .build_measurement("power", config.machine.clone(), config.run_config)
            .unwrap();
        let backend = LocalBackend::new(measurement, config.template.clone(), 1).with_lane_width(4);
        assert_eq!(backend.lane_width(), 4);
        assert_eq!(
            LocalBackend::new(Arc::clone(&backend.measurement), config.template.clone(), 1)
                .with_lane_width(0)
                .lane_width(),
            1,
            "zero clamps to one candidate per call"
        );

        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let gene_sets: Vec<Vec<gest_isa::Gene>> = (0..5)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..8).map(|_| config.pool.random_gene(&mut rng)).collect()
            })
            .collect();
        let requests: Vec<EvalRequest<'_>> = gene_sets
            .iter()
            .enumerate()
            .map(|(id, genes)| EvalRequest {
                generation: 0,
                candidate_id: id as u64,
                genes,
            })
            .collect();
        let batched = backend.measure_batch(0, &requests);
        assert_eq!(batched.len(), requests.len());
        for (request, lane) in requests.iter().zip(batched) {
            let single = backend.measure(0, request).unwrap();
            let lane = lane.unwrap();
            assert_eq!(lane.0, single.0, "candidate {}", request.candidate_id);
            assert_eq!(lane.1, single.1, "candidate {}", request.candidate_id);
        }
    }
}
