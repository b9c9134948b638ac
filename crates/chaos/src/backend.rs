//! [`ChaosBackend`]: fault injection at the evaluation seam.
//!
//! Wraps any [`EvalBackend`] and fires the plan's backend sub-schedule
//! — panics, hangs, non-finite measurements — on the lanes of real
//! `measure_batch` calls.
//! Injection is budget-aware by construction: at most
//! [`ChaosBackend::MAX_FAULTS_PER_CANDIDATE`] faults ever land on one
//! candidate, strictly below the runner's default retry budget, so a
//! correctly hardened runner always converges to the clean measurement
//! and chaos runs stay byte-identical to fault-free ones.

use crate::plan::{FaultKind, FaultLayer, FaultPlan};
use gest_core::{catch_measure, EvalBackend, EvalRequest, GestError, MeasuredBatch};
use gest_sim::RunResult;
use gest_telemetry::Telemetry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One lane's measurement outcome.
type Lane = Result<(Vec<f64>, Option<RunResult>), GestError>;

/// An [`EvalBackend`] decorator that injects the backend-layer faults of
/// a [`FaultPlan`] ahead of the wrapped backend.
#[derive(Debug)]
pub struct ChaosBackend {
    inner: Arc<dyn EvalBackend>,
    telemetry: Telemetry,
    /// Backend faults still waiting to fire, in plan order.
    queue: Mutex<VecDeque<FaultKind>>,
    /// How many faults each candidate has already absorbed.
    per_candidate: Mutex<HashMap<u64, u32>>,
    hang_ms: u64,
}

impl ChaosBackend {
    /// Hard ceiling on injected faults per candidate. The runner's
    /// default fault policy retries 3 times, so two injected failures
    /// still leave an attempt for the clean measurement.
    pub const MAX_FAULTS_PER_CANDIDATE: u32 = 2;

    /// Wraps `inner`, scheduling the backend-layer faults of `plan`.
    pub fn new(
        inner: Arc<dyn EvalBackend>,
        plan: &FaultPlan,
        telemetry: Telemetry,
    ) -> ChaosBackend {
        ChaosBackend {
            inner,
            telemetry,
            queue: Mutex::new(plan.for_layer(FaultLayer::Backend)),
            per_candidate: Mutex::new(HashMap::new()),
            hang_ms: 2_000,
        }
    }

    /// Sets how long an injected hang sleeps; must exceed the run's
    /// `watchdog_ms` for the hang to actually trip the watchdog.
    pub fn hang_ms(mut self, ms: u64) -> ChaosBackend {
        self.hang_ms = ms;
        self
    }

    /// Backend faults not yet fired.
    pub fn remaining(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Pops the next scheduled fault unless `candidate` has exhausted
    /// its injection budget (in which case the fault stays queued for a
    /// later candidate). Locks are poison-tolerant: an injected panic
    /// unwinding through `measure` must not wedge the queue.
    fn take_fault(&self, candidate: u64) -> Option<FaultKind> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.is_empty() {
            return None;
        }
        let mut per_candidate = self
            .per_candidate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let fired = per_candidate.entry(candidate).or_insert(0);
        if *fired >= Self::MAX_FAULTS_PER_CANDIDATE {
            return None;
        }
        *fired += 1;
        queue.pop_front()
    }

    /// Fires the next scheduled fault on `request`, if any: the lane's
    /// replacement outcome for a panic or a NaN vector, or `None` when the
    /// lane goes on to the real measurement (no fault, or a hang that
    /// sleeps past the watchdog first).
    fn inject(&self, request: &EvalRequest<'_>) -> Option<Lane> {
        let kind = self.take_fault(request.candidate_id)?;
        self.telemetry.add_counter(&kind.counter(), 1);
        self.telemetry.point(
            "chaos.inject",
            &[
                ("kind", kind.name().into()),
                ("candidate", request.candidate_id.into()),
                ("generation", u64::from(request.generation).into()),
            ],
        );
        match kind {
            FaultKind::MeasurePanic => Some(catch_measure(request.candidate_id, || {
                panic!(
                    "chaos: injected measurement panic (candidate {})",
                    request.candidate_id
                )
            })),
            FaultKind::MeasureHang => {
                // Sleep past the watchdog, then fall through to the real
                // measurement: the caller has long since abandoned this
                // attempt, which is exactly the orphaned-thread shape a
                // genuine hang produces.
                std::thread::sleep(Duration::from_millis(self.hang_ms));
                None
            }
            FaultKind::NonFiniteMeasurement => Some(Ok((vec![f64::NAN], None))),
            other => unreachable!("{other} is not a backend-layer fault"),
        }
    }
}

impl EvalBackend for ChaosBackend {
    fn name(&self) -> &str {
        "chaos"
    }

    fn slots(&self, pending: usize) -> usize {
        self.inner.slots(pending)
    }

    fn measure(
        &self,
        slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        self.measure_batch(slot, std::slice::from_ref(request))
            .pop()
            .expect("one lane per request")
    }

    fn lane_width(&self) -> usize {
        self.inner.lane_width()
    }

    /// Fires scheduled faults lane by lane, then hands every lane a fault
    /// did not replace to the inner backend as one batch. An injected
    /// panic is contained to its own lane by [`catch_measure`].
    fn measure_batch(&self, slot: usize, requests: &[EvalRequest<'_>]) -> MeasuredBatch {
        let injected: Vec<_> = requests
            .iter()
            .map(|request| self.inject(request))
            .collect();
        let forwarded: Vec<EvalRequest<'_>> = requests
            .iter()
            .zip(&injected)
            .filter(|(_, lane)| lane.is_none())
            .map(|(request, _)| *request)
            .collect();
        let measured = self.inner.measure_batch(slot, &forwarded);
        if measured.len() != forwarded.len() {
            // Malformed: let the runner fail the call as a whole.
            return measured;
        }
        let mut measured = measured.into_iter();
        injected
            .into_iter()
            .map(|lane| {
                lane.unwrap_or_else(|| measured.next().expect("one result per forwarded lane"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_core::catch_measure;

    /// Inner backend that records calls and returns the candidate id.
    #[derive(Debug)]
    struct Probe;

    impl EvalBackend for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn slots(&self, _pending: usize) -> usize {
            1
        }
        fn measure(
            &self,
            _slot: usize,
            request: &EvalRequest<'_>,
        ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
            Ok((vec![request.candidate_id as f64], None))
        }
    }

    /// Records the lane count of every batch it forwards to `inner`.
    #[derive(Debug)]
    struct BatchRecorder {
        inner: Arc<dyn EvalBackend>,
        calls: Mutex<Vec<usize>>,
    }

    impl EvalBackend for BatchRecorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn slots(&self, pending: usize) -> usize {
            self.inner.slots(pending)
        }
        fn measure(
            &self,
            slot: usize,
            request: &EvalRequest<'_>,
        ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
            self.inner.measure(slot, request)
        }
        fn lane_width(&self) -> usize {
            self.inner.lane_width()
        }
        fn measure_batch(&self, slot: usize, requests: &[EvalRequest<'_>]) -> MeasuredBatch {
            self.calls.lock().unwrap().push(requests.len());
            self.inner.measure_batch(slot, requests)
        }
    }

    #[test]
    fn decorators_forward_lane_width_and_whole_batches() {
        use crate::StepPanicBackend;
        use gest_core::{GestConfig, GestRun, LocalBackend, Registry};

        let config = GestConfig::builder("cortex-a15")
            .population_size(4)
            .individual_size(6)
            .build()
            .unwrap();
        let measurement = Registry::default()
            .build_measurement("power", config.machine.clone(), config.run_config)
            .unwrap();
        let local: Arc<dyn EvalBackend> =
            Arc::new(LocalBackend::new(measurement, config.template.clone(), 1).with_lane_width(4));
        // A seeded generation supplies four random individuals.
        let mut run = GestRun::builder().config(config).build().unwrap();
        run.step().unwrap();
        let genes: Vec<_> = run
            .population()
            .unwrap()
            .individuals
            .iter()
            .map(|individual| individual.genes.clone())
            .collect();
        let requests: Vec<EvalRequest<'_>> = genes
            .iter()
            .enumerate()
            .map(|(id, genes)| EvalRequest {
                generation: 0,
                candidate_id: id as u64,
                genes,
            })
            .collect();
        let bits = |batch: MeasuredBatch| -> Vec<(Vec<u64>, Option<RunResult>)> {
            batch
                .into_iter()
                .map(|lane| {
                    let (values, detail) = lane.unwrap();
                    (values.iter().map(|v| v.to_bits()).collect(), detail)
                })
                .collect()
        };
        let reference = bits(local.measure_batch(0, &requests));

        // No faults scheduled: the decorators must be transparent.
        let plan = FaultPlan::generate(0, 0);
        let recorder = || {
            Arc::new(BatchRecorder {
                inner: Arc::clone(&local),
                calls: Mutex::new(Vec::new()),
            })
        };
        let (chaos, step) = (recorder(), recorder());
        let decorated: [(Arc<dyn EvalBackend>, &BatchRecorder); 2] = [
            (
                Arc::new(ChaosBackend::new(
                    chaos.clone(),
                    &plan,
                    Telemetry::disabled(),
                )),
                &chaos,
            ),
            (
                Arc::new(StepPanicBackend::new(
                    step.clone(),
                    &plan,
                    Telemetry::disabled(),
                )),
                &step,
            ),
        ];
        for (wrapped, recorder) in decorated {
            assert_eq!(wrapped.lane_width(), 4, "{wrapped:?}");
            assert_eq!(bits(wrapped.measure_batch(0, &requests)), reference);
            assert_eq!(*recorder.calls.lock().unwrap(), vec![4], "one 4-lane call");
        }
    }

    fn request(candidate_id: u64) -> EvalRequest<'static> {
        EvalRequest {
            generation: 0,
            candidate_id,
            genes: &[],
        }
    }

    #[test]
    fn faults_are_capped_per_candidate_and_queue_drains_in_order() {
        // A full-size plan covers every kind, so its backend
        // sub-schedule is exactly the three backend faults.
        let plan = FaultPlan::generate(0, FaultKind::DIST.len());
        let expected: Vec<FaultKind> = plan
            .for_layer(FaultLayer::Backend)
            .iter()
            .copied()
            .collect();
        assert_eq!(expected.len(), 3, "three backend kinds exist");
        let chaos = ChaosBackend::new(Arc::new(Probe), &plan, Telemetry::disabled());

        // Candidate 1 absorbs at most two faults; the third waits.
        assert_eq!(chaos.take_fault(1), Some(expected[0]));
        assert_eq!(chaos.take_fault(1), Some(expected[1]));
        assert_eq!(chaos.take_fault(1), None, "budget cap");
        assert_eq!(chaos.remaining(), 1);
        // A different candidate drains the rest.
        assert_eq!(chaos.take_fault(2), Some(expected[2]));
        assert_eq!(chaos.take_fault(2), None, "queue empty");
        assert_eq!(chaos.remaining(), 0);
    }

    #[test]
    fn injected_panic_is_contained_by_catch_measure() {
        let plan = FaultPlan::generate(0, FaultKind::DIST.len());
        let chaos =
            Arc::new(ChaosBackend::new(Arc::new(Probe), &plan, Telemetry::disabled()).hang_ms(1));
        // Drive candidates until every backend fault has fired; each
        // attempt goes through catch_measure like the real runner's
        // watchdog thread does.
        let mut outcomes = Vec::new();
        for candidate in 0..8u64 {
            let request = request(candidate);
            let backend = Arc::clone(&chaos);
            outcomes.push(catch_measure(candidate, || backend.measure(0, &request)));
        }
        assert_eq!(chaos.remaining(), 0, "all faults fired");
        // Panics became errors, never unwinding out of catch_measure;
        // NaN injections surfaced as Ok (the *runner* rejects those).
        let errors = outcomes.iter().filter(|o| o.is_err()).count();
        assert!(errors >= 1, "the injected panic must surface as Err");
        let nan_out = outcomes
            .iter()
            .filter(|o| matches!(o, Ok((values, _)) if values.iter().any(|v| v.is_nan())))
            .count();
        assert_eq!(nan_out, 1, "exactly one NaN injection");
        // Clean candidates still measure through to the probe.
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, Ok((values, _)) if values.iter().all(|v| v.is_finite()))));
    }
}
