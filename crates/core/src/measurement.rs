//! The measurement plug-in interface (the paper's `Measurement.py`).
//!
//! In the paper, a measurement script copies the compiled individual to the
//! target over ssh, runs it, and samples an instrument (energy probe, i2c
//! sensor, perf, oscilloscope). Here the "target machine" is a simulated
//! CPU, and each shipped measurement runs the program on it and reports
//! the corresponding instrument's numbers. Custom measurements implement
//! [`Measurement`] and can be selected by name in the main configuration,
//! mirroring the paper's dynamic class loading.

use crate::error::GestError;
use gest_isa::Program;
use gest_sim::{MachineConfig, RunConfig, RunResult, Simulator};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of a batched measurement: one entry per program, in order —
/// the metric values plus the optional simulator detail, or that lane's
/// own error.
pub type MeasuredBatch = Vec<Result<(Vec<f64>, Option<RunResult>), GestError>>;

/// A measurement procedure: run a program, return metric values.
///
/// The first value is the headline metric — by the paper's convention it
/// becomes the default fitness and leads the output file name.
pub trait Measurement: Send + Sync + Debug {
    /// Identifier used in configuration files.
    fn name(&self) -> &'static str;

    /// Names of the values returned by [`measure`](Measurement::measure),
    /// in order.
    fn metrics(&self) -> &'static [&'static str];

    /// Runs the program and returns the metric values.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures as [`GestError::Sim`].
    fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError>;

    /// Like [`measure`](Measurement::measure), additionally returning the
    /// full simulator result when one backs the measurement, so observers
    /// (the runner's telemetry) can export pipeline/cache/PDN statistics
    /// without a second run. The default implementation returns no detail,
    /// keeping custom measurements source-compatible.
    ///
    /// # Errors
    ///
    /// Same as [`measure`](Measurement::measure).
    fn measure_detailed(
        &self,
        program: &Program,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        Ok((self.measure(program)?, None))
    }

    /// Measures a whole batch, one result per program, in order, by
    /// looping [`measure_detailed`](Measurement::measure_detailed). A
    /// failing program yields an `Err` in its lane only — it never
    /// disturbs its neighbours.
    fn measure_batch_detailed(&self, programs: &[Program]) -> MeasuredBatch {
        programs
            .iter()
            .map(|program| self.measure_detailed(program))
            .collect()
    }

    /// Whether the measured values are a pure function of the program's
    /// *content* (its instructions and template), independent of the
    /// program name, wall-clock time, or any other ambient state. Only
    /// content-pure measurements are eligible for the runner's evaluation
    /// cache; the conservative default keeps custom measurements uncached
    /// until they opt in.
    fn content_pure(&self) -> bool {
        false
    }
}

thread_local! {
    /// One reusable simulator scratch per evaluation thread: the decode
    /// buffer, energy waveform, steady-state detector storage and thermal
    /// schedule memo survive across the many programs a worker measures.
    static RUN_SCRATCH: std::cell::RefCell<gest_sim::RunScratch> =
        std::cell::RefCell::new(gest_sim::RunScratch::new());
}

// Process-wide fast-path counters, drained from the thread-local scratch
// after every run (the scratch dies with its worker thread, so
// per-thread counters alone cannot be read after an evaluation pool winds
// down).
static SIM_RUNS: AtomicU64 = AtomicU64::new(0);
static SIM_STEADY_HITS: AtomicU64 = AtomicU64::new(0);
static SIM_EXTRAPOLATED_ITERATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide counters of the simulator's steady-state fast path across
/// every sim-backed measurement in this process (see
/// [`gest_sim::RunScratch`]). Monotonic; sample before and after a run
/// and difference to scope them, as the `gest-benchmark` harness does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimFastPathStats {
    /// Simulator runs performed.
    pub runs: u64,
    /// Runs in which the steady-state detector fired.
    pub steady_hits: u64,
    /// Loop iterations synthesized analytically instead of executed.
    pub extrapolated_iterations: u64,
}

/// Samples the process-wide [`SimFastPathStats`].
pub fn sim_fast_path_stats() -> SimFastPathStats {
    SimFastPathStats {
        runs: SIM_RUNS.load(Ordering::Relaxed),
        steady_hits: SIM_STEADY_HITS.load(Ordering::Relaxed),
        extrapolated_iterations: SIM_EXTRAPOLATED_ITERATIONS.load(Ordering::Relaxed),
    }
}

/// What one simulator-backed measurement contributes: its configuration
/// name, its metric names, and the projection from a simulator result to
/// its metric vector. Everything else — running the simulator, detail
/// export — is [`SimMeasurement`]'s, shared by all of them.
pub trait SimProjection: Send + Sync + Debug + 'static {
    /// Identifier used in configuration files.
    const NAME: &'static str;
    /// Names of the projected values, in order.
    const METRICS: &'static [&'static str];
    /// The metric vector of one simulator result.
    fn project(result: &RunResult) -> Vec<f64>;
}

/// A measurement that runs each program on a simulated machine, through
/// this thread's simulator scratch, and projects the result through `P`.
#[derive(Debug, Clone)]
pub struct SimMeasurement<P> {
    simulator: Simulator,
    run_config: RunConfig,
    projection: PhantomData<P>,
}

impl<P: SimProjection> SimMeasurement<P> {
    fn on(machine: MachineConfig, run_config: RunConfig) -> SimMeasurement<P> {
        SimMeasurement {
            simulator: Simulator::new(machine),
            run_config,
            projection: PhantomData,
        }
    }
}

impl<P: SimProjection> Measurement for SimMeasurement<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn content_pure(&self) -> bool {
        true
    }

    fn metrics(&self) -> &'static [&'static str] {
        P::METRICS
    }

    fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
        Ok(self.measure_detailed(program)?.0)
    }

    /// Runs the program through this thread's simulator scratch; the
    /// process-wide fast-path counters advance by what the run did.
    fn measure_detailed(
        &self,
        program: &Program,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        let result = RUN_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let before = (
                scratch.runs,
                scratch.steady_hits,
                scratch.extrapolated_iterations,
            );
            let result = self
                .simulator
                .run_with_scratch(program, &self.run_config, &mut scratch);
            SIM_RUNS.fetch_add(scratch.runs - before.0, Ordering::Relaxed);
            SIM_STEADY_HITS.fetch_add(scratch.steady_hits - before.1, Ordering::Relaxed);
            SIM_EXTRAPOLATED_ITERATIONS.fetch_add(
                scratch.extrapolated_iterations - before.2,
                Ordering::Relaxed,
            );
            result
        })?;
        Ok((P::project(&result), Some(result)))
    }
}

/// Average power (the ARM energy-probe stand-in; paper §V):
/// `[avg_power_w, peak_power_w, ipc]`.
#[derive(Debug, Clone, Copy)]
pub struct Power;

impl SimProjection for Power {
    const NAME: &'static str = "power";
    const METRICS: &'static [&'static str] = &["avg_power_w", "peak_power_w", "ipc"];
    fn project(result: &RunResult) -> Vec<f64> {
        vec![result.avg_power_w, result.peak_power_w, result.ipc]
    }
}

/// Average-power measurement (the ARM energy-probe stand-in; paper §V).
///
/// Metrics: `[avg_power_w, peak_power_w, ipc]`.
pub type PowerMeasurement = SimMeasurement<Power>;

impl PowerMeasurement {
    /// Creates the measurement for a machine.
    pub fn new(machine: MachineConfig, run_config: RunConfig) -> PowerMeasurement {
        SimMeasurement::on(machine, run_config)
    }
}

/// Chip temperature (the i2c sensor stand-in; paper §V, X-Gene2):
/// `[temperature_c, avg_power_w, ipc]`.
#[derive(Debug, Clone, Copy)]
pub struct Temperature;

impl SimProjection for Temperature {
    const NAME: &'static str = "temperature";
    const METRICS: &'static [&'static str] = &["temperature_c", "avg_power_w", "ipc"];
    fn project(result: &RunResult) -> Vec<f64> {
        vec![result.temperature_c, result.avg_power_w, result.ipc]
    }
}

/// Chip-temperature measurement (the i2c sensor stand-in; paper §V,
/// X-Gene2).
///
/// Metrics: `[temperature_c, avg_power_w, ipc]`.
pub type TemperatureMeasurement = SimMeasurement<Temperature>;

impl TemperatureMeasurement {
    /// Creates the measurement for a machine.
    pub fn new(machine: MachineConfig, run_config: RunConfig) -> TemperatureMeasurement {
        SimMeasurement::on(machine, run_config)
    }
}

/// Instructions per cycle (the `perf` stand-in; paper §V, IPC virus):
/// `[ipc, avg_power_w, temperature_c]`.
#[derive(Debug, Clone, Copy)]
pub struct Ipc;

impl SimProjection for Ipc {
    const NAME: &'static str = "ipc";
    const METRICS: &'static [&'static str] = &["ipc", "avg_power_w", "temperature_c"];
    fn project(result: &RunResult) -> Vec<f64> {
        vec![result.ipc, result.avg_power_w, result.temperature_c]
    }
}

/// IPC measurement (the `perf` stand-in; paper §V, IPC virus).
///
/// Metrics: `[ipc, avg_power_w, temperature_c]`.
pub type IpcMeasurement = SimMeasurement<Ipc>;

impl IpcMeasurement {
    /// Creates the measurement for a machine.
    pub fn new(machine: MachineConfig, run_config: RunConfig) -> IpcMeasurement {
        SimMeasurement::on(machine, run_config)
    }
}

/// Voltage noise (the oscilloscope stand-in; paper §VI):
/// `[peak_to_peak_v, max_droop_v, avg_power_w]`.
#[derive(Debug, Clone, Copy)]
pub struct VoltageNoise;

impl SimProjection for VoltageNoise {
    const NAME: &'static str = "voltage_noise";
    const METRICS: &'static [&'static str] = &["peak_to_peak_v", "max_droop_v", "avg_power_w"];
    fn project(result: &RunResult) -> Vec<f64> {
        let stats = result.voltage.expect("constructor verified the PDN exists");
        vec![stats.peak_to_peak(), stats.max_droop(), result.avg_power_w]
    }
}

/// Voltage-noise measurement (the oscilloscope stand-in; paper §VI).
///
/// Metrics: `[peak_to_peak_v, max_droop_v, avg_power_w]`.
pub type VoltageNoiseMeasurement = SimMeasurement<VoltageNoise>;

impl VoltageNoiseMeasurement {
    /// Creates the measurement for a machine.
    ///
    /// # Errors
    ///
    /// Returns [`GestError::Config`] if the machine has no PDN model (no
    /// voltage sense points, like the paper's Versatile Express boards).
    pub fn new(
        machine: MachineConfig,
        run_config: RunConfig,
    ) -> Result<VoltageNoiseMeasurement, GestError> {
        if machine.pdn.is_none() {
            return Err(GestError::Config(format!(
                "machine {:?} has no PDN model: voltage noise cannot be measured",
                machine.name
            )));
        }
        Ok(SimMeasurement::on(machine, run_config))
    }
}

/// L1 misses (paper §VII's LLC/DRAM extension):
/// `[l1_misses_per_kinstr, l1_miss_rate, avg_power_w]`.
#[derive(Debug, Clone, Copy)]
pub struct CacheMiss;

impl SimProjection for CacheMiss {
    const NAME: &'static str = "cache_miss";
    const METRICS: &'static [&'static str] =
        &["l1_misses_per_kinstr", "l1_miss_rate", "avg_power_w"];
    fn project(result: &RunResult) -> Vec<f64> {
        let misses_per_kinstr =
            1000.0 * result.l1.misses as f64 / result.instructions.max(1) as f64;
        vec![
            misses_per_kinstr,
            1.0 - result.l1.hit_rate(),
            result.avg_power_w,
        ]
    }
}

/// Cache-miss measurement, for the paper's §VII extension: "with GeST is
/// possible to stress LLC or DRAM by instructing the framework to optimize
/// towards cache-misses and providing in the input file load/store
/// instruction definitions with various strides".
///
/// Metrics: `[l1_misses_per_kinstr, l1_miss_rate, avg_power_w]`. Pair it
/// with a machine whose scratch buffer exceeds L1 (see
/// [`crate::pools::llc_pool`]).
pub type CacheMissMeasurement = SimMeasurement<CacheMiss>;

impl CacheMissMeasurement {
    /// Creates the measurement for a machine.
    pub fn new(machine: MachineConfig, run_config: RunConfig) -> CacheMissMeasurement {
        SimMeasurement::on(machine, run_config)
    }
}

/// Wraps any measurement with multiplicative Gaussian noise, modelling the
/// instrument variability the paper works around by optimizing on a single
/// core ("less measurement variability which helps the GA optimization to
/// converge faster", §IV).
///
/// Noise is a pure function of the program name and metric index, so runs
/// stay reproducible regardless of evaluation-thread interleaving.
#[derive(Debug)]
pub struct NoisyMeasurement {
    inner: Arc<dyn Measurement>,
    sigma_rel: f64,
    seed: u64,
}

impl NoisyMeasurement {
    /// Wraps `inner`, perturbing every value by `N(0, sigma_rel)` relative
    /// noise.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_rel` is negative.
    pub fn wrap(inner: Arc<dyn Measurement>, sigma_rel: f64, seed: u64) -> NoisyMeasurement {
        assert!(sigma_rel >= 0.0, "noise sigma must be non-negative");
        NoisyMeasurement {
            inner,
            sigma_rel,
            seed,
        }
    }

    fn gaussian(&self, name: &str, index: usize) -> f64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut hasher);
        name.hash(&mut hasher);
        index.hash(&mut hasher);
        let bits = hasher.finish();
        // Box-Muller from two 32-bit halves.
        let u1 = ((bits >> 32) as f64 + 1.0) / (u32::MAX as f64 + 2.0);
        let u2 = ((bits & 0xFFFF_FFFF) as f64 + 1.0) / (u32::MAX as f64 + 2.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn perturb(&self, name: &str, values: &mut [f64]) {
        for (index, value) in values.iter_mut().enumerate() {
            *value *= 1.0 + self.sigma_rel * self.gaussian(name, index);
        }
    }
}

impl Measurement for NoisyMeasurement {
    fn name(&self) -> &'static str {
        "noisy"
    }

    fn metrics(&self) -> &'static [&'static str] {
        self.inner.metrics()
    }

    fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
        Ok(self.measure_detailed(program)?.0)
    }

    /// Perturbs only the wrapped measurement's metric values — the
    /// simulator detail stays exact, mirroring an instrument that is noisy
    /// while the silicon underneath is not.
    fn measure_detailed(
        &self,
        program: &Program,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        let (mut values, detail) = self.inner.measure_detailed(program)?;
        self.perturb(&program.name, &mut values);
        Ok((values, detail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_isa::{asm, Template};

    fn demo_program() -> Program {
        Template::default_stress().materialize(
            "demo",
            asm::parse_block("FMUL v8, v1, v2\nADD x1, x2, x3").unwrap(),
        )
    }

    #[test]
    fn power_measurement_reports_three_metrics() {
        let m = PowerMeasurement::new(MachineConfig::cortex_a15(), RunConfig::quick());
        let values = m.measure(&demo_program()).unwrap();
        assert_eq!(values.len(), m.metrics().len());
        assert!(values[0] > 0.0);
        assert!(values[1] >= values[0], "peak >= avg");
    }

    #[test]
    fn temperature_headline_is_celsius() {
        let m = TemperatureMeasurement::new(MachineConfig::xgene2(), RunConfig::quick());
        let values = m.measure(&demo_program()).unwrap();
        let ambient = MachineConfig::xgene2().thermal.ambient_c;
        assert!(
            values[0] > ambient,
            "temperature {} above ambient",
            values[0]
        );
    }

    #[test]
    fn ipc_headline_bounded_by_width() {
        let m = IpcMeasurement::new(MachineConfig::xgene2(), RunConfig::quick());
        let values = m.measure(&demo_program()).unwrap();
        assert!(values[0] > 0.0 && values[0] <= 4.0);
    }

    #[test]
    fn voltage_noise_requires_pdn() {
        assert!(matches!(
            VoltageNoiseMeasurement::new(MachineConfig::cortex_a15(), RunConfig::quick()),
            Err(GestError::Config(_))
        ));
        let m =
            VoltageNoiseMeasurement::new(MachineConfig::athlon_x4(), RunConfig::quick()).unwrap();
        let values = m.measure(&demo_program()).unwrap();
        assert!(values[0] >= 0.0, "p2p noise");
        assert!(values[1] >= 0.0, "droop");
    }

    #[test]
    fn cache_miss_measurement_counts_misses() {
        // Small buffer: everything hits; big buffer with striding loads:
        // misses dominate.
        let mut machine = MachineConfig::xgene2();
        machine.mem_bytes = 1 << 20;
        let m = CacheMissMeasurement::new(machine, RunConfig::quick());
        let resident = m.measure(&demo_program()).unwrap();
        assert!(
            resident[1] < 0.05,
            "L1-resident program should hit: {resident:?}"
        );
        let streaming = Template::default_stress().materialize(
            "stream",
            asm::parse_block("LDR x11, [x10, #0]\nADDI x10, x10, #64").unwrap(),
        );
        let missing = m.measure(&streaming).unwrap();
        assert!(
            missing[0] > 100.0,
            "striding loads should miss: {missing:?}"
        );
        assert!(missing[1] > 0.3, "miss rate: {missing:?}");
    }

    #[test]
    fn noisy_measurement_perturbs_reproducibly() {
        let inner: Arc<dyn Measurement> = Arc::new(PowerMeasurement::new(
            MachineConfig::cortex_a15(),
            RunConfig::quick(),
        ));
        let clean = inner.measure(&demo_program()).unwrap();
        let noisy = NoisyMeasurement::wrap(Arc::clone(&inner), 0.05, 9);
        let a = noisy.measure(&demo_program()).unwrap();
        let b = noisy.measure(&demo_program()).unwrap();
        assert_eq!(a, b, "noise must be a pure function of the program");
        assert_ne!(a, clean, "5% noise should perturb");
        assert!(
            (a[0] / clean[0] - 1.0).abs() < 0.3,
            "noise bounded: {a:?} vs {clean:?}"
        );
        // Different seeds decorrelate.
        let other = NoisyMeasurement::wrap(inner, 0.05, 10)
            .measure(&demo_program())
            .unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn noisy_zero_sigma_is_identity() {
        let inner: Arc<dyn Measurement> = Arc::new(PowerMeasurement::new(
            MachineConfig::cortex_a15(),
            RunConfig::quick(),
        ));
        let clean = inner.measure(&demo_program()).unwrap();
        let wrapped = NoisyMeasurement::wrap(inner, 0.0, 1)
            .measure(&demo_program())
            .unwrap();
        assert_eq!(clean, wrapped);
    }

    #[test]
    fn measure_detailed_exposes_simulator_result() {
        let m = PowerMeasurement::new(MachineConfig::cortex_a15(), RunConfig::quick());
        let (values, detail) = m.measure_detailed(&demo_program()).unwrap();
        assert_eq!(values, m.measure(&demo_program()).unwrap());
        let detail = detail.expect("sim-backed measurement exposes the run result");
        assert_eq!(detail.avg_power_w, values[0]);
        assert!(detail.metric_kv().len() >= 13, "full stat export");

        // A custom measurement that only implements `measure` still works,
        // reporting no detail through the default implementation.
        #[derive(Debug)]
        struct Flat;
        impl Measurement for Flat {
            fn name(&self) -> &'static str {
                "flat"
            }
            fn metrics(&self) -> &'static [&'static str] {
                &["one"]
            }
            fn measure(&self, _program: &Program) -> Result<Vec<f64>, GestError> {
                Ok(vec![1.0])
            }
        }
        let (values, detail) = Flat.measure_detailed(&demo_program()).unwrap();
        assert_eq!(values, vec![1.0]);
        assert!(detail.is_none());
    }

    #[test]
    fn batched_measurements_match_singles_lane_for_lane() {
        let m = PowerMeasurement::new(MachineConfig::cortex_a15(), RunConfig::quick());
        let programs = vec![
            demo_program(),
            // An empty body fails in its lane only (SimError::EmptyProgram).
            Template::default_stress().materialize("empty", asm::parse_block("").unwrap()),
            Template::default_stress().materialize(
                "stream",
                asm::parse_block("LDR x11, [x10, #0]\nADDI x10, x10, #64").unwrap(),
            ),
        ];
        let batched = m.measure_batch_detailed(&programs);
        assert_eq!(batched.len(), programs.len());
        assert!(batched[1].is_err(), "empty lane fails alone");
        for (program, lane) in programs.iter().zip(&batched) {
            match (lane, m.measure_detailed(program)) {
                (Ok((values, detail)), Ok((single_values, single_detail))) => {
                    assert_eq!(values, &single_values, "{}", program.name);
                    assert_eq!(detail, &single_detail, "{}", program.name);
                }
                (Err(_), Err(_)) => {}
                (lane, single) => panic!(
                    "{}: lane ok={} but single ok={}",
                    program.name,
                    lane.is_ok(),
                    single.is_ok()
                ),
            }
        }

        // Pure per-name noise keeps the noisy wrapper's batched values
        // equal to its singles.
        let noisy = NoisyMeasurement::wrap(Arc::new(m), 0.05, 9);
        for (program, lane) in programs.iter().zip(noisy.measure_batch_detailed(&programs)) {
            match (lane, noisy.measure_detailed(program)) {
                (Ok((values, _)), Ok((single_values, _))) => {
                    assert_eq!(values, single_values, "{}", program.name);
                }
                (Err(_), Err(_)) => {}
                _ => panic!("{}: noisy lane/single disagree", program.name),
            }
        }

        // A measurement that implements only `measure` batches through
        // the looping defaults.
        #[derive(Debug)]
        struct Flat;
        impl Measurement for Flat {
            fn name(&self) -> &'static str {
                "flat"
            }
            fn metrics(&self) -> &'static [&'static str] {
                &["one"]
            }
            fn measure(&self, _program: &Program) -> Result<Vec<f64>, GestError> {
                Ok(vec![1.0])
            }
        }
        let flat = Flat.measure_batch_detailed(&programs);
        assert_eq!(flat.len(), programs.len());
        for lane in flat {
            assert_eq!(lane.unwrap().0, vec![1.0]);
        }
    }
}
