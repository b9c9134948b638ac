//! The run driver: coordinates the GA engine, measurement, fitness, and
//! outputs across generations (the paper's Figure 2 loop).

use crate::checkpoint::{config_fingerprint, Checkpoint};
use crate::config::GestConfig;
use crate::error::GestError;
use crate::evalbackend::{
    catch_measure, catch_measure_batch, fail_lanes, watchdog_measure, EvalBackend, EvalRequest,
    LocalBackend,
};
use crate::evalcache::{genes_hash, CachedEval, EvalCache, EvalCacheStats, EvalKey};
use crate::fault::QUARANTINE_FITNESS;
use crate::fitness::{Fitness, FitnessContext};
use crate::genetics::PoolGenetics;
use crate::health;
use crate::measurement::{MeasuredBatch, Measurement};
use crate::output::{OutputWriter, RealFs, SavedIndividual, SavedPopulation, WriteFs};
use crate::registry::{FitnessParams, Registry};
use crate::surrogate::{SurrogateMode, SurrogateModel, SurrogateOptions, SPEARMAN_GATE};
use gest_ga::{Candidate, Evaluated, ExplorationSampler, GaEngine, History, Population};
use gest_isa::features::{featurize, FeatureVec};
use gest_isa::{Gene, Program};
use gest_telemetry::{Buckets, FieldValue, SpanGuard, Telemetry};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Latency buckets for `eval.latency_us`: 100µs up to 100s, one decade
/// per bucket.
fn latency_buckets() -> &'static Buckets {
    static BUCKETS: OnceLock<Buckets> = OnceLock::new();
    BUCKETS.get_or_init(|| Buckets::exponential(100.0, 10.0, 7))
}

/// Wide-range buckets for `sim.*` value histograms; summary statistics
/// (min/mean/max) stay exact regardless of bucket resolution.
fn sim_buckets() -> &'static Buckets {
    static BUCKETS: OnceLock<Buckets> = OnceLock::new();
    BUCKETS.get_or_init(|| Buckets::exponential(1e-6, 10.0, 16))
}

/// `sim.{stat}` metric name for a [`gest_sim::RunResult::metric_kv`] stat:
/// a static table, so traced runs do not format a name per stat per
/// candidate. A stat missing from the table still gets its name, just
/// formatted.
fn sim_metric_name(stat: &str) -> Cow<'static, str> {
    Cow::Borrowed(match stat {
        "cycles" => "sim.cycles",
        "instructions" => "sim.instructions",
        "ipc" => "sim.ipc",
        "energy_j" => "sim.energy_j",
        "avg_power_w" => "sim.avg_power_w",
        "chip_power_w" => "sim.chip_power_w",
        "peak_power_w" => "sim.peak_power_w",
        "temperature_c" => "sim.temperature_c",
        "steady_temp_c" => "sim.steady_temp_c",
        "l1_hits" => "sim.l1_hits",
        "l1_misses" => "sim.l1_misses",
        "l1_hit_rate" => "sim.l1_hit_rate",
        "branch_accuracy" => "sim.branch_accuracy",
        "voltage_p2p_v" => "sim.voltage_p2p_v",
        "voltage_droop_v" => "sim.voltage_droop_v",
        "voltage_min_v" => "sim.voltage_min_v",
        other => return Cow::Owned(format!("sim.{other}")),
    })
}

/// Records a simulator run's stats into the `sim.*` histograms.
fn record_sim_stats(telemetry: &Telemetry, kv: &[(&'static str, f64)]) {
    for &(stat, value) in kv {
        telemetry.record(&sim_metric_name(stat), sim_buckets(), value);
    }
}

/// What a candidate's evaluation contributes to its [`Evaluated`]:
/// `(fitness, measurements)`. Identity and genes move over from the
/// candidate when the population is assembled.
type Score = (f64, Vec<f64>);

/// Write-once result slot: each candidate index is claimed by exactly one
/// evaluation slot through the dispatch cursor.
type EvalSlot = OnceLock<Result<Score, GestError>>;

/// What one [`GestRun::step`] call did — the contract that lets an
/// external scheduler (e.g. `gest-serve`) multiplex many runs over one
/// thread by repeatedly stepping each until `Budget`.
///
/// `Converged` is advisory: the generation ran and the budget still has
/// room, but the search health reports a fitness plateau. A driver that
/// wants byte-identical artifacts to `GestRun::run` must keep stepping
/// through `Converged` until `Budget` (the blocking loop does exactly
/// that); a scheduler may instead use it to deprioritize stalled runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One generation completed; budget remains and fitness is still
    /// improving.
    Progressed,
    /// One generation completed and budget remains, but the convergence
    /// history reports a plateau (see [`crate::health`]).
    Converged,
    /// The configured generation budget is exhausted. The call that
    /// completes the final generation returns `Budget`; further calls
    /// are no-ops that return `Budget` again.
    Budget,
}

impl StepOutcome {
    /// Whether the run has nothing left to do (`Budget`).
    pub fn is_terminal(self) -> bool {
        matches!(self, StepOutcome::Budget)
    }
}

/// Final outcome of a GeST search.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The fittest individual found across all generations.
    pub best: Evaluated<Gene>,
    /// The program the best individual materializes to.
    pub best_program: Program,
    /// Per-generation convergence history.
    pub history: History,
    /// Number of generations evaluated (including the seed generation).
    pub generations: u32,
    /// Metric names of the measurement used.
    pub metric_names: Vec<&'static str>,
}

impl RunSummary {
    /// Instruction-class breakdown of the best individual, in
    /// [`gest_isa::InstrClass::ALL`] order (the paper's Table III/IV rows).
    pub fn best_breakdown(&self) -> [usize; 6] {
        gest_isa::InstructionPool::class_breakdown(&self.best.genes)
    }

    /// Unique instruction definitions used by the best individual (the
    /// paper's simplicity metric).
    pub fn best_unique_defs(&self) -> usize {
        gest_isa::InstructionPool::unique_defs(&self.best.genes)
    }
}

/// A configured GeST search.
///
/// Built by [`GestRun::builder`] (or restored from a crashed run's output
/// directory by [`GestRun::resume`]). Use [`GestRun::run`] for the whole
/// search, or [`GestRun::step`] to drive it generation by generation
/// (e.g. for live plotting).
#[derive(Debug)]
pub struct GestRun {
    config: GestConfig,
    /// FNV-1a of the run's canonical `config.xml` rendering, stamped into
    /// every checkpoint manifest so resume can refuse mismatched
    /// configurations.
    config_fingerprint: u64,
    engine: GaEngine<PoolGenetics>,
    measurement: Arc<dyn Measurement>,
    fitness: Arc<dyn Fitness>,
    history: History,
    writer: Option<OutputWriter>,
    current: Option<Population<Gene>>,
    best: Option<Evaluated<Gene>>,
    generation: u32,
    telemetry: Telemetry,
    /// Open for the whole search; closed by [`GestRun::finish`].
    run_span: Option<SpanGuard>,
    /// Content-addressed result cache; `None` when disabled by
    /// configuration or when the measurement is not content-pure.
    eval_cache: Option<Arc<EvalCache>>,
    /// Where raw candidate measurements execute (local threads by
    /// default; `gest-dist` plugs remote workers in here).
    backend: Arc<dyn EvalBackend>,
    /// How persistence writes reach disk ([`RealFs`] by default;
    /// fault-injection harnesses substitute a failing shim here).
    write_fs: Arc<dyn WriteFs>,
    /// Surrogate screening state; `None` when [`SurrogateMode::Off`].
    /// Behind a `Mutex` only because [`GestRun::evaluate`] takes `&self`
    /// across a thread scope — the lock is taken exclusively on the main
    /// thread (plan before the waves, update after), in canonical
    /// candidate order, which is what keeps screening deterministic.
    surrogate: Option<Mutex<SurrogateRuntime>>,
}

/// Builder for [`GestRun`].
///
/// Exactly one of [`config`](GestRunBuilder::config) or
/// [`resume_from`](GestRunBuilder::resume_from) is required; everything
/// else is optional.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_core::GestError> {
/// use gest_core::{GestConfig, GestRun};
///
/// let config = GestConfig::builder("cortex-a15")
///     .population_size(6)
///     .individual_size(8)
///     .generations(2)
///     .build()?;
/// let summary = GestRun::builder().config(config).build()?.run()?;
/// assert!(summary.best.fitness > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct GestRunBuilder {
    config: Option<GestConfig>,
    resume_dir: Option<PathBuf>,
    measurement: Option<Arc<dyn Measurement>>,
    registry: Option<Registry>,
    telemetry: Option<Telemetry>,
    eval_cache: Option<bool>,
    eval_cache_handle: Option<Arc<EvalCache>>,
    eval_backend: Option<Arc<dyn EvalBackend>>,
    write_fs: Option<Arc<dyn WriteFs>>,
    lane_width: Option<usize>,
    surrogate: Option<SurrogateOptions>,
}

impl GestRunBuilder {
    /// Supplies the run configuration (for a fresh search).
    pub fn config(mut self, config: GestConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Restores a checkpointed run from its output directory instead of
    /// starting fresh: the configuration is read back from the
    /// directory's `config.xml`, the search state from its checkpoint
    /// manifest and last population file.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_dir = Some(dir.into());
        self
    }

    /// Uses an explicit measurement instance instead of resolving
    /// `config.measurement_name` through the registry — the programmatic
    /// equivalent of dropping a custom measurement class next to the
    /// framework (paper §III.C), e.g. a [`crate::NoisyMeasurement`]
    /// wrapper.
    pub fn measurement(mut self, measurement: Arc<dyn Measurement>) -> Self {
        self.measurement = Some(measurement);
        self
    }

    /// Resolves plug-in names through a custom [`Registry`] instead of
    /// the shipped default — the way to make user-defined measurements
    /// and fitness functions addressable from configuration files.
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Overrides the configuration's telemetry handle (convenient when
    /// the configuration came from XML, which cannot carry one).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Forces the evaluation cache on or off, overriding
    /// [`GestConfig::eval_cache`] — needed for resumed runs, whose
    /// configuration is read back from `config.xml` (which does not carry
    /// execution details), and for the CLI's `--no-eval-cache` flag.
    pub fn eval_cache(mut self, on: bool) -> Self {
        self.eval_cache = Some(on);
        self
    }

    /// Overrides [`GestConfig::lane_width`] — needed for resumed runs,
    /// whose configuration is read back from `config.xml` (which does not
    /// carry execution details), and for the CLI's `--lane-width` flag.
    /// Any width produces byte-identical search artifacts.
    pub fn lane_width(mut self, lane_width: usize) -> Self {
        self.lane_width = Some(lane_width);
        self
    }

    /// Overrides [`GestConfig::surrogate`] — needed for resumed runs,
    /// whose configuration is read back from `config.xml` (which does not
    /// carry execution-policy knobs), and for the CLI's `--surrogate`
    /// flags. See [`crate::surrogate`].
    pub fn surrogate(mut self, options: SurrogateOptions) -> Self {
        self.surrogate = Some(options);
        self
    }

    /// Shares a pre-built evaluation cache with this run instead of
    /// starting cold — the way to amortize evaluation work across several
    /// runs of the same configuration (repeated continuation segments,
    /// re-running a converged search, the benchmark harness's `warm`
    /// replay). The handle is used only when its configuration
    /// fingerprint matches this run's and the cache is otherwise enabled;
    /// a mismatched or superfluous handle is ignored and the run starts
    /// cold as usual. Content-addressing makes the sharing safe: a hit is
    /// bit-identical to a fresh evaluation by construction.
    pub fn eval_cache_handle(mut self, cache: Arc<EvalCache>) -> Self {
        self.eval_cache_handle = Some(cache);
        self
    }

    /// Installs a custom [`EvalBackend`] deciding *where* candidate
    /// measurements execute (e.g. `gest-dist`'s TCP `Coordinator`).
    /// Defaults to [`LocalBackend`] over the configured thread count.
    ///
    /// Everything determinism-relevant — cache lookups, fitness, fault
    /// policy, result ordering — stays in the runner, so a backend swap
    /// cannot change the evolved result.
    pub fn eval_backend(mut self, backend: Arc<dyn EvalBackend>) -> Self {
        self.eval_backend = Some(backend);
        self
    }

    /// Routes persistence writes (checkpoint manifests, eval-cache
    /// sidecars) through a custom [`WriteFs`] instead of the real
    /// filesystem. Defaults to [`RealFs`]; fault-injection harnesses use
    /// this seam to simulate disk-full and torn writes against the real
    /// persistence logic.
    pub fn write_fs(mut self, fs: Arc<dyn WriteFs>) -> Self {
        self.write_fs = Some(fs);
        self
    }

    /// Builds the run: resolves plug-ins, prepares the GA engine, opens
    /// the output directory, and — when resuming — restores engine,
    /// history, best individual, and current population from the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] when neither (or both) of `config` and
    /// `resume_from` were given, for unknown plug-in names, or when a
    /// checkpoint's fingerprint does not match the directory's
    /// `config.xml`; I/O and codec errors reading checkpoint state.
    pub fn build(self) -> Result<GestRun, GestError> {
        let registry = self.registry.unwrap_or_default();
        match (self.config, self.resume_dir) {
            (Some(_), Some(_)) => Err(GestError::Config(
                "GestRun::builder(): config(..) and resume_from(..) are mutually exclusive".into(),
            )),
            (None, None) => Err(GestError::Config(
                "GestRun::builder(): either config(..) or resume_from(..) is required".into(),
            )),
            (Some(mut config), None) => {
                if let Some(telemetry) = self.telemetry {
                    config.telemetry = telemetry;
                }
                if let Some(on) = self.eval_cache {
                    config.eval_cache = on;
                }
                if let Some(lane_width) = self.lane_width {
                    config.lane_width = lane_width;
                }
                if let Some(surrogate) = self.surrogate {
                    config.surrogate = surrogate;
                }
                let fingerprint = config_fingerprint(&config.to_xml().to_string());
                let measurement = match self.measurement {
                    Some(measurement) => measurement,
                    None => registry.build_measurement(
                        &config.measurement_name,
                        config.machine.clone(),
                        config.run_config,
                    )?,
                };
                GestRun::assemble(
                    config,
                    fingerprint,
                    measurement,
                    &registry,
                    None,
                    self.eval_cache_handle,
                    self.eval_backend,
                    self.write_fs,
                )
            }
            (None, Some(dir)) => {
                // Checkpoint first: its absence has the most actionable
                // error message ("was checkpointing enabled?").
                let checkpoint = Checkpoint::load(&dir)?;
                let raw = std::fs::read_to_string(dir.join("config.xml"))?;
                let mut config = GestConfig::from_xml_str(&raw)?;
                if let Some(telemetry) = self.telemetry {
                    config.telemetry = telemetry;
                }
                if let Some(on) = self.eval_cache {
                    config.eval_cache = on;
                }
                if let Some(lane_width) = self.lane_width {
                    config.lane_width = lane_width;
                }
                if let Some(surrogate) = self.surrogate {
                    config.surrogate = surrogate;
                }
                let fingerprint = config_fingerprint(&raw);
                if checkpoint.config_fingerprint != fingerprint {
                    return Err(GestError::Config(format!(
                        "checkpoint in {} was written under a different configuration \
                         (fingerprint {:016x}, config.xml hashes to {:016x}); \
                         refusing to resume into a diverged search",
                        dir.display(),
                        checkpoint.config_fingerprint,
                        fingerprint
                    )));
                }
                if checkpoint.generation == 0 {
                    return Err(GestError::Config(
                        "checkpoint precedes the first completed generation".into(),
                    ));
                }
                let population_file =
                    dir.join(format!("population_{:04}.bin", checkpoint.generation - 1));
                let population = SavedPopulation::load(&population_file)?.to_population();
                if population.generation != checkpoint.generation - 1 {
                    return Err(GestError::Config(format!(
                        "population file {} holds generation {} but the checkpoint \
                         expects generation {}",
                        population_file.display(),
                        population.generation,
                        checkpoint.generation - 1
                    )));
                }
                let measurement = match self.measurement {
                    Some(measurement) => measurement,
                    None => registry.build_measurement(
                        &config.measurement_name,
                        config.machine.clone(),
                        config.run_config,
                    )?,
                };
                GestRun::assemble(
                    config,
                    fingerprint,
                    measurement,
                    &registry,
                    Some(ResumeState {
                        dir,
                        checkpoint,
                        population,
                    }),
                    self.eval_cache_handle,
                    self.eval_backend,
                    self.write_fs,
                )
            }
        }
    }
}

/// State carried from a checkpoint into [`GestRun::assemble`].
struct ResumeState {
    dir: PathBuf,
    checkpoint: Checkpoint,
    population: Population<Gene>,
}

/// Resolved surrogate screening state ([`SurrogateMode::Screen`] only).
#[derive(Debug)]
struct SurrogateRuntime {
    model: SurrogateModel,
    /// Top predicted candidates fully simulated per generation.
    topk: usize,
    /// Exploration quota drawn from the screened-out remainder.
    explore: usize,
    /// Sample floor before the confidence gate may open.
    min_samples: u64,
    /// Cumulative candidates assigned surrogate fitness.
    screened_total: u64,
    /// Cumulative candidates fully simulated while screening was active.
    simulated_total: u64,
    /// Candidate ids screened in the latest generation — excluded from
    /// best-individual updates, so only *measured* fitness can become the
    /// run's best.
    screened_last: HashSet<u64>,
    /// Gate state of the latest planned generation.
    last_gate_open: bool,
    /// Warmed up yet still below the correlation threshold: the run has
    /// degraded to 100% full simulation.
    degraded: bool,
    /// One-shot latch for the degradation warning.
    warned_degraded: bool,
}

/// Per-generation screening decisions, computed coordinator-side on the
/// main thread *before* any evaluation wave is dispatched — backends
/// (local threads or distributed workers) only ever see the candidates
/// that survived screening.
struct ScreenPlan {
    /// Feature vector per candidate index.
    features: Vec<FeatureVec>,
    /// Raw model prediction per candidate index.
    predictions: Vec<f64>,
    /// Whether the predictions came from a fitted model; rank-correlation
    /// pairs are recorded only then (an unfitted model predicts a
    /// constant, which would poison the Spearman window with ties).
    fitted: bool,
    /// Whether the confidence gate allowed screening this generation.
    gate_open: bool,
    /// `(candidate index, calibrated surrogate fitness)` for every
    /// candidate excused from simulation.
    skipped: Vec<(usize, f64)>,
    /// Index set of `skipped`.
    skipped_set: HashSet<usize>,
}

/// Point-in-time surrogate screening counters (see
/// [`GestRun::surrogate_stats`]).
#[derive(Debug, Clone, Copy)]
pub struct SurrogateStats {
    /// Rolling Spearman rank correlation between predicted and measured
    /// fitness; `None` until enough out-of-sample pairs exist.
    pub spearman: Option<f64>,
    /// Cumulative candidates assigned surrogate fitness instead of
    /// simulation.
    pub screened: u64,
    /// Cumulative candidates fully simulated (and used as training
    /// pairs).
    pub simulated: u64,
    /// Whether the confidence gate was open at the latest generation.
    pub gate_open: bool,
    /// Training observations accumulated by the model.
    pub samples: u64,
}

impl GestRun {
    /// Starts building a run. See [`GestRunBuilder`].
    pub fn builder() -> GestRunBuilder {
        GestRunBuilder::default()
    }

    /// Restores a checkpointed run from its output directory with the
    /// default registry — shorthand for
    /// `GestRun::builder().resume_from(dir).build()`.
    ///
    /// The restored run continues bit-identically to one that was never
    /// interrupted: the GA RNG stream, id allocation, history, and best
    /// individual all pick up exactly where the checkpoint left them.
    ///
    /// # Errors
    ///
    /// See [`GestRunBuilder::build`].
    pub fn resume(dir: impl Into<PathBuf>) -> Result<GestRun, GestError> {
        GestRun::builder().resume_from(dir).build()
    }

    /// The shared tail of fresh construction and resume.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        config: GestConfig,
        fingerprint: u64,
        measurement: Arc<dyn Measurement>,
        registry: &Registry,
        resume: Option<ResumeState>,
        shared_cache: Option<Arc<EvalCache>>,
        backend: Option<Arc<dyn EvalBackend>>,
        write_fs: Option<Arc<dyn WriteFs>>,
    ) -> Result<GestRun, GestError> {
        // Equation-1 parameters: idle temperature = steady state under
        // static power alone; max = TJMAX (overridable via
        // `fitness_override`).
        let idle_c = config
            .machine
            .thermal
            .steady_state_c(config.machine.energy.static_w);
        let fitness = match &config.fitness_override {
            Some(custom) => Arc::clone(custom),
            None => registry.build_fitness(
                &config.fitness_name,
                FitnessParams {
                    idle_c,
                    max_c: config.machine.thermal.tjmax_c,
                },
            )?,
        };
        let genetics = PoolGenetics::new(Arc::clone(&config.pool))
            .with_whole_instruction_prob(config.whole_instruction_mutation_prob);
        let mut engine = GaEngine::new(config.ga, genetics, config.seed);
        let writer = match &resume {
            Some(state) => Some(OutputWriter::reopen(&state.dir)?),
            None => match &config.output_dir {
                Some(dir) => Some(OutputWriter::new(dir, &config, &config.template)?),
                None => None,
            },
        };
        let telemetry = config.telemetry.clone();
        let resumed_from = resume.as_ref().map(|state| state.checkpoint.generation);
        let run_span = Some(telemetry.span_with(
            "run",
            &[
                // Hex config fingerprint doubles as the run id surfaced
                // by the live /status endpoint.
                ("config_fp", format!("{fingerprint:016x}").into()),
                ("machine", config.machine.name.as_str().into()),
                ("measurement", measurement.name().into()),
                ("population_size", config.ga.population_size.into()),
                ("generations", u64::from(config.generations).into()),
                ("seed", config.seed.into()),
                ("resumed_from", u64::from(resumed_from.unwrap_or(0)).into()),
            ],
        ));
        // Cache only content-pure measurements: their results depend
        // solely on program content, so a hit is bit-identical to a fresh
        // run. A caller-shared handle with a matching fingerprint is used
        // as-is (already warm); otherwise, on resume the sidecar written
        // by the last checkpoint warms the cache back up (best-effort — a
        // missing or stale sidecar just starts cold).
        let eval_cache = if config.eval_cache && measurement.content_pure() {
            Some(match shared_cache {
                Some(cache) if cache.config_fingerprint() == fingerprint => cache,
                _ => Arc::new(match &resume {
                    Some(state) => {
                        EvalCache::load(&state.dir, fingerprint, config.eval_cache_bytes)
                    }
                    None => EvalCache::new(config.eval_cache_bytes, fingerprint),
                }),
            })
        } else {
            None
        };
        let backend = backend.unwrap_or_else(|| {
            Arc::new(
                LocalBackend::new(
                    Arc::clone(&measurement),
                    config.template.clone(),
                    config.threads,
                )
                .with_lane_width(config.lane_width),
            )
        });
        // Surrogate screening state. On resume, the sidecar written at the
        // last checkpoint restores the model bit-exactly (the resumed run
        // continues byte-identically to an uninterrupted one); when it is
        // missing or stale, the model warm-starts from the restored
        // population's measured pairs instead (best-effort — the search
        // stays valid, only the screening schedule may differ).
        let surrogate = match config.surrogate.mode {
            SurrogateMode::Off => None,
            SurrogateMode::Screen => {
                let population_size = config.ga.population_size;
                let topk = if config.surrogate.topk == 0 {
                    (population_size / 4).max(1)
                } else {
                    config.surrogate.topk
                };
                let model = match &resume {
                    None => SurrogateModel::new(),
                    Some(state) => {
                        SurrogateModel::load(&state.dir, fingerprint, state.checkpoint.generation)
                            .unwrap_or_else(|| {
                                let mut model = SurrogateModel::new();
                                for individual in &state.population.individuals {
                                    if individual.fitness.is_finite() {
                                        model.observe(
                                            &featurize(&individual.genes),
                                            individual.fitness,
                                        );
                                    }
                                }
                                model.fit();
                                telemetry.point(
                                    "surrogate.warmstart",
                                    &[("samples", model.samples().into())],
                                );
                                model
                            })
                    }
                };
                Some(Mutex::new(SurrogateRuntime {
                    model,
                    topk,
                    explore: config.surrogate.explore,
                    min_samples: 2 * population_size as u64,
                    screened_total: 0,
                    simulated_total: 0,
                    screened_last: HashSet::new(),
                    last_gate_open: false,
                    degraded: false,
                    warned_degraded: false,
                }))
            }
        };
        let (history, current, best, generation) = match resume {
            None => (History::new(), None, None, 0),
            Some(state) => {
                engine.restore_state(state.checkpoint.engine);
                telemetry.point(
                    "resume",
                    &[
                        ("generation", u64::from(state.checkpoint.generation).into()),
                        ("history", state.checkpoint.history.len().into()),
                    ],
                );
                telemetry.add_counter("checkpoint.resumes", 1);
                (
                    History::from_summaries(state.checkpoint.history),
                    Some(state.population),
                    state.checkpoint.best.map(|b| b.to_evaluated()),
                    state.checkpoint.generation,
                )
            }
        };
        Ok(GestRun {
            config,
            config_fingerprint: fingerprint,
            engine,
            measurement,
            fitness,
            history,
            writer,
            current,
            best,
            generation,
            telemetry,
            run_span,
            eval_cache,
            backend,
            write_fs: write_fs.unwrap_or_else(|| Arc::new(RealFs)),
            surrogate,
        })
    }

    /// Locks the surrogate runtime; `None` when screening is off. Poison
    /// recovery mirrors the eval cache: the runtime is only ever locked on
    /// the main thread, so a poisoned lock means an earlier panic already
    /// unwound — the state is still the last consistent snapshot.
    fn surrogate_lock(&self) -> Option<MutexGuard<'_, SurrogateRuntime>> {
        self.surrogate
            .as_ref()
            .map(|runtime| runtime.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Point-in-time surrogate screening counters, or `None` when
    /// screening is off.
    pub fn surrogate_stats(&self) -> Option<SurrogateStats> {
        let runtime = self.surrogate_lock()?;
        Some(SurrogateStats {
            spearman: runtime.model.spearman(),
            screened: runtime.screened_total,
            simulated: runtime.simulated_total,
            gate_open: runtime.last_gate_open,
            samples: runtime.model.samples(),
        })
    }

    /// Point-in-time counters of the evaluation cache, or `None` when the
    /// cache is disabled (configuration, `--no-eval-cache`, or a
    /// measurement that is not content-pure).
    pub fn eval_cache_stats(&self) -> Option<EvalCacheStats> {
        self.eval_cache.as_ref().map(|cache| cache.stats())
    }

    /// The convergence history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The most recently evaluated population.
    pub fn population(&self) -> Option<&Population<Gene>> {
        self.current.as_ref()
    }

    /// Generations completed so far (equals the next generation index).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The best individual seen so far, if any generation completed.
    pub fn best(&self) -> Option<&Evaluated<Gene>> {
        self.best.as_ref()
    }

    /// Total generations this run is configured for.
    pub fn target_generations(&self) -> u32 {
        self.config.generations
    }

    /// Whether all configured generations have completed.
    pub fn is_complete(&self) -> bool {
        self.generation >= self.config.generations
    }

    /// The run's output directory, when one is configured.
    pub fn output_dir(&self) -> Option<&std::path::Path> {
        self.writer.as_ref().map(OutputWriter::dir)
    }

    /// The FNV-1a fingerprint of the run's canonical `config.xml`
    /// rendering — the key under which checkpoints and shared eval-cache
    /// handles are matched.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// Materializes an individual's genes into a runnable program.
    pub fn materialize(&self, name: &str, genes: &[Gene]) -> Program {
        let body = gest_isa::InstructionPool::flatten(genes);
        self.config.template.materialize(name, body)
    }

    /// Advances one generation: seeds on the first call, breeds afterwards;
    /// evaluates candidates in parallel; records history and outputs.
    /// Returns what the step did (see [`StepOutcome`]); once the
    /// generation budget is exhausted the call is a no-op returning
    /// [`StepOutcome::Budget`]. Inspect the results through
    /// [`GestRun::population`], [`GestRun::best`], and
    /// [`GestRun::history`].
    ///
    /// # Errors
    ///
    /// Measurement/simulation errors; I/O errors when saving.
    pub fn step(&mut self) -> Result<StepOutcome, GestError> {
        if self.is_complete() {
            return Ok(StepOutcome::Budget);
        }
        let run_id = self.run_span.as_ref().and_then(SpanGuard::id);
        let generation_span = self.telemetry.span_under(
            run_id,
            "generation",
            &[("generation", u64::from(self.generation).into())],
        );
        let candidates = {
            let _breed_span = self.telemetry.span("breed");
            match &self.current {
                None => match &self.config.seed_population {
                    Some(path) => {
                        let saved = SavedPopulation::load(path)?;
                        let seeds = saved.seed_genes(&self.config.pool);
                        self.engine.seed_from(seeds)
                    }
                    None => self.engine.seed(),
                },
                Some(population) => self.engine.next_generation(population),
            }
        };
        let population = self.evaluate(self.generation, candidates, generation_span.id())?;
        self.history.record(&population);
        // Only *measured* fitness may become the run's best: a screened
        // candidate carries calibrated surrogate fitness, which steers
        // selection but must never be reported as an achieved result.
        if let Some(best) = self.measured_best(&population) {
            let replace = self.best.as_ref().is_none_or(|b| best.fitness > b.fitness);
            if replace {
                self.best = Some(best.clone());
            }
        }
        let plateaued = self
            .history
            .plateaued(health::HEALTH_WINDOW, health::HEALTH_EPSILON);
        if self.telemetry.is_enabled() {
            if let Some(best) = population.best() {
                self.telemetry.point(
                    "generation",
                    &[
                        ("generation", u64::from(self.generation).into()),
                        ("best_fitness", best.fitness.into()),
                        ("mean_fitness", population.mean_fitness().into()),
                        (
                            "best_ever",
                            self.best
                                .as_ref()
                                .map_or(best.fitness, |b| b.fitness)
                                .into(),
                        ),
                    ],
                );
            }
            // Diversity is an O(P²) pass over the encoded genomes and
            // only the health point reads it, so it runs only when traced.
            let report = health::report(self.generation, &population, &self.history);
            self.emit_health(&population, &report);
        }
        if let Some(writer) = &self.writer {
            let _save_span = self.telemetry.span("save");
            writer.save_generation(&population, &self.config.pool, &self.config.template)?;
        }
        self.generation += 1;
        self.current = Some(population);
        if self.writer.is_some() {
            if let Some(every) = self.config.checkpoint_every {
                if self.generation.is_multiple_of(every)
                    || self.generation == self.config.generations
                {
                    self.checkpoint_now()?;
                }
            }
        }
        drop(generation_span);
        Ok(if self.is_complete() {
            StepOutcome::Budget
        } else if plateaued {
            StepOutcome::Converged
        } else {
            StepOutcome::Progressed
        })
    }

    /// Emits the per-generation search-health snapshot (diversity, stall,
    /// plateau) plus live run/cache gauges, so a mid-run `/metrics` or
    /// `/status` scrape sees current values instead of only the
    /// end-of-run drain. Telemetry-only: nothing here is read back by the
    /// GA, so the evolved result is independent of whether it runs.
    fn emit_health(&self, population: &Population<Gene>, report: &health::HealthReport) {
        let mut fields: Vec<(&str, FieldValue)> = vec![
            ("generation", u64::from(report.generation).into()),
            ("diversity", report.diversity.into()),
            (
                "stall_generations",
                u64::from(report.stall_generations).into(),
            ),
            ("plateaued", u64::from(report.plateaued).into()),
            (
                "quarantined",
                self.telemetry.counter_value("eval.quarantined").into(),
            ),
            (
                "eval_retries",
                self.telemetry.counter_value("eval.retries").into(),
            ),
        ];
        if let Some(runtime) = self.surrogate_lock() {
            fields.push(("surrogate_gate_closed", u64::from(runtime.degraded).into()));
        }
        self.telemetry.point("health", &fields);
        self.telemetry
            .set_gauge("health.diversity", report.diversity);
        self.telemetry.set_gauge(
            "health.stall_generations",
            f64::from(report.stall_generations),
        );
        self.telemetry
            .set_gauge("health.plateaued", f64::from(u8::from(report.plateaued)));
        self.telemetry
            .set_gauge("run.generation", f64::from(self.generation));
        if let Some(best) = population.best() {
            self.telemetry.set_gauge(
                "run.best_fitness",
                self.best.as_ref().map_or(best.fitness, |b| b.fitness),
            );
            self.telemetry
                .set_gauge("run.mean_fitness", population.mean_fitness());
        }
        if let Some(stats) = self.eval_cache_stats() {
            let lookups = stats.hits + stats.misses;
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                stats.hits as f64 / lookups as f64
            };
            self.telemetry.set_gauge("evalcache.hit_rate", hit_rate);
            self.telemetry
                .set_gauge("evalcache.bytes", stats.bytes as f64);
            self.telemetry
                .set_gauge("evalcache.entries", stats.entries as f64);
        }
    }

    /// Writes a checkpoint manifest for the current state into the run's
    /// output directory (atomically: tmp + rename). [`GestRun::step`]
    /// calls this every `checkpoint_every` generations and after the
    /// final one; manual step-drivers may also call it at any generation
    /// boundary.
    ///
    /// The matching population file is written by `step` *before* the
    /// manifest, so a crash between the two leaves the older manifest in
    /// charge and resume deterministically re-runs (and overwrites) the
    /// generations after it.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] when the run has no output directory; I/O
    /// errors writing the manifest.
    pub fn checkpoint_now(&self) -> Result<(), GestError> {
        let Some(writer) = &self.writer else {
            return Err(GestError::Config(
                "checkpointing requires an output directory (set output_dir)".into(),
            ));
        };
        let _span = self.telemetry.span_with(
            "checkpoint",
            &[("generation", u64::from(self.generation).into())],
        );
        let checkpoint = Checkpoint {
            config_fingerprint: self.config_fingerprint,
            generation: self.generation,
            engine: self.engine.export_state(),
            history: self.history.summaries().to_vec(),
            best: self.best.as_ref().map(|best| SavedIndividual {
                id: best.id,
                parents: best.parents,
                fitness: best.fitness,
                measurements: best.measurements.clone(),
                genes: best.genes.clone(),
            }),
        };
        // The manifest is the recovery anchor: retry a failed write once
        // (transient disk-full or EINTR), then propagate — a run that
        // cannot checkpoint anymore must fail loudly, not silently lose
        // its resume point.
        if let Err(first) = checkpoint.save_via(writer.dir(), &*self.write_fs) {
            self.telemetry.add_counter("checkpoint.write_failures", 1);
            eprintln!(
                "gest: checkpoint write failed ({first}); retrying once at \
                 generation {}",
                self.generation
            );
            checkpoint.save_via(writer.dir(), &*self.write_fs)?;
        }
        // The sidecar is an optimization, not run state: losing it costs
        // re-evaluation on resume, never correctness, so a failed write
        // only warns.
        if let Some(cache) = &self.eval_cache {
            if let Err(error) = cache.save_via(writer.dir(), &*self.write_fs) {
                self.telemetry.add_counter("evalcache.write_failures", 1);
                eprintln!(
                    "gest: eval-cache sidecar write failed ({error}); \
                     resume will start with a cold cache"
                );
            }
        }
        // The surrogate sidecar is resume-critical for byte-identity (a
        // resumed screened run must continue with the exact model state an
        // uninterrupted run would have), so it gets the same retry-once
        // then propagate treatment as the manifest.
        if let Some(runtime) = self.surrogate_lock() {
            let save = || {
                runtime.model.save_via(
                    writer.dir(),
                    &*self.write_fs,
                    self.config_fingerprint,
                    self.generation,
                )
            };
            if let Err(first) = save() {
                self.telemetry.add_counter("surrogate.write_failures", 1);
                eprintln!(
                    "gest: surrogate sidecar write failed ({first}); retrying once at \
                     generation {}",
                    self.generation
                );
                save()?;
            }
        }
        self.telemetry.add_counter("checkpoint.writes", 1);
        // Snapshot the aggregated metrics into the trace alongside the
        // checkpoint: a run that crashes later still leaves counter
        // totals and latency distributions as of its last checkpoint
        // (readers take the last record per name).
        self.telemetry.flush_metrics();
        Ok(())
    }

    /// Runs the remaining generations (all of them on a fresh run, the
    /// tail on a resumed one) and summarizes.
    ///
    /// # Errors
    ///
    /// Propagates the first error from any generation.
    pub fn run(mut self) -> Result<RunSummary, GestError> {
        // `Converged` is advisory (see [`StepOutcome`]): the blocking
        // driver steps through plateaus until the budget is spent, which
        // is what keeps its artifacts byte-identical to a scheduler that
        // does the same.
        while !self.step()?.is_terminal() {}
        self.finish();
        let best = self.best.expect("at least one generation ran");
        let best_program = {
            let body = gest_isa::InstructionPool::flatten(&best.genes);
            self.config.template.materialize("best", body)
        };
        Ok(RunSummary {
            best,
            best_program,
            history: self.history,
            generations: self.generation,
            metric_names: self.measurement.metrics().to_vec(),
        })
    }

    /// Closes the run-level span, flushes GA operator counters and
    /// run-level gauges, and finishes the telemetry pipeline (drains
    /// aggregated metrics to the sink). Idempotent; [`GestRun::run`] calls
    /// it automatically, manual [`GestRun::step`] drivers should call it
    /// once the search is over.
    pub fn finish(&mut self) {
        let Some(run_span) = self.run_span.take() else {
            return;
        };
        if self.telemetry.is_enabled() {
            let counts = self.engine.op_counts();
            self.telemetry
                .add_counter("ga.selections", counts.selections);
            self.telemetry
                .add_counter("ga.crossovers", counts.crossovers);
            self.telemetry
                .add_counter("ga.mutated_genes", counts.mutated_genes);
            self.telemetry
                .add_counter("ga.elite_copies", counts.elite_copies);
            self.telemetry
                .add_counter("ga.random_genes", counts.random_genes);
            self.telemetry
                .set_gauge("run.generations", f64::from(self.generation));
            if let Some(best) = &self.best {
                self.telemetry.set_gauge("run.best_fitness", best.fitness);
            }
            if let Some(stats) = self.eval_cache_stats() {
                self.telemetry.add_counter("evalcache.hits", stats.hits);
                self.telemetry.add_counter("evalcache.misses", stats.misses);
                self.telemetry
                    .add_counter("evalcache.inserts", stats.inserts);
                self.telemetry
                    .add_counter("evalcache.evictions", stats.evictions);
                self.telemetry
                    .set_gauge("evalcache.bytes", stats.bytes as f64);
                self.telemetry
                    .set_gauge("evalcache.entries", stats.entries as f64);
            }
        }
        drop(run_span);
        self.telemetry.finish();
    }

    /// Evaluates candidates in parallel across the backend's slots (the
    /// substrate analogue of the paper's per-individual measure step,
    /// which dominates runtime: "5 seconds per measurement … the runtime
    /// is approximately 7 hours").
    ///
    /// Candidates are pulled from a shared atomic cursor (work-stealing),
    /// but results land in per-candidate slots, so the population order —
    /// and therefore the search — is independent of slot scheduling.
    ///
    /// When the evaluation cache is on, same-generation duplicates are
    /// deduplicated in flight: only the first candidate of each distinct
    /// gene content is dispatched in the first wave; its duplicates run
    /// in a second wave, after the leader's result has reached the cache,
    /// and are served from it. Results are bit-identical either way
    /// (content-purity), so dedup only saves work, never changes it.
    ///
    /// Each candidate's gene content is hashed once here (when the cache
    /// is on) and the hashes are shared by dedup, screening and the cache
    /// probes. Evaluation fills only `(fitness, measurements)` slots; the
    /// candidates' ids, parents and genes move into the population at the
    /// end, so no genome is copied.
    fn evaluate(
        &self,
        generation: u32,
        candidates: Vec<Candidate<Gene>>,
        parent_span: Option<u64>,
    ) -> Result<Population<Gene>, GestError> {
        let hashes: Option<Vec<u128>> = self.eval_cache.as_ref().map(|_| {
            candidates
                .iter()
                .map(|candidate| genes_hash(&candidate.genes))
                .collect()
        });
        let hashes = hashes.as_deref();
        let (mut leaders, mut followers, leader_of) = split_duplicates(candidates.len(), hashes);
        // Surrogate screening happens here — coordinator-side, before any
        // wave is dispatched — so remote backends only ever receive the
        // candidates that survived, and the screening decision sequence is
        // a pure function of the checkpointed search state.
        let plan = self.surrogate_plan(generation, &candidates, hashes, &leaders, &leader_of);
        if let Some(plan) = &plan {
            if !plan.skipped_set.is_empty() {
                leaders.retain(|index| !plan.skipped_set.contains(index));
                followers.retain(|index| !plan.skipped_set.contains(index));
            }
        }
        let eval_span = self.telemetry.span_under(
            parent_span,
            "evaluate",
            &[
                ("generation", u64::from(generation).into()),
                ("candidates", candidates.len().into()),
                ("threads", self.backend.slots(candidates.len()).into()),
                ("backend", self.backend.name().into()),
                ("deduped", followers.len().into()),
            ],
        );

        let results: Vec<EvalSlot> = candidates.iter().map(|_| OnceLock::new()).collect();
        if let Some(plan) = &plan {
            // Screened candidates were never measured; NaN marks the
            // metrics as absent (the same convention as quarantine)
            // without inventing values.
            for &(index, fitness) in &plan.skipped {
                let unmeasured = vec![f64::NAN; self.measurement.metrics().len()];
                if results[index].set(Ok((fitness, unmeasured))).is_err() {
                    unreachable!("screened slots are filled before any wave runs");
                }
            }
        }
        let ctx = EvalContext {
            generation,
            candidates: &candidates,
            hashes,
            results: &results,
            span: eval_span.id(),
        };
        self.evaluate_wave(&ctx, &leaders);
        if !followers.is_empty() {
            self.telemetry
                .add_counter("eval.dedup_deferred", followers.len() as u64);
            self.evaluate_wave(&ctx, &followers);
        }

        drop(eval_span);
        let mut individuals = Vec::with_capacity(candidates.len());
        for (candidate, slot) in candidates.into_iter().zip(results) {
            let (fitness, measurements) =
                slot.into_inner().expect("every candidate was evaluated")?;
            individuals.push(Evaluated {
                id: candidate.id,
                parents: candidate.parents,
                genes: candidate.genes,
                fitness,
                measurements,
            });
        }
        if let Some(plan) = plan {
            self.surrogate_update(generation, &individuals, plan);
        }
        Ok(Population {
            generation,
            individuals,
        })
    }

    /// Plans this generation's surrogate screening: featurizes and ranks
    /// every candidate, then — when the confidence gate is open — excuses
    /// all cache-miss dedup leaders outside the predicted top-K and a
    /// seeded exploration quota (plus their duplicate followers) from
    /// simulation, assigning them calibrated surrogate fitness.
    ///
    /// Runs on the main thread before any wave. Everything it consumes —
    /// candidate order, model state, the exploration stream seeded by
    /// `(run seed, generation)` — is part of (or derived from) the
    /// checkpointed search state, so the plan is identical across thread
    /// counts, lane widths, and resume.
    fn surrogate_plan(
        &self,
        generation: u32,
        candidates: &[Candidate<Gene>],
        hashes: Option<&[u128]>,
        leaders: &[usize],
        leader_of: &[usize],
    ) -> Option<ScreenPlan> {
        let mut runtime = self.surrogate_lock()?;
        let runtime = &mut *runtime;
        let features: Vec<FeatureVec> = candidates
            .iter()
            .map(|candidate| featurize(&candidate.genes))
            .collect();
        let predictions: Vec<f64> = features
            .iter()
            .map(|feature| runtime.model.predict(feature))
            .collect();
        let mut plan = ScreenPlan {
            fitted: runtime.model.samples() > 0,
            gate_open: runtime.model.gate_open(runtime.min_samples),
            features,
            predictions,
            skipped: Vec::new(),
            skipped_set: HashSet::new(),
        };
        runtime.last_gate_open = plan.gate_open;
        runtime.degraded = !plan.gate_open && runtime.model.samples() >= runtime.min_samples;
        if runtime.degraded {
            self.telemetry.add_counter("surrogate.gate_closed", 1);
            if !runtime.warned_degraded {
                runtime.warned_degraded = true;
                eprintln!(
                    "gest: surrogate rank correlation stayed below {SPEARMAN_GATE} after \
                     warmup (generation {generation}); screening is disabled and every \
                     candidate is fully simulated until the model recovers"
                );
            }
        }
        if !plan.gate_open {
            return Some(plan);
        }
        // Candidates the cache would simulate for free are never worth a
        // prediction; screening only competes against real simulations.
        let pool: Vec<usize> = leaders
            .iter()
            .copied()
            .filter(|&index| match (&self.eval_cache, hashes) {
                (Some(cache), Some(hashes)) => !cache.peek(&self.eval_key(hashes[index])),
                _ => true,
            })
            .collect();
        if pool.len() <= runtime.topk + runtime.explore {
            return Some(plan);
        }
        let mut ranked = pool.clone();
        ranked.sort_by(|&a, &b| {
            plan.predictions[b]
                .total_cmp(&plan.predictions[a])
                .then(a.cmp(&b))
        });
        let keep: HashSet<usize> = ranked[..runtime.topk].iter().copied().collect();
        // `pool` is index-ascending, so `rest` is too — the canonical
        // order the reservoir stream is defined over.
        let rest: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|index| !keep.contains(index))
            .collect();
        let explored: HashSet<usize> = ExplorationSampler::new(self.config.seed, generation)
            .reservoir(&rest, runtime.explore)
            .into_iter()
            .collect();
        for &index in &rest {
            if explored.contains(&index) {
                continue;
            }
            plan.skipped
                .push((index, runtime.model.calibrated(plan.predictions[index])));
            plan.skipped_set.insert(index);
        }
        // A follower duplicates its leader's genes, so it shares the
        // leader's fate: screened leaders would leave their followers
        // with nothing to hit in the cache.
        for (index, &leader) in leader_of.iter().enumerate() {
            if leader != index && plan.skipped_set.contains(&leader) {
                plan.skipped
                    .push((index, runtime.model.calibrated(plan.predictions[index])));
                plan.skipped_set.insert(index);
            }
        }
        Some(plan)
    }

    /// Folds a completed generation back into the surrogate: records
    /// out-of-sample `(predicted, measured)` pairs, trains on every
    /// measured finite-fitness candidate (cache hits included — a hit is
    /// a real measurement), refits the weights once, and emits the
    /// screening telemetry. Main thread, canonical index order.
    fn surrogate_update(&self, generation: u32, individuals: &[Evaluated<Gene>], plan: ScreenPlan) {
        let Some(mut runtime) = self.surrogate_lock() else {
            return;
        };
        let runtime = &mut *runtime;
        runtime.screened_last.clear();
        let mut simulated = 0u64;
        for (index, evaluated) in individuals.iter().enumerate() {
            if plan.skipped_set.contains(&index) {
                runtime.screened_last.insert(evaluated.id);
                continue;
            }
            // Quarantined candidates carry -inf fitness and NaN
            // measurements; they are excluded from training.
            if !evaluated.fitness.is_finite() {
                continue;
            }
            if plan.fitted {
                runtime
                    .model
                    .record_pair(plan.predictions[index], evaluated.fitness);
            }
            runtime
                .model
                .observe(&plan.features[index], evaluated.fitness);
            simulated += 1;
        }
        runtime.model.fit();
        runtime.screened_total += plan.skipped.len() as u64;
        runtime.simulated_total += simulated;
        if self.telemetry.is_enabled() {
            let screen_rate = plan.skipped.len() as f64 / individuals.len().max(1) as f64;
            let spearman = runtime.model.spearman();
            let mut fields: Vec<(&str, FieldValue)> = vec![
                ("generation", u64::from(generation).into()),
                ("screened", (plan.skipped.len() as u64).into()),
                ("simulated", simulated.into()),
                ("gate", u64::from(plan.gate_open).into()),
                ("screen_rate", screen_rate.into()),
            ];
            if let Some(rho) = spearman {
                fields.push(("spearman", rho.into()));
            }
            self.telemetry.point("surrogate", &fields);
            self.telemetry
                .add_counter("surrogate.screened", plan.skipped.len() as u64);
            self.telemetry.add_counter("surrogate.simulated", simulated);
            self.telemetry
                .set_gauge("surrogate.screen_rate", screen_rate);
            self.telemetry
                .set_gauge("surrogate.gate_open", f64::from(u8::from(plan.gate_open)));
            if let Some(rho) = spearman {
                self.telemetry.set_gauge("surrogate.spearman", rho);
            }
        }
    }

    /// The best individual of a population among those that were actually
    /// measured this generation — identical to [`Population::best`] when
    /// screening is off or nothing was screened.
    fn measured_best<'pop>(
        &self,
        population: &'pop Population<Gene>,
    ) -> Option<&'pop Evaluated<Gene>> {
        match self.surrogate_lock() {
            Some(runtime) if !runtime.screened_last.is_empty() => population
                .individuals
                .iter()
                .filter(|evaluated| !runtime.screened_last.contains(&evaluated.id))
                .reduce(|best, x| if x.fitness > best.fitness { x } else { best }),
            _ => population.best(),
        }
    }

    /// Fans one wave of candidate positions out across the backend's
    /// slots: a shared cursor steals work, write-once slots keep result
    /// order deterministic.
    ///
    /// Each cursor claim takes a chunk of up to
    /// [`EvalBackend::lane_width`] positions — a chunk of one at the
    /// default width. Batching is wall-clock only: every lane's
    /// measurement is bit-identical to a batch of one and results land in
    /// the same write-once slots, so the search cannot observe the width.
    fn evaluate_wave(&self, ctx: &EvalContext<'_>, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        let width = self.backend.lane_width().max(1);
        let slots = self.backend.slots(positions.len().div_ceil(width)).max(1);
        let next = AtomicUsize::new(0);
        let next_ref = &next;
        std::thread::scope(|scope| {
            for slot in 0..slots {
                scope.spawn(move || {
                    let worker = Worker {
                        index: slot,
                        counter: format!("eval.worker.{slot}.candidates"),
                    };
                    loop {
                        let cursor = next_ref.fetch_add(width, Ordering::Relaxed);
                        if cursor >= positions.len() {
                            break;
                        }
                        let chunk = &positions[cursor..positions.len().min(cursor + width)];
                        self.evaluate_chunk(ctx, chunk, &worker);
                    }
                });
            }
        });
    }

    /// Evaluates one claimed chunk under the configured
    /// [`crate::FaultPolicy`].
    ///
    /// Every lane gets one `eval.candidate` span covering all its
    /// attempts, parented to the surrounding `evaluate` span (the
    /// thread-local stack cannot see across threads). Each attempt probes
    /// the cache first, so hits complete without a measurement; the
    /// misses go to the backend as one [`GestRun::measure_chunk`] call.
    /// Lanes that fail — an error, a panic, a non-finite value, a tripped
    /// watchdog or a blown deadline — are retried together as one smaller
    /// batch after the policy's backoff, each attempt counting against
    /// every failed lane's retry budget. A lane out of retries is
    /// quarantined or fails the run on its own.
    fn evaluate_chunk(&self, ctx: &EvalContext<'_>, chunk: &[usize], worker: &Worker) {
        let EvalContext {
            generation,
            candidates,
            hashes,
            results,
            span: parent_span,
        } = *ctx;
        let policy = self.config.fault_policy;
        let started = Instant::now();
        let settle = |index: usize, span: SpanGuard, outcome: Result<Score, GestError>| {
            self.finish_candidate_metrics(started, &worker.counter, outcome.is_err());
            drop(span);
            if results[index].set(outcome).is_err() {
                unreachable!("the cursor hands each chunk to exactly one worker");
            }
        };
        let mut pending: Vec<(usize, SpanGuard)> = chunk
            .iter()
            .map(|&index| {
                let span = self.telemetry.span_under(
                    parent_span,
                    "eval.candidate",
                    &[
                        ("candidate", candidates[index].id.into()),
                        ("generation", u64::from(generation).into()),
                        ("worker", worker.index.into()),
                    ],
                );
                (index, span)
            })
            .collect();
        let mut attempt: u32 = 0;
        while !pending.is_empty() {
            attempt += 1;
            let mut failed: Vec<(usize, SpanGuard, GestError)> = Vec::new();
            let mut misses: Vec<(usize, SpanGuard, Option<EvalKey>)> = Vec::new();
            for (index, span) in pending {
                let candidate = &candidates[index];
                let key = hashes.map(|hashes| self.eval_key(hashes[index]));
                match catch_measure(candidate.id, || {
                    Ok(self.cached_eval(candidate, key.as_ref()))
                }) {
                    Ok(Some(hit)) => settle(index, span, Ok(hit)),
                    Ok(None) => misses.push((index, span, key)),
                    Err(error) => failed.push((index, span, error)),
                }
            }
            if !misses.is_empty() {
                let requests: Vec<EvalRequest<'_>> = misses
                    .iter()
                    .map(|&(index, _, _)| EvalRequest {
                        generation,
                        candidate_id: candidates[index].id,
                        genes: &candidates[index].genes,
                    })
                    .collect();
                let lanes = self.measure_chunk(worker.index, &requests);
                for ((index, span, key), lane) in misses.into_iter().zip(lanes) {
                    let candidate = &candidates[index];
                    let completed = lane.and_then(|(measurements, detail)| {
                        catch_measure(candidate.id, || {
                            self.complete_measured(candidate, key, measurements, detail)
                        })
                    });
                    match completed {
                        Ok(score) => settle(index, span, Ok(score)),
                        Err(error) => failed.push((index, span, error)),
                    }
                }
            }
            if failed.is_empty() {
                break;
            }
            if attempt <= policy.max_retries {
                self.telemetry
                    .add_counter("eval.retries", failed.len() as u64);
                std::thread::sleep(policy.backoff(attempt));
                pending = failed
                    .into_iter()
                    .map(|(index, span, _)| (index, span))
                    .collect();
                continue;
            }
            for (index, span, error) in failed {
                let outcome = if policy.quarantine {
                    self.telemetry.add_counter("eval.quarantined", 1);
                    self.telemetry.point(
                        "quarantine",
                        &[
                            ("candidate", candidates[index].id.into()),
                            ("generation", u64::from(generation).into()),
                            ("attempts", u64::from(attempt).into()),
                            ("error", error.to_string().into()),
                        ],
                    );
                    let unmeasured = vec![f64::NAN; self.measurement.metrics().len()];
                    Ok((QUARANTINE_FITNESS, unmeasured))
                } else {
                    Err(error)
                };
                settle(index, span, outcome);
            }
            break;
        }
    }

    /// Per-candidate closing metrics: evaluation latency, worker
    /// utilization, and failures.
    fn finish_candidate_metrics(&self, started: Instant, worker_counter: &str, failed: bool) {
        if self.telemetry.is_enabled() {
            let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
            self.telemetry
                .record("eval.latency_us", latency_buckets(), elapsed_us);
            self.telemetry.add_counter(worker_counter, 1);
            if failed {
                self.telemetry.add_counter("eval.failures", 1);
            }
        }
    }

    /// One [`EvalBackend::measure_batch`] call for a chunk's cache misses
    /// — the runner's only way into the backend. Panics are contained per
    /// lane; a malformed reply, a tripped watchdog or a soft-deadline
    /// overrun fails every lane of the call. The watchdog and the
    /// deadline bound the call at `lanes × budget`, so a chunk of one
    /// keeps the per-candidate budget.
    fn measure_chunk(&self, worker: usize, requests: &[EvalRequest<'_>]) -> MeasuredBatch {
        let policy = self.config.fault_policy;
        let called = Instant::now();
        let lanes = match policy.watchdog_ms {
            Some(watchdog_ms) => watchdog_measure(&self.backend, worker, requests, watchdog_ms),
            None => {
                catch_measure_batch(requests, &|batch| self.backend.measure_batch(worker, batch))
            }
        };
        if lanes.len() != requests.len() {
            // A malformed reply fails the whole call rather than
            // misaligning lanes.
            let message = format!(
                "measure_batch returned {} results for {} requests",
                lanes.len(),
                requests.len()
            );
            return fail_lanes(requests, &message);
        }
        // Soft deadline: an over-budget value is treated as a failure
        // (the substrate cannot preempt an in-flight measurement).
        let elapsed_ms = called.elapsed().as_millis();
        if !policy.deadline_exceeded(elapsed_ms.div_ceil(requests.len() as u128)) {
            return lanes;
        }
        let budget_ms = policy.deadline_ms.unwrap_or(0) * requests.len() as u64;
        let overruns = fail_lanes(
            requests,
            &format!("measurement took {elapsed_ms}ms, past the {budget_ms}ms deadline"),
        );
        lanes
            .into_iter()
            .zip(overruns)
            .map(|(lane, overrun)| lane.and(overrun))
            .collect()
    }

    /// The evaluation cache key for a candidate's [`genes_hash`].
    /// Content-addressed: keyed by what the candidate *is* (canonical
    /// gene bytes), not which generation/id it carries, so elites and
    /// re-bred duplicates skip simulation entirely.
    fn eval_key(&self, genes_hash: u128) -> EvalKey {
        EvalKey {
            config_fp: self.config_fingerprint,
            genes_hash,
        }
    }

    /// Cache-probe half of an evaluation: on a hit, replays the cached
    /// simulator detail into telemetry and recomputes fitness (it can
    /// depend on gene structure and the pool, which the key does not
    /// cover).
    fn cached_eval(&self, candidate: &Candidate<Gene>, key: Option<&EvalKey>) -> Option<Score> {
        let (cache, key) = match (&self.eval_cache, key) {
            (Some(cache), Some(key)) => (cache, key),
            _ => return None,
        };
        let cached = cache.get(key)?;
        if self.telemetry.is_enabled() {
            if let Some(kv) = &cached.detail_kv {
                record_sim_stats(&self.telemetry, kv);
            }
        }
        let fitness = self.fitness.fitness(&FitnessContext {
            measurements: &cached.measurements,
            genes: &candidate.genes,
            pool: &self.config.pool,
        });
        Some((fitness, cached.measurements))
    }

    /// Completion half of an evaluation: validates, exports telemetry
    /// detail, caches, and scores one freshly measured lane.
    fn complete_measured(
        &self,
        candidate: &Candidate<Gene>,
        key: Option<EvalKey>,
        measurements: Vec<f64>,
        detail: Option<gest_sim::RunResult>,
    ) -> Result<Score, GestError> {
        // Reject NaN/Inf before the result can reach the cache or a
        // fitness function: non-finite measurements poison comparisons
        // silently, so they count as a measurement failure (and go
        // through the same retry/quarantine path as any other).
        if let Some(bad) = measurements.iter().find(|value| !value.is_finite()) {
            return Err(GestError::Measurement {
                candidate: candidate.id,
                message: format!("backend returned a non-finite measurement ({bad})"),
            });
        }
        let detail_kv = detail.as_ref().map(gest_sim::RunResult::metric_kv);
        if self.telemetry.is_enabled() {
            if let Some(kv) = &detail_kv {
                record_sim_stats(&self.telemetry, kv);
            }
        }
        if let (Some(cache), Some(key)) = (&self.eval_cache, key) {
            cache.insert(
                key,
                CachedEval {
                    measurements: measurements.clone(),
                    detail_kv,
                },
            );
        }
        let fitness = self.fitness.fitness(&FitnessContext {
            measurements: &measurements,
            genes: &candidate.genes,
            pool: &self.config.pool,
        });
        Ok((fitness, measurements))
    }
}

/// One generation's evaluation inputs and result slots, shared read-only
/// by every wave and worker of [`GestRun::evaluate`].
#[derive(Clone, Copy)]
struct EvalContext<'a> {
    generation: u32,
    candidates: &'a [Candidate<Gene>],
    /// [`genes_hash`] per candidate; `None` when the cache is off.
    hashes: Option<&'a [u128]>,
    results: &'a [EvalSlot],
    /// The `evaluate` span the per-candidate spans hang under.
    span: Option<u64>,
}

/// One evaluation thread of a wave, with its utilization counter name
/// formatted once per wave rather than per candidate.
struct Worker {
    index: usize,
    counter: String,
}

/// Splits candidate indices into dedup leaders (first occurrence of
/// each gene content) and followers (in-generation duplicates, served
/// from the cache after their leader's wave), plus a `leader_of`
/// mapping (`leader_of[i] == i` for leaders) that surrogate screening
/// uses to keep a follower's fate consistent with its leader's.
/// `hashes` is `None` when the cache is off: there is nothing to serve
/// followers from, so everything leads.
fn split_duplicates(count: usize, hashes: Option<&[u128]>) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut leader_of: Vec<usize> = (0..count).collect();
    let Some(hashes) = hashes else {
        return ((0..count).collect(), Vec::new(), leader_of);
    };
    let mut seen: HashMap<u128, usize> = HashMap::with_capacity(count);
    let mut leaders = Vec::with_capacity(count);
    let mut followers = Vec::new();
    for (index, &hash) in hashes.iter().enumerate() {
        match seen.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(index);
                leaders.push(index);
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                leader_of[index] = *slot.get();
                followers.push(index);
            }
        }
    }
    (leaders, followers, leader_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GestConfig;

    fn tiny_config(machine: &str, measurement: &str) -> GestConfig {
        GestConfig::builder(machine)
            .measurement(measurement)
            .population_size(6)
            .individual_size(8)
            .generations(3)
            .seed(11)
            .build()
            .unwrap()
    }

    fn build_run(config: GestConfig) -> GestRun {
        GestRun::builder().config(config).build().unwrap()
    }

    /// Every individual carries the id, parents and genes of the
    /// candidate in its position: evaluation moves them, it never
    /// reorders or mixes them up.
    fn assert_assembled(candidates: &[Candidate<Gene>], population: &Population<Gene>) {
        assert_eq!(population.individuals.len(), candidates.len());
        for (candidate, individual) in candidates.iter().zip(&population.individuals) {
            assert_eq!(individual.id, candidate.id);
            assert_eq!(individual.parents, candidate.parents);
            assert_eq!(individual.genes, candidate.genes);
        }
    }

    /// What [`GestRun::step`] does around [`GestRun::evaluate`], keeping
    /// a copy of the bred candidates for [`assert_assembled`].
    fn step_by_hand(run: &mut GestRun) -> (Vec<Candidate<Gene>>, Population<Gene>) {
        let candidates = match &run.current {
            None => run.engine.seed(),
            Some(population) => run.engine.next_generation(population),
        };
        let population = run
            .evaluate(run.generation, candidates.clone(), None)
            .unwrap();
        run.history.record(&population);
        run.generation += 1;
        run.current = Some(population.clone());
        (candidates, population)
    }

    #[test]
    fn run_improves_or_holds_power_fitness() {
        let summary = build_run(tiny_config("cortex-a15", "power")).run().unwrap();
        assert_eq!(summary.generations, 3);
        let series = summary.history.best_series();
        assert_eq!(series.len(), 3);
        // Elitism: monotone non-decreasing best fitness.
        for window in series.windows(2) {
            assert!(window[1] >= window[0] - 1e-12, "{series:?}");
        }
        assert!(summary.best.fitness > 0.0);
        assert_eq!(summary.metric_names[0], "avg_power_w");
        assert_eq!(summary.best_breakdown().iter().sum::<usize>(), 8);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = build_run(tiny_config("cortex-a7", "power")).run().unwrap();
        let b = build_run(tiny_config("cortex-a7", "power")).run().unwrap();
        assert_eq!(a.best.genes, b.best.genes);
        assert_eq!(a.best.fitness, b.best.fitness);
    }

    #[test]
    fn lane_widths_produce_identical_searches() {
        let narrow = build_run(tiny_config("cortex-a15", "power")).run().unwrap();

        let mut wide_cfg = tiny_config("cortex-a15", "power");
        wide_cfg.lane_width = 4;
        let wide = build_run(wide_cfg).run().unwrap();
        assert_eq!(wide.best.genes, narrow.best.genes);
        assert_eq!(wide.best.fitness, narrow.best.fitness);
        assert_eq!(wide.history.best_series(), narrow.history.best_series());

        // Without the cache every candidate rides a batch lane; the
        // search still cannot tell.
        let mut uncached_cfg = tiny_config("cortex-a15", "power");
        uncached_cfg.eval_cache = false;
        uncached_cfg.lane_width = 8;
        let uncached = build_run(uncached_cfg).run().unwrap();
        assert_eq!(uncached.best.genes, narrow.best.genes);
        assert_eq!(uncached.best.fitness, narrow.best.fitness);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let mut parallel_cfg = tiny_config("cortex-a7", "ipc");
        parallel_cfg.threads = 4;
        let mut serial_cfg = tiny_config("cortex-a7", "ipc");
        serial_cfg.threads = 1;
        let a = build_run(parallel_cfg).run().unwrap();
        let b = build_run(serial_cfg).run().unwrap();
        assert_eq!(a.best.genes, b.best.genes);
    }

    #[test]
    fn voltage_noise_run_on_athlon() {
        let summary = build_run(tiny_config("athlon-x4", "voltage_noise"))
            .run()
            .unwrap();
        assert!(summary.best.fitness > 0.0, "p2p noise should be positive");
        assert_eq!(summary.metric_names[0], "peak_to_peak_v");
    }

    #[test]
    fn step_api_exposes_populations() {
        let mut run = build_run(tiny_config("cortex-a15", "power"));
        assert!(run.population().is_none());
        assert_eq!(run.generation(), 0);
        assert!(!run.is_complete());
        assert!(!run.step().unwrap().is_terminal());
        let population = run.population().unwrap();
        assert_eq!(population.generation, 0);
        assert_eq!(population.len(), 6);
        assert!(!run.step().unwrap().is_terminal());
        assert_eq!(run.population().unwrap().generation, 1);
        assert_eq!(run.history().summaries().len(), 2);
        assert_eq!(run.generation(), 2);
        assert_eq!(run.target_generations(), 3);
        assert!(run.best().is_some());
    }

    #[test]
    fn step_outcomes_form_a_resumable_state_machine() {
        // 3 configured generations: two non-terminal steps, then the
        // budget-exhausting one, then no-ops forever after — with no
        // state perturbed by the extra calls.
        let mut run = build_run(tiny_config("cortex-a15", "power"));
        assert!(!run.step().unwrap().is_terminal());
        assert!(!run.step().unwrap().is_terminal());
        assert_eq!(run.step().unwrap(), StepOutcome::Budget);
        assert!(run.is_complete());
        let best = run.best().unwrap().clone();
        assert_eq!(run.step().unwrap(), StepOutcome::Budget);
        assert_eq!(run.generation(), 3);
        assert_eq!(run.history().summaries().len(), 3);
        assert_eq!(
            run.best().unwrap().fitness.to_bits(),
            best.fitness.to_bits()
        );

        // Step-driven and blocking-loop drivers agree bit for bit.
        let stepped_best = run.best().unwrap().clone();
        run.finish();
        let blocking = build_run(tiny_config("cortex-a15", "power")).run().unwrap();
        assert_eq!(blocking.best.genes, stepped_best.genes);
        assert_eq!(
            blocking.best.fitness.to_bits(),
            stepped_best.fitness.to_bits()
        );
    }

    #[test]
    fn builder_rejects_ambiguous_and_empty_inputs() {
        let err = GestRun::builder().build().unwrap_err();
        assert!(err.to_string().contains("required"), "{err}");
        let err = GestRun::builder()
            .config(tiny_config("cortex-a7", "power"))
            .resume_from("/nonexistent")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn builder_registry_and_telemetry_hooks_are_used() {
        use crate::measurement::PowerMeasurement;
        use gest_telemetry::{Event, MemorySink};

        // A registry where "power" is rerouted: proof the builder asks the
        // registry, not the legacy hard-coded match.
        let registry = Registry::empty().measurement("power", |machine, run| {
            Ok(Arc::new(PowerMeasurement::new(machine, run)))
        });
        let err = GestRun::builder()
            .config(tiny_config("cortex-a7", "power"))
            .registry(registry.clone())
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("unknown fitness"),
            "empty fitness table must be consulted: {err}"
        );

        let sink = Arc::new(MemorySink::default());
        let summary = GestRun::builder()
            .config(tiny_config("cortex-a7", "power"))
            .registry(Registry::default())
            .telemetry(Telemetry::new(sink.clone()))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(summary.best.fitness > 0.0);
        assert!(
            sink.events()
                .iter()
                .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "run")),
            "builder-supplied telemetry overrides the config's disabled handle"
        );
    }

    /// Panics on one specific candidate, like a measurement plug-in with a
    /// latent bug.
    #[derive(Debug)]
    struct Panicky;
    impl crate::measurement::Measurement for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn metrics(&self) -> &'static [&'static str] {
            &["value"]
        }
        fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
            assert!(program.name != "0_2", "instrument exploded");
            Ok(vec![1.0])
        }
    }

    #[test]
    fn worker_panic_surfaces_as_measurement_error_under_fail_fast() {
        let mut config = tiny_config("cortex-a15", "power");
        config.fault_policy = crate::FaultPolicy::fail_fast();
        let err = GestRun::builder()
            .config(config)
            .measurement(Arc::new(Panicky))
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        match err {
            GestError::Measurement { candidate, message } => {
                assert_eq!(candidate, 2);
                assert!(message.contains("instrument exploded"), "{message}");
            }
            other => panic!("expected a measurement error, got: {other}"),
        }
    }

    #[test]
    fn default_policy_quarantines_the_crashing_candidate() {
        use gest_telemetry::{Event, MemorySink};

        let sink = Arc::new(MemorySink::default());
        let mut config = tiny_config("cortex-a15", "power");
        config.telemetry = Telemetry::new(sink.clone());
        let summary = GestRun::builder()
            .config(config)
            .measurement(Arc::new(Panicky))
            .build()
            .unwrap()
            .run()
            .unwrap();
        // The run completes; the poisoned candidate never wins.
        assert_eq!(summary.generations, 3);
        assert!(summary.best.fitness.is_finite());
        assert_ne!(summary.best.id, 2);

        let counter = |wanted: &str| {
            sink.events().iter().find_map(|e| match e {
                Event::Counter { name, value } if name == wanted => Some(*value),
                _ => None,
            })
        };
        assert_eq!(
            counter("eval.retries"),
            Some(1),
            "default policy retries once before quarantining"
        );
        assert_eq!(counter("eval.quarantined"), Some(1));
        assert_eq!(
            counter("eval.failures"),
            None,
            "a quarantined candidate is not a run failure"
        );

        // The quarantined lane keeps its candidate's identity and genes.
        let mut run = GestRun::builder()
            .config(tiny_config("cortex-a15", "power"))
            .measurement(Arc::new(Panicky))
            .build()
            .unwrap();
        let (candidates, population) = step_by_hand(&mut run);
        assert_assembled(&candidates, &population);
        let quarantined = &population.individuals[2];
        assert_eq!(quarantined.id, 2);
        assert_eq!(quarantined.fitness, QUARANTINE_FITNESS);
        assert!(quarantined.measurements.iter().all(|m| m.is_nan()));
    }

    #[test]
    fn screened_candidates_keep_their_identity_and_genes() {
        let mut config = tiny_config("cortex-a15", "power");
        config.ga.population_size = 10;
        config.generations = 12;
        config.seed = 777;
        config.surrogate = SurrogateOptions {
            mode: SurrogateMode::Screen,
            topk: 3,
            explore: 2,
        };
        let mut run = build_run(config);
        let mut screened_generations = 0;
        while !run.is_complete() {
            let (candidates, population) = step_by_hand(&mut run);
            assert_assembled(&candidates, &population);
            let runtime = run.surrogate_lock().unwrap();
            for individual in &population.individuals {
                if runtime.screened_last.contains(&individual.id) {
                    assert!(individual.measurements.iter().all(|m| m.is_nan()));
                }
            }
            screened_generations += usize::from(!runtime.screened_last.is_empty());
        }
        assert!(
            screened_generations > 0,
            "the gate must open within the budget for this test to mean anything"
        );
    }

    #[test]
    fn plateau_detection_does_not_depend_on_tracing() {
        use gest_telemetry::MemorySink;

        let run_with = |telemetry: Telemetry| {
            let mut config = tiny_config("athlon-x4", "voltage_noise");
            config.generations = 40;
            config.telemetry = telemetry;
            let mut run = build_run(config);
            let mut steps = Vec::new();
            loop {
                let outcome = run.step().unwrap();
                let population =
                    SavedPopulation::from_population(run.population().unwrap()).encode();
                steps.push((outcome, population));
                if outcome.is_terminal() {
                    break;
                }
            }
            run.finish();
            steps
        };
        let traced = run_with(Telemetry::new(Arc::new(MemorySink::default())));
        let untraced = run_with(Telemetry::disabled());
        assert!(
            traced
                .iter()
                .any(|(outcome, _)| *outcome == StepOutcome::Converged),
            "the search must plateau within the budget for this test to mean anything"
        );
        assert_eq!(traced.len(), untraced.len());
        for (generation, (traced, untraced)) in traced.iter().zip(&untraced).enumerate() {
            assert_eq!(traced.0, untraced.0, "outcome of generation {generation}");
            assert!(
                traced.1 == untraced.1,
                "population of generation {generation} differs"
            );
        }
    }

    #[test]
    fn sim_metric_names_match_the_simulator_stats() {
        let run = build_run(tiny_config("athlon-x4", "voltage_noise"));
        let genes = vec![gest_isa::Gene {
            def_index: 0,
            instrs: gest_isa::asm::parse_block("ADD x1, x2, x3").unwrap(),
        }];
        let program = run.materialize("probe", &genes);
        let result = gest_sim::Simulator::new(run.config.machine.clone())
            .run(&program, &run.config.run_config)
            .unwrap();
        let kv = result.metric_kv();
        assert!(
            kv.iter().any(|(stat, _)| stat.starts_with("voltage_")),
            "the PDN stats are covered too"
        );
        for (stat, _) in kv {
            let name = sim_metric_name(stat);
            assert!(matches!(name, Cow::Borrowed(_)), "{stat} is in the table");
            assert_eq!(name, format!("sim.{stat}"));
        }
        assert_eq!(sim_metric_name("new_stat"), "sim.new_stat");
    }

    #[test]
    fn fault_policy_outcomes_do_not_depend_on_lane_width() {
        use gest_telemetry::MemorySink;

        /// Panics on one program and reports NaN for another; every
        /// other program measures its own length.
        #[derive(Debug)]
        struct Faulty;
        impl crate::measurement::Measurement for Faulty {
            fn name(&self) -> &'static str {
                "faulty"
            }
            fn metrics(&self) -> &'static [&'static str] {
                &["length"]
            }
            fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
                assert!(program.name != "0_2", "instrument exploded");
                if program.name == "0_4" {
                    return Ok(vec![f64::NAN]);
                }
                Ok(vec![program.body.len() as f64])
            }
        }

        let run_at = |lane_width: usize| {
            let telemetry = Telemetry::new(Arc::new(MemorySink::default()));
            let mut config = tiny_config("cortex-a15", "power");
            config.lane_width = lane_width;
            config.telemetry = telemetry.clone();
            let mut run = GestRun::builder()
                .config(config)
                .measurement(Arc::new(Faulty))
                .build()
                .unwrap();
            while !run.step().unwrap().is_terminal() {}
            let population = SavedPopulation::from_population(run.population().unwrap()).encode();
            let counters = [
                telemetry.counter_value("eval.retries"),
                telemetry.counter_value("eval.quarantined"),
                telemetry.counter_value("eval.failures"),
            ];
            run.finish();
            (population, counters)
        };
        let narrow = run_at(1);
        assert_eq!(
            narrow.1,
            [2, 2, 0],
            "one retry, then quarantine, for each faulty candidate"
        );
        let wide = run_at(4);
        assert_eq!(wide.1, narrow.1, "the same retries and quarantines");
        assert_eq!(wide.0, narrow.0, "the same final population");
    }

    #[test]
    fn deadline_overruns_quarantine_with_a_clear_message() {
        use std::time::Duration;

        /// Sleeps past the configured deadline for one candidate.
        #[derive(Debug)]
        struct Slow;
        impl crate::measurement::Measurement for Slow {
            fn name(&self) -> &'static str {
                "slow"
            }
            fn metrics(&self) -> &'static [&'static str] {
                &["value"]
            }
            fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
                if program.name == "0_1" {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok(vec![1.0])
            }
        }

        let mut config = tiny_config("cortex-a7", "power");
        config.threads = 1;
        config.fault_policy = crate::FaultPolicy {
            max_retries: 0,
            backoff_base_ms: 0,
            deadline_ms: Some(5),
            watchdog_ms: None,
            quarantine: false,
        };
        let err = GestRun::builder()
            .config(config)
            .measurement(Arc::new(Slow))
            .build()
            .unwrap()
            .run()
            .unwrap_err();
        match err {
            GestError::Measurement { candidate, message } => {
                assert_eq!(candidate, 1);
                assert!(message.contains("deadline"), "{message}");
            }
            other => panic!("expected a deadline error, got: {other}"),
        }
    }

    #[test]
    fn traced_run_emits_spans_metrics_and_stays_deterministic() {
        use gest_telemetry::{Event, MemorySink};

        let sink = Arc::new(MemorySink::default());
        let mut config = tiny_config("cortex-a7", "power");
        config.telemetry = Telemetry::new(sink.clone());
        let traced = build_run(config).run().unwrap();

        // Telemetry observes the search without perturbing it.
        let plain = build_run(tiny_config("cortex-a7", "power")).run().unwrap();
        assert_eq!(traced.best.genes, plain.best.genes);
        assert_eq!(traced.best.fitness, plain.best.fitness);

        let events = sink.events();
        let span_starts = |name: &str| {
            events
                .iter()
                .filter(|e| matches!(e, Event::SpanStart { name: n, .. } if n == name))
                .count()
        };
        assert_eq!(span_starts("run"), 1);
        assert_eq!(span_starts("generation"), 3);
        assert_eq!(span_starts("breed"), 3);
        assert_eq!(span_starts("evaluate"), 3);
        assert_eq!(
            span_starts("eval.candidate"),
            18,
            "6 candidates x 3 generations"
        );
        let span_ends = events
            .iter()
            .filter(|e| matches!(e, Event::SpanEnd { .. }))
            .count();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::SpanStart { .. }))
            .count();
        assert_eq!(span_ends, starts, "every span closes");

        let points = events
            .iter()
            .filter(|e| matches!(e, Event::Point { name, .. } if name == "generation"))
            .count();
        assert_eq!(points, 3);

        let counter = |wanted: &str| {
            events.iter().find_map(|e| match e {
                Event::Counter { name, value } if name == wanted => Some(*value),
                _ => None,
            })
        };
        assert_eq!(
            counter("ga.random_genes"),
            Some(6 * 8),
            "seeding draws fresh genes"
        );
        assert!(counter("ga.selections").unwrap() > 0);
        assert!(counter("ga.crossovers").unwrap() > 0);
        assert!(
            counter("ga.elite_copies").unwrap() >= 2,
            "two bred generations"
        );
        let worker_total: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counter { name, value }
                    if name.starts_with("eval.worker.") && name.ends_with(".candidates") =>
                {
                    Some(*value)
                }
                _ => None,
            })
            .sum();
        assert_eq!(
            worker_total, 18,
            "thread-utilization counters cover every candidate"
        );

        let histogram = |wanted: &str| {
            events.iter().find_map(|e| match e {
                Event::Histogram { name, snapshot } if name == wanted => Some(snapshot.clone()),
                _ => None,
            })
        };
        assert_eq!(histogram("eval.latency_us").unwrap().count, 18);
        assert_eq!(
            histogram("sim.ipc").unwrap().count,
            18,
            "simulator stats become metrics"
        );

        let gauge = |wanted: &str| {
            events.iter().find_map(|e| match e {
                Event::Gauge { name, value } if name == wanted => Some(*value),
                _ => None,
            })
        };
        assert_eq!(gauge("run.generations"), Some(3.0));
        assert_eq!(gauge("run.best_fitness"), Some(traced.best.fitness));
    }

    #[test]
    fn eval_cache_hits_on_elites_without_changing_the_search() {
        // Cache on (the default): elites re-enter later generations with
        // identical genes and must be served from the cache.
        let mut run = build_run(tiny_config("cortex-a15", "power"));
        while !run.is_complete() {
            run.step().unwrap();
        }
        let stats = run.eval_cache_stats().expect("cache is on by default");
        assert!(stats.hits >= 2, "elite re-evaluations must hit: {stats:?}");
        assert_eq!(stats.hits + stats.misses, 18, "6 candidates x 3 gens");
        assert_eq!(stats.inserts, stats.misses);
        assert!(stats.entries > 0 && stats.bytes > 0);
        run.finish();

        // The search result is bit-identical with the cache off.
        let on = build_run(tiny_config("cortex-a15", "power")).run().unwrap();
        let off = GestRun::builder()
            .config(tiny_config("cortex-a15", "power"))
            .eval_cache(false)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(on.best.genes, off.best.genes);
        assert_eq!(on.best.fitness.to_bits(), off.best.fitness.to_bits());
        assert_eq!(
            on.best
                .measurements
                .iter()
                .map(|m| m.to_bits())
                .collect::<Vec<_>>(),
            off.best
                .measurements
                .iter()
                .map(|m| m.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn in_flight_dedup_defers_duplicates_to_the_cache() {
        let gene = |source: &str| gest_isa::Gene {
            def_index: 0,
            instrs: gest_isa::asm::parse_block(source).unwrap(),
        };
        let candidate = |id: u64, genes: Vec<gest_isa::Gene>| Candidate {
            id,
            parents: (None, None),
            genes,
        };
        // Candidates 2 and 3 duplicate the gene content of 0 and 1.
        let candidates = vec![
            candidate(0, vec![gene("ADD x1, x2, x3")]),
            candidate(1, vec![gene("ADD x1, x2, x4")]),
            candidate(2, vec![gene("ADD x1, x2, x3")]),
            candidate(3, vec![gene("ADD x1, x2, x4")]),
        ];

        let run = build_run(tiny_config("cortex-a7", "power"));
        let hashes: Vec<u128> = candidates.iter().map(|c| genes_hash(&c.genes)).collect();
        let (leaders, followers, leader_of) = split_duplicates(candidates.len(), Some(&hashes));
        assert_eq!(leaders, vec![0, 1]);
        assert_eq!(followers, vec![2, 3]);
        assert_eq!(leader_of, vec![0, 1, 0, 1]);

        let population = run.evaluate(0, candidates.clone(), None).unwrap();
        assert_assembled(&candidates, &population);
        let stats = run.eval_cache_stats().unwrap();
        assert_eq!(stats.misses, 2, "one simulation per distinct content");
        assert_eq!(stats.hits, 2, "followers are served from the cache");
        assert_eq!(
            population.individuals[0].measurements[0].to_bits(),
            population.individuals[2].measurements[0].to_bits(),
            "dedup hands duplicates bit-identical measurements"
        );

        // With the cache off there is nothing to defer to: all lead.
        let uncached = GestRun::builder()
            .config(tiny_config("cortex-a7", "power"))
            .eval_cache(false)
            .build()
            .unwrap();
        let (leaders, followers, leader_of) = split_duplicates(candidates.len(), None);
        assert_eq!(leaders.len(), 4);
        assert!(followers.is_empty());
        assert_eq!(leader_of, vec![0, 1, 2, 3], "without a cache all lead");
        let plain = uncached.evaluate(0, candidates.clone(), None).unwrap();
        assert_assembled(&candidates, &plain);
        assert_eq!(
            plain.individuals[2].measurements[0].to_bits(),
            population.individuals[2].measurements[0].to_bits(),
            "dedup never changes results"
        );
    }

    #[test]
    fn eval_cache_disabled_for_impure_measurements_and_by_flag() {
        let run = GestRun::builder()
            .config(tiny_config("cortex-a7", "power"))
            .eval_cache(false)
            .build()
            .unwrap();
        assert!(run.eval_cache_stats().is_none(), "--no-eval-cache");

        // A custom measurement without content_pure() stays uncached even
        // though caching is on: its results may depend on program naming.
        let run = GestRun::builder()
            .config(tiny_config("cortex-a7", "power"))
            .measurement(Arc::new(Panicky))
            .build()
            .unwrap();
        assert!(run.eval_cache_stats().is_none(), "impure measurement");
    }

    #[test]
    fn eval_cache_counters_flow_into_telemetry() {
        use gest_telemetry::{Event, MemorySink};

        let sink = Arc::new(MemorySink::default());
        let mut config = tiny_config("cortex-a7", "power");
        config.telemetry = Telemetry::new(sink.clone());
        build_run(config).run().unwrap();
        let events = sink.events();
        let counter = |wanted: &str| {
            events.iter().find_map(|e| match e {
                Event::Counter { name, value } if name == wanted => Some(*value),
                _ => None,
            })
        };
        let hits = counter("evalcache.hits").unwrap();
        let misses = counter("evalcache.misses").unwrap();
        assert!(hits >= 2, "elite re-evaluations hit");
        assert_eq!(hits + misses, 18);
        assert_eq!(counter("evalcache.inserts"), Some(misses));
        let gauge = |wanted: &str| {
            events.iter().find_map(|e| match e {
                Event::Gauge { name, value } if name == wanted => Some(*value),
                _ => None,
            })
        };
        assert!(gauge("evalcache.entries").unwrap() > 0.0);
        assert!(gauge("evalcache.bytes").unwrap() > 0.0);
    }

    #[test]
    fn output_dir_receives_files_and_seeds_new_run() {
        let dir = std::env::temp_dir().join(format!("gest_runner_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = tiny_config("cortex-a15", "power");
        config.output_dir = Some(dir.clone());
        let summary = build_run(config).run().unwrap();
        let files = OutputWriter::population_files(&dir).unwrap();
        assert_eq!(files.len(), 3, "one population file per generation");

        // Seed a new run from the last population: its seed generation
        // must already contain the old best fitness (elite genes carried).
        let mut seeded_cfg = tiny_config("cortex-a15", "power");
        seeded_cfg.seed_population = Some(files.last().unwrap().clone());
        let mut seeded = build_run(seeded_cfg);
        seeded.step().unwrap();
        let first = seeded.population().unwrap();
        assert!(
            first.best().unwrap().fitness >= summary.best.fitness * 0.99,
            "seeded run should start near the previous best"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
