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
use gest_ga::{Candidate, Evaluated, GaEngine, History, Population};
use gest_isa::{Gene, Program};
use gest_telemetry::{Buckets, FieldValue, SpanGuard, Telemetry};
use std::borrow::Cow;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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
    current: Option<Arc<Population<Gene>>>,
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
        let (mut config, fingerprint, resume) = match (self.config, self.resume_dir) {
            (Some(_), Some(_)) => {
                return Err(GestError::Config(
                    "GestRun::builder(): config(..) and resume_from(..) are mutually exclusive"
                        .into(),
                ))
            }
            (None, None) => {
                return Err(GestError::Config(
                    "GestRun::builder(): either config(..) or resume_from(..) is required".into(),
                ))
            }
            (Some(config), None) => {
                let fingerprint = config.fingerprint();
                (config, fingerprint, None)
            }
            (None, Some(dir)) => {
                // Checkpoint first: its absence has the most actionable
                // error message ("was checkpointing enabled?").
                let checkpoint = Checkpoint::load(&dir)?;
                let raw = std::fs::read_to_string(dir.join("config.xml"))?;
                let config = GestConfig::from_xml_str(&raw)?;
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
                let resume = ResumeState {
                    dir,
                    checkpoint,
                    population,
                };
                (config, fingerprint, Some(resume))
            }
        };
        // Execution details only: none of them reaches `config.xml`, so
        // the fingerprint above holds with or without them.
        if let Some(telemetry) = self.telemetry {
            config.telemetry = telemetry;
        }
        if let Some(on) = self.eval_cache {
            config.eval_cache = on;
        }
        if let Some(lane_width) = self.lane_width {
            config.lane_width = lane_width;
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
            resume,
            self.eval_cache_handle,
            self.eval_backend,
            self.write_fs,
        )
    }
}

/// State carried from a checkpoint into [`GestRun::assemble`].
struct ResumeState {
    dir: PathBuf,
    checkpoint: Checkpoint,
    population: Population<Gene>,
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
                    Some(Arc::new(state.population)),
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
        self.current.as_deref()
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
    /// Each generation's artifacts are written in the background; see
    /// [`OutputWriter::save_generation`]. The step that exhausts the
    /// budget waits for its own, so a run that returned
    /// [`StepOutcome::Budget`] has every file on disk.
    ///
    /// # Errors
    ///
    /// Measurement/simulation errors; I/O errors from the previous
    /// generation's artifact write (or, on the final step, this one's).
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
            match self.current.as_deref() {
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
        let population =
            Arc::new(self.evaluate(self.generation, candidates, generation_span.id())?);
        self.history.record(&population);
        if let Some(best) = population.best() {
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
            // Times only the join of the previous write and the hand-off;
            // the write itself is the writer thread's `output.write` span.
            let _save_span = self.telemetry.span("save");
            writer.save_generation(
                Arc::clone(&population),
                Arc::clone(&self.config.pool),
                self.config.template.clone(),
                self.telemetry.clone(),
            )?;
            if self.generation + 1 >= self.config.generations {
                writer.wait()?;
            }
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
        let fields: Vec<(&str, FieldValue)> = vec![
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
    /// The matching population file, which `step` writes in the
    /// background, is joined *before* the manifest is written, so a crash
    /// between the two leaves the older manifest in charge and resume
    /// deterministically re-runs (and overwrites) the generations after
    /// it.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] when the run has no output directory; I/O
    /// errors from a generation's artifact write or from writing the
    /// manifest.
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
        writer.wait()?;
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

    /// Waits for the last artifact write, closes the run-level span,
    /// flushes GA operator counters and run-level gauges, and finishes the
    /// telemetry pipeline (drains aggregated metrics to the sink). A
    /// failed artifact write is counted (`output.write_failures`) and
    /// reported on stderr. Idempotent; [`GestRun::run`] calls it
    /// automatically, manual [`GestRun::step`] drivers should call it once
    /// the search is over.
    pub fn finish(&mut self) {
        let Some(run_span) = self.run_span.take() else {
            return;
        };
        if let Some(Err(error)) = self.writer.as_ref().map(OutputWriter::wait) {
            self.telemetry.add_counter("output.write_failures", 1);
            eprintln!("gest: artifact write failed: {error}");
        }
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

    /// Evaluates one generation's candidates (the substrate analogue of
    /// the paper's per-individual measure step, which dominates runtime:
    /// "5 seconds per measurement … the runtime is approximately 7
    /// hours") in three steps:
    ///
    /// 1. **Keys and hits first, on the calling thread.** Each candidate's
    ///    [`genes_hash`] is taken once and the cache probed once; a hit is
    ///    scored right there. The first miss of a key makes its candidate
    ///    a *leader*; a later candidate with the same key is a *follower*
    ///    and is not probed yet.
    /// 2. **Only the leaders fan out.** Slot 0 is the calling thread and
    ///    every other [`EvalBackend::slots`] slot a scoped thread; each
    ///    claims chunks of up to [`EvalBackend::lane_width`] leaders from
    ///    a shared cursor. A generation without leaders spawns nothing.
    /// 3. **Followers after the join.** Each follower probes once, which
    ///    hits once its leader has inserted. A follower whose leader did
    ///    not land in the cache (it was quarantined or failed) is measured
    ///    on the calling thread like a leader.
    ///
    /// With the cache off, or a measurement that is not content-pure,
    /// there are no keys and every candidate is a leader. Cache lookups
    /// equal candidates either way.
    ///
    /// Results land in per-candidate write-once slots, so the population
    /// order — and therefore the search — is independent of slot
    /// scheduling and of the width; content-purity makes a hit
    /// bit-identical to a fresh measurement. Evaluation fills only
    /// `(fitness, measurements)` slots; the candidates' ids, parents and
    /// genes move into the population at the end, so no genome is copied.
    fn evaluate(
        &self,
        generation: u32,
        candidates: Vec<Candidate<Gene>>,
        parent_span: Option<u64>,
    ) -> Result<Population<Gene>, GestError> {
        let eval_span = self.telemetry.span_under(
            parent_span,
            "evaluate",
            &[
                ("generation", u64::from(generation).into()),
                ("candidates", candidates.len().into()),
                ("backend", self.backend.name().into()),
            ],
        );
        let results: Vec<EvalSlot> = candidates.iter().map(|_| OnceLock::new()).collect();
        let ctx = EvalContext {
            generation,
            candidates: &candidates,
            results: &results,
            span: eval_span.id(),
        };
        let caller = Worker::new(0);
        let (leaders, followers) = match &self.eval_cache {
            Some(cache) => self.resolve_hits(&ctx, cache, &caller),
            None => (
                (0..candidates.len()).map(|index| (index, None)).collect(),
                Vec::new(),
            ),
        };
        let threads = self.fan_out(&ctx, &leaders, &caller);
        if let Some(cache) = &self.eval_cache {
            self.resolve_followers(&ctx, cache, &followers, &caller);
        }
        if self.telemetry.is_enabled() {
            self.telemetry.point(
                "evaluate.fanout",
                &[
                    ("generation", u64::from(generation).into()),
                    ("leaders", leaders.len().into()),
                    ("followers", followers.len().into()),
                    ("threads", threads.into()),
                ],
            );
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
        Ok(Population {
            generation,
            individuals,
        })
    }

    /// Step 1 of [`GestRun::evaluate`], on the calling thread: keys every
    /// candidate, settles the hits, and returns the leaders (in candidate
    /// order) and the followers with their keys.
    fn resolve_hits(
        &self,
        ctx: &EvalContext<'_>,
        cache: &EvalCache,
        caller: &Worker,
    ) -> (Vec<Lane>, Vec<(usize, EvalKey)>) {
        let started = Instant::now();
        let mut leaders = Vec::new();
        let mut followers = Vec::new();
        let mut missing = HashSet::new();
        for (index, candidate) in ctx.candidates.iter().enumerate() {
            let key = self.eval_key(genes_hash(&candidate.genes));
            if missing.contains(&key.genes_hash) {
                followers.push((index, key));
            } else if !self.settle_hit(ctx, cache, index, &key, started, caller) {
                missing.insert(key.genes_hash);
                leaders.push((index, Some(key)));
            }
        }
        (leaders, followers)
    }

    /// Step 2 of [`GestRun::evaluate`]: measures `leaders` across the
    /// backend's slots over their chunks and returns how many slots ran
    /// (0 without leaders). Slot 0 is the calling thread, which keeps its
    /// simulator scratch across generations; only the other slots are
    /// spawned, so a one-slot fan-out spawns nothing.
    fn fan_out(&self, ctx: &EvalContext<'_>, leaders: &[Lane], caller: &Worker) -> usize {
        if leaders.is_empty() {
            return 0;
        }
        let width = self.backend.lane_width().max(1);
        let slots = self.backend.slots(leaders.len().div_ceil(width)).max(1);
        let next = AtomicUsize::new(0);
        let claim = &|worker: &Worker| loop {
            let start = next.fetch_add(width, Ordering::Relaxed);
            if start >= leaders.len() {
                break;
            }
            let end = leaders.len().min(start + width);
            self.evaluate_chunk(ctx, &leaders[start..end], worker);
        };
        std::thread::scope(|scope| {
            for slot in 1..slots {
                scope.spawn(move || claim(&Worker::new(slot)));
            }
            claim(caller);
        });
        slots
    }

    /// Step 3 of [`GestRun::evaluate`], on the calling thread after the
    /// join: every follower probes once, and those whose leader left
    /// nothing in the cache are measured here, a chunk at a time.
    fn resolve_followers(
        &self,
        ctx: &EvalContext<'_>,
        cache: &EvalCache,
        followers: &[(usize, EvalKey)],
        caller: &Worker,
    ) {
        let started = Instant::now();
        let unresolved: Vec<Lane> = followers
            .iter()
            .filter(|(index, key)| !self.settle_hit(ctx, cache, *index, key, started, caller))
            .map(|&(index, key)| (index, Some(key)))
            .collect();
        let width = self.backend.lane_width().max(1);
        for chunk in unresolved.chunks(width) {
            self.evaluate_chunk(ctx, chunk, caller);
        }
    }

    /// Probes the cache for candidate `index` and, on a hit, scores and
    /// settles it; returns whether it did. A miss is left for the caller
    /// to measure, and so is a hit whose fitness function panicked, so
    /// that the fault policy handles it like any failed measurement.
    fn settle_hit(
        &self,
        ctx: &EvalContext<'_>,
        cache: &EvalCache,
        index: usize,
        key: &EvalKey,
        started: Instant,
        worker: &Worker,
    ) -> bool {
        let Some(measurements) = self.cached_eval(cache, key) else {
            return false;
        };
        let candidate = &ctx.candidates[index];
        let span = self.candidate_span(ctx, index, worker);
        match catch_measure(candidate.id, || Ok(self.score(candidate, &measurements))) {
            Ok(fitness) => {
                self.settle(
                    ctx,
                    index,
                    span,
                    started,
                    worker,
                    Ok((fitness, measurements)),
                );
                true
            }
            Err(_) => false,
        }
    }

    /// Opens candidate `index`'s `eval.candidate` span, parented to the
    /// surrounding `evaluate` span (the thread-local stack cannot see
    /// across threads).
    fn candidate_span(&self, ctx: &EvalContext<'_>, index: usize, worker: &Worker) -> SpanGuard {
        self.telemetry.span_under(
            ctx.span,
            "eval.candidate",
            &[
                ("candidate", ctx.candidates[index].id.into()),
                ("generation", u64::from(ctx.generation).into()),
                ("worker", worker.index.into()),
            ],
        )
    }

    /// Records candidate `index`'s outcome: closing metrics, its span's
    /// end, and its write-once result slot.
    fn settle(
        &self,
        ctx: &EvalContext<'_>,
        index: usize,
        span: SpanGuard,
        started: Instant,
        worker: &Worker,
        outcome: Result<Score, GestError>,
    ) {
        self.finish_candidate_metrics(started, &worker.counter, outcome.is_err());
        drop(span);
        if ctx.results[index].set(outcome).is_err() {
            unreachable!("every candidate is settled exactly once");
        }
    }

    /// Measures one chunk of leaders (or unresolved followers) under the
    /// configured [`crate::FaultPolicy`], inserting each success into the
    /// cache under its precomputed key. The chunk goes to the backend as
    /// one [`GestRun::measure_chunk`] call, and every lane gets one
    /// `eval.candidate` span covering all its attempts. Lanes that fail —
    /// an error, a panic, a non-finite value, a tripped watchdog or a
    /// blown deadline — are retried together as one smaller batch after
    /// the policy's backoff, each attempt counting against every failed
    /// lane's retry budget. A lane out of retries is quarantined or fails
    /// the run on its own. Nothing here hashes or probes the cache.
    fn evaluate_chunk(&self, ctx: &EvalContext<'_>, lanes: &[Lane], worker: &Worker) {
        let policy = self.config.fault_policy;
        let started = Instant::now();
        let mut pending: Vec<(usize, SpanGuard, Option<EvalKey>)> = lanes
            .iter()
            .map(|&(index, key)| (index, self.candidate_span(ctx, index, worker), key))
            .collect();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let requests: Vec<EvalRequest<'_>> = pending
                .iter()
                .map(|&(index, _, _)| EvalRequest {
                    generation: ctx.generation,
                    candidate_id: ctx.candidates[index].id,
                    genes: &ctx.candidates[index].genes,
                })
                .collect();
            let measured = self.measure_chunk(worker.index, &requests);
            let mut failed: Vec<(usize, SpanGuard, Option<EvalKey>, GestError)> = Vec::new();
            for ((index, span, key), lane) in pending.into_iter().zip(measured) {
                let candidate = &ctx.candidates[index];
                let completed = lane.and_then(|(measurements, detail)| {
                    catch_measure(candidate.id, || {
                        self.complete_measured(candidate, key, measurements, detail)
                    })
                });
                match completed {
                    Ok(score) => self.settle(ctx, index, span, started, worker, Ok(score)),
                    Err(error) => failed.push((index, span, key, error)),
                }
            }
            if failed.is_empty() {
                return;
            }
            if attempt <= policy.max_retries {
                self.telemetry
                    .add_counter("eval.retries", failed.len() as u64);
                std::thread::sleep(policy.backoff(attempt));
                pending = failed
                    .into_iter()
                    .map(|(index, span, key, _)| (index, span, key))
                    .collect();
                continue;
            }
            for (index, span, _, error) in failed {
                let outcome = if policy.quarantine {
                    self.telemetry.add_counter("eval.quarantined", 1);
                    self.telemetry.point(
                        "quarantine",
                        &[
                            ("candidate", ctx.candidates[index].id.into()),
                            ("generation", u64::from(ctx.generation).into()),
                            ("attempts", u64::from(attempt).into()),
                            ("error", error.to_string().into()),
                        ],
                    );
                    let unmeasured = vec![f64::NAN; self.measurement.metrics().len()];
                    Ok((QUARANTINE_FITNESS, unmeasured))
                } else {
                    Err(error)
                };
                self.settle(ctx, index, span, started, worker, outcome);
            }
            return;
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

    /// Cache-probe half of an evaluation: the cached measurements on a
    /// hit. A traced run also replays the cached simulator detail into
    /// telemetry, and only then is the whole entry copied out.
    fn cached_eval(&self, cache: &EvalCache, key: &EvalKey) -> Option<Vec<f64>> {
        if !self.telemetry.is_enabled() {
            return cache.measurements(key);
        }
        let cached = cache.get(key)?;
        if let Some(kv) = &cached.detail_kv {
            record_sim_stats(&self.telemetry, kv);
        }
        Some(cached.measurements)
    }

    /// A candidate's fitness. Recomputed on a cache hit too: it can
    /// depend on gene structure and the pool, which the key does not
    /// cover.
    fn score(&self, candidate: &Candidate<Gene>, measurements: &[f64]) -> f64 {
        self.fitness.fitness(&FitnessContext {
            measurements,
            genes: &candidate.genes,
            pool: &self.config.pool,
        })
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
        Ok((self.score(candidate, &measurements), measurements))
    }
}

/// A candidate to measure: its index and, when the cache is on, its
/// precomputed key.
type Lane = (usize, Option<EvalKey>);

/// One generation's evaluation inputs and result slots, shared read-only
/// by every slot of [`GestRun::evaluate`].
#[derive(Clone, Copy)]
struct EvalContext<'a> {
    generation: u32,
    candidates: &'a [Candidate<Gene>],
    results: &'a [EvalSlot],
    /// The `evaluate` span the per-candidate spans hang under.
    span: Option<u64>,
}

/// One evaluation slot of a generation, with its utilization counter
/// name formatted once per generation rather than per candidate.
struct Worker {
    index: usize,
    counter: String,
}

impl Worker {
    fn new(index: usize) -> Worker {
        Worker {
            index,
            counter: format!("eval.worker.{index}.candidates"),
        }
    }
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
        run.current = Some(Arc::new(population.clone()));
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
            instrs: gest_isa::asm::parse_block("ADD x1, x2, x3").unwrap().into(),
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
    fn in_generation_duplicates_score_identically_with_and_without_the_cache() {
        let gene = |source: &str| gest_isa::Gene {
            def_index: 0,
            instrs: gest_isa::asm::parse_block(source).unwrap().into(),
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
        let bits = |population: &Population<Gene>, index: usize| -> Vec<u64> {
            population.individuals[index]
                .measurements
                .iter()
                .map(|m| m.to_bits())
                .collect()
        };

        // A duplicate is a cache hit or a second measurement of the same
        // content, depending on which slot gets there first.
        let run = build_run(tiny_config("cortex-a7", "power"));
        let population = run.evaluate(0, candidates.clone(), None).unwrap();
        assert_assembled(&candidates, &population);
        assert_eq!(bits(&population, 0), bits(&population, 2));
        assert_eq!(bits(&population, 1), bits(&population, 3));
        let stats = run.eval_cache_stats().unwrap();
        assert_eq!(stats.hits + stats.misses, 4, "one probe per candidate");
        assert_eq!(stats.inserts, stats.misses, "every miss is measured");

        let uncached = GestRun::builder()
            .config(tiny_config("cortex-a7", "power"))
            .eval_cache(false)
            .build()
            .unwrap();
        let plain = uncached.evaluate(0, candidates.clone(), None).unwrap();
        assert_assembled(&candidates, &plain);
        for index in 0..candidates.len() {
            assert_eq!(
                bits(&plain, index),
                bits(&population, index),
                "the cache never changes a measurement"
            );
        }
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
