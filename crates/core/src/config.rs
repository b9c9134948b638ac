//! The main configuration (the paper's main XML configuration file).

use crate::checkpoint::Fingerprint;
use crate::error::GestError;
use crate::fault::FaultPolicy;
use crate::pools::full_pool;
use gest_ga::{CrossoverOp, GaConfig, SelectionOp};
use gest_isa::{pool_from_xml, pool_to_xml, InstructionPool, Template};
use gest_sim::{MachineConfig, RunConfig};
use gest_xml::{Document, Element};
use std::fmt::Write;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Everything a GeST run needs (paper Figure 1, "inputs").
///
/// Every field but the three execution details (`threads`, `lane_width`,
/// `eval_cache_bytes`) is a setting [`to_xml`](GestConfig::to_xml)
/// renders and [`from_xml_str`](GestConfig::from_xml_str) reads back, so
/// a run's `config.xml` rebuilds it exactly. Telemetry, the cache switch
/// and custom plug-in instances go to [`crate::GestRunBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct GestConfig {
    /// The target machine model.
    pub machine: MachineConfig,
    /// Which measurement plug-in to use (resolved by name, like the
    /// paper's dynamically-loaded measurement classes).
    pub measurement_name: String,
    /// Which fitness plug-in to use.
    pub fitness_name: String,
    /// GA engine parameters (paper Table I).
    pub ga: GaConfig,
    /// Number of generations to run.
    pub generations: u32,
    /// RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Simulated-measurement parameters. XML carries `max_iterations`,
    /// `max_cycles` and `thermal_hold_s`; a run rebuilt from `config.xml`
    /// has the default `peak_window` and `steady_detect`.
    pub run_config: RunConfig,
    /// The instruction/operand search space.
    pub pool: Arc<InstructionPool>,
    /// The template the individuals are printed into.
    pub template: Template,
    /// Where to save outputs (`None` disables saving).
    pub output_dir: Option<PathBuf>,
    /// A previous run's population file to seed from.
    pub seed_population: Option<PathBuf>,
    /// Worker threads for individual evaluation (0 = all available).
    pub threads: usize,
    /// Candidates each evaluation slot hands its backend per call, which
    /// measures them one after another (`0` and `1` both mean one
    /// candidate per call). Like `threads`, an execution detail: it is
    /// not serialized to XML, never perturbs checkpoint fingerprints, and
    /// any width produces byte-identical search artifacts — a wider call
    /// only amortizes per-call overhead.
    pub lane_width: usize,
    /// Write a crash-recovery checkpoint manifest every N generations
    /// (requires `output_dir`; `None` disables checkpointing). The last
    /// generation is always checkpointed when enabled, so a completed run
    /// can be extended by raising `generations` and resuming.
    pub checkpoint_every: Option<u32>,
    /// How measurement failures of individual candidates are handled
    /// (retries, deadline, quarantine) — see [`FaultPolicy`].
    pub fault_policy: FaultPolicy,
    /// Memory cap of the evaluation cache, in bytes (approximate; counts
    /// entry payloads and bookkeeping). Least-recently-used entries are
    /// evicted past the cap. An execution detail like `threads`: not
    /// serialized to XML, and a cache hit is bit-identical to a fresh
    /// measurement at any cap.
    pub eval_cache_bytes: usize,
}

/// Default evaluation-cache memory cap: 64 MiB holds hundreds of
/// thousands of cached measurements — far more than a typical search.
pub(crate) const DEFAULT_EVAL_CACHE_BYTES: usize = 64 << 20;

impl GestConfig {
    /// Starts a builder targeting a preset machine by name
    /// (`cortex-a15`, `cortex-a7`, `xgene2`, `athlon-x4`).
    pub fn builder(machine: &str) -> GestConfigBuilder {
        GestConfigBuilder::new(machine)
    }

    /// Parses a main configuration from XML text.
    ///
    /// # Errors
    ///
    /// [`GestError::Xml`] for malformed XML, [`GestError::Config`] for
    /// schema problems, and pool/template errors from their parsers.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), gest_core::GestError> {
    /// let config = gest_core::GestConfig::from_xml_str(
    ///     r#"<gest>
    ///          <target machine="cortex-a15" measurement="power" fitness="default"/>
    ///          <ga population_size="10" individual_size="20" generations="5" seed="7"/>
    ///        </gest>"#,
    /// )?;
    /// assert_eq!(config.machine.name, "cortex-a15");
    /// assert_eq!(config.ga.population_size, 10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_xml_str(text: &str) -> Result<GestConfig, GestError> {
        let doc = Document::parse(text)?;
        let root = doc.root();
        if root.name() != "gest" {
            return Err(GestError::Config(format!(
                "root element must be <gest>, found <{}>",
                root.name()
            )));
        }
        let target = root
            .child("target")
            .ok_or_else(|| GestError::Config("missing <target> element".into()))?;
        let machine_name = target
            .attr("machine")
            .ok_or_else(|| GestError::Config("<target> missing machine attribute".into()))?;
        let mut builder = GestConfigBuilder::new(machine_name);
        if let Some(measurement) = target.attr("measurement") {
            builder = builder.measurement(measurement);
        }
        if let Some(fitness) = target.attr("fitness") {
            builder = builder.fitness(fitness);
        }
        if let Some(ga) = root.child("ga") {
            builder = builder.apply_ga_element(ga)?;
        }
        if let Some(run) = root.child("run") {
            if let Some(value) = run.attr("max_iterations") {
                builder.run_config.max_iterations = parse_attr("max_iterations", value)?;
            }
            if let Some(value) = run.attr("max_cycles") {
                builder.run_config.max_cycles = parse_attr("max_cycles", value)?;
            }
            if let Some(value) = run.attr("thermal_hold_s") {
                builder.run_config.thermal_hold_s = parse_attr("thermal_hold_s", value)?;
            }
            if let Some(value) = run.attr("checkpoint_every") {
                builder.checkpoint_every = Some(parse_attr("checkpoint_every", value)?);
            }
        }
        if let Some(fault) = root.child("fault") {
            if let Some(value) = fault.attr("max_retries") {
                builder.fault_policy.max_retries = parse_attr("max_retries", value)?;
            }
            if let Some(value) = fault.attr("backoff_ms") {
                builder.fault_policy.backoff_base_ms = parse_attr("backoff_ms", value)?;
            }
            if let Some(value) = fault.attr("deadline_ms") {
                builder.fault_policy.deadline_ms = Some(parse_attr("deadline_ms", value)?);
            }
            if let Some(value) = fault.attr("watchdog_ms") {
                builder.fault_policy.watchdog_ms = Some(parse_attr("watchdog_ms", value)?);
            }
            if let Some(value) = fault.attr("quarantine") {
                builder.fault_policy.quarantine = parse_attr("quarantine", value)?;
            }
        }
        if let Some(output) = root.child("output") {
            if let Some(dir) = output.attr("dir") {
                builder = builder.output_dir(dir);
            }
        }
        if let Some(seed_pop) = root.child("seed_population") {
            let file = seed_pop.attr("file").ok_or_else(|| {
                GestError::Config("<seed_population> missing file attribute".into())
            })?;
            builder = builder.seed_population(file);
        }
        if let Some(instructions) = root.child("instructions") {
            builder = builder.pool(pool_from_xml(instructions)?);
        }
        if let Some(template) = root.child("template") {
            builder = builder.template(Template::parse(&template.text())?);
        }
        builder.build()
    }

    /// Serializes the run-relevant settings back to XML for record-keeping
    /// (the paper saves the configuration files in every output
    /// directory).
    pub fn to_xml(&self) -> Element {
        let mut root = Element::new("gest");
        for child in self.settings_xml() {
            root.push_child(child);
        }
        root.push_child(pool_to_xml(&self.pool));
        root.push_child(self.template_xml());
        root
    }

    /// The configuration fingerprint: [`config_fingerprint`] of the
    /// compact [`to_xml`](GestConfig::to_xml) rendering, the value
    /// `config.xml` hashes to. The rendering streams into the hash
    /// without being assembled, and the pool's part of it is the pool's
    /// memoized [`InstructionPool::xml_text`], so no pool subtree is
    /// built after a pool's first fingerprint.
    ///
    /// [`config_fingerprint`]: crate::config_fingerprint
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fingerprint::new();
        // `<gest>` has children and no attributes: compact rendering
        // puts its children straight between the two tags.
        hash.push("<gest>");
        for child in self.settings_xml() {
            let _ = write!(hash, "{child}");
        }
        hash.push(self.pool.xml_text());
        let _ = write!(hash, "{}</gest>", self.template_xml());
        hash.finish()
    }

    /// The children of [`to_xml`](GestConfig::to_xml)'s root that come
    /// before the pool.
    fn settings_xml(&self) -> Vec<Element> {
        let mut elements = Vec::with_capacity(6);
        let mut target = Element::new("target");
        target.set_attr("machine", &self.machine.name);
        target.set_attr("measurement", &self.measurement_name);
        target.set_attr("fitness", &self.fitness_name);
        elements.push(target);

        let mut ga = Element::new("ga");
        ga.set_attr("population_size", self.ga.population_size.to_string());
        ga.set_attr("individual_size", self.ga.individual_size.to_string());
        ga.set_attr("mutation_rate", self.ga.mutation_rate.to_string());
        ga.set_attr(
            "crossover",
            match self.ga.crossover {
                CrossoverOp::OnePoint => "one_point",
                CrossoverOp::Uniform => "uniform",
            },
        );
        ga.set_attr("elitism", self.ga.elitism.to_string());
        let SelectionOp::Tournament { size } = self.ga.selection;
        ga.set_attr("tournament_size", size.to_string());
        ga.set_attr("generations", self.generations.to_string());
        ga.set_attr("seed", self.seed.to_string());
        elements.push(ga);

        let mut run = Element::new("run");
        run.set_attr("max_iterations", self.run_config.max_iterations.to_string());
        run.set_attr("max_cycles", self.run_config.max_cycles.to_string());
        // Written only when set, so default configurations keep their
        // bytes (and their fingerprints).
        if self.run_config.thermal_hold_s != RunConfig::quick().thermal_hold_s {
            run.set_attr("thermal_hold_s", self.run_config.thermal_hold_s.to_string());
        }
        if let Some(every) = self.checkpoint_every {
            run.set_attr("checkpoint_every", every.to_string());
        }
        elements.push(run);

        let mut fault = Element::new("fault");
        fault.set_attr("max_retries", self.fault_policy.max_retries.to_string());
        fault.set_attr("backoff_ms", self.fault_policy.backoff_base_ms.to_string());
        if let Some(deadline) = self.fault_policy.deadline_ms {
            fault.set_attr("deadline_ms", deadline.to_string());
        }
        if let Some(watchdog) = self.fault_policy.watchdog_ms {
            fault.set_attr("watchdog_ms", watchdog.to_string());
        }
        fault.set_attr("quarantine", self.fault_policy.quarantine.to_string());
        elements.push(fault);

        if let Some(dir) = &self.output_dir {
            let mut output = Element::new("output");
            output.set_attr("dir", dir.display().to_string());
            elements.push(output);
        }
        if let Some(file) = &self.seed_population {
            let mut seed = Element::new("seed_population");
            seed.set_attr("file", file.display().to_string());
            elements.push(seed);
        }

        elements
    }

    /// The root's last child, after the pool.
    fn template_xml(&self) -> Element {
        let mut template = Element::new("template");
        template.push_text_node(format!("\n{}", self.template.to_source()));
        template
    }
}

/// The [`full_pool`] every configuration without a pool of its own
/// shares: built once per process, so building a configuration does not
/// rebuild it, and its memoized rendering serves every fingerprint.
fn default_pool() -> Arc<InstructionPool> {
    static POOL: OnceLock<Arc<InstructionPool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| Arc::new(full_pool())))
}

fn parse_attr<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, GestError> {
    value
        .parse()
        .map_err(|_| GestError::Config(format!("attribute {name}: cannot parse {value:?}")))
}

/// Builder for [`GestConfig`].
#[derive(Debug, Clone)]
pub struct GestConfigBuilder {
    machine_name: String,
    measurement_name: String,
    fitness_name: String,
    ga: GaConfig,
    generations: u32,
    seed: u64,
    run_config: RunConfig,
    pool: Option<InstructionPool>,
    template: Option<Template>,
    output_dir: Option<PathBuf>,
    seed_population: Option<PathBuf>,
    threads: usize,
    lane_width: usize,
    checkpoint_every: Option<u32>,
    fault_policy: FaultPolicy,
    eval_cache_bytes: usize,
}

impl GestConfigBuilder {
    fn new(machine: &str) -> GestConfigBuilder {
        GestConfigBuilder {
            machine_name: machine.to_owned(),
            measurement_name: "power".into(),
            fitness_name: "default".into(),
            ga: GaConfig::default(),
            generations: 20,
            seed: 0,
            run_config: RunConfig::quick(),
            pool: None,
            template: None,
            output_dir: None,
            seed_population: None,
            threads: 0,
            lane_width: 1,
            checkpoint_every: None,
            fault_policy: FaultPolicy::default(),
            eval_cache_bytes: DEFAULT_EVAL_CACHE_BYTES,
        }
    }

    /// Sets the evaluation cache's approximate memory cap in bytes.
    pub fn eval_cache_bytes(mut self, bytes: usize) -> Self {
        self.eval_cache_bytes = bytes;
        self
    }

    /// Selects the measurement plug-in by name.
    pub fn measurement(mut self, name: &str) -> Self {
        self.measurement_name = name.to_owned();
        self
    }

    /// Selects the fitness plug-in by name.
    pub fn fitness(mut self, name: &str) -> Self {
        self.fitness_name = name.to_owned();
        self
    }

    /// Sets the GA population size.
    pub fn population_size(mut self, size: usize) -> Self {
        self.ga.population_size = size;
        self
    }

    /// Sets the individual (loop) length and adjusts the mutation rate to
    /// the paper's one-mutation-per-individual rule of thumb.
    pub fn individual_size(mut self, size: usize) -> Self {
        self.ga.individual_size = size;
        self.ga.mutation_rate = GaConfig::mutation_rate_for(size);
        self
    }

    /// Sets the mutation rate explicitly.
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.ga.mutation_rate = rate;
        self
    }

    /// Sets the crossover operator.
    pub fn crossover(mut self, op: CrossoverOp) -> Self {
        self.ga.crossover = op;
        self
    }

    /// Enables or disables elitism.
    pub fn elitism(mut self, on: bool) -> Self {
        self.ga.elitism = on;
        self
    }

    /// Sets the number of generations.
    pub fn generations(mut self, generations: u32) -> Self {
        self.generations = generations;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the instruction pool.
    pub fn pool(mut self, pool: InstructionPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets the template.
    pub fn template(mut self, template: Template) -> Self {
        self.template = Some(template);
        self
    }

    /// Enables output saving into the given directory.
    pub fn output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Seeds the first generation from a saved population file.
    pub fn seed_population(mut self, file: impl Into<PathBuf>) -> Self {
        self.seed_population = Some(file.into());
        self
    }

    /// Sets the evaluation thread count (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets how many candidates each evaluation slot hands its backend per
    /// call, measured one after another (0/1 = one candidate per call). An
    /// execution detail like [`threads`](Self::threads): results are
    /// byte-identical at every width.
    pub fn lane_width(mut self, lane_width: usize) -> Self {
        self.lane_width = lane_width;
        self
    }

    /// Writes a crash-recovery checkpoint manifest every `every`
    /// generations (requires an output directory to take effect).
    pub fn checkpoint_every(mut self, every: u32) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Sets the measurement fault-handling policy.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    fn apply_ga_element(mut self, ga: &Element) -> Result<Self, GestError> {
        if let Some(value) = ga.attr("population_size") {
            self.ga.population_size = parse_attr("population_size", value)?;
        }
        if let Some(value) = ga.attr("individual_size") {
            self.ga.individual_size = parse_attr("individual_size", value)?;
            self.ga.mutation_rate = GaConfig::mutation_rate_for(self.ga.individual_size);
        }
        if let Some(value) = ga.attr("mutation_rate") {
            self.ga.mutation_rate = parse_attr("mutation_rate", value)?;
        }
        if let Some(value) = ga.attr("crossover") {
            self.ga.crossover = match value {
                "one_point" => CrossoverOp::OnePoint,
                "uniform" => CrossoverOp::Uniform,
                other => {
                    return Err(GestError::Config(format!(
                        "unknown crossover {other:?} (expected one_point or uniform)"
                    )))
                }
            };
        }
        if let Some(value) = ga.attr("elitism") {
            self.ga.elitism = parse_attr("elitism", value)?;
        }
        if let Some(value) = ga.attr("tournament_size") {
            self.ga.selection = SelectionOp::Tournament {
                size: parse_attr("tournament_size", value)?,
            };
        }
        if let Some(value) = ga.attr("generations") {
            self.generations = parse_attr("generations", value)?;
        }
        if let Some(value) = ga.attr("seed") {
            self.seed = parse_attr("seed", value)?;
        }
        Ok(self)
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] for unknown machine names,
    /// [`GestError::Ga`] for invalid GA parameters.
    pub fn build(self) -> Result<GestConfig, GestError> {
        let machine = MachineConfig::all_presets()
            .into_iter()
            .find(|m| m.name == self.machine_name)
            .ok_or_else(|| {
                GestError::Config(format!(
                    "unknown machine {:?} (presets: cortex-a15, cortex-a7, xgene2, athlon-x4)",
                    self.machine_name
                ))
            })?;
        self.ga.validate()?;
        if self.generations == 0 {
            return Err(GestError::Config("generations must be at least 1".into()));
        }
        if self.checkpoint_every == Some(0) {
            return Err(GestError::Config(
                "checkpoint_every must be at least 1 (omit it to disable checkpointing)".into(),
            ));
        }
        Ok(GestConfig {
            machine,
            measurement_name: self.measurement_name,
            fitness_name: self.fitness_name,
            ga: self.ga,
            generations: self.generations,
            seed: self.seed,
            run_config: self.run_config,
            pool: self.pool.map_or_else(default_pool, Arc::new),
            template: self.template.unwrap_or_else(Template::default_stress),
            output_dir: self.output_dir,
            seed_population: self.seed_population,
            threads: self.threads,
            lane_width: self.lane_width,
            checkpoint_every: self.checkpoint_every,
            fault_policy: self.fault_policy,
            eval_cache_bytes: self.eval_cache_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let config = GestConfig::builder("cortex-a7").build().unwrap();
        assert_eq!(config.machine.name, "cortex-a7");
        assert_eq!(config.measurement_name, "power");
        assert_eq!(config.fitness_name, "default");
        assert_eq!(config.ga.population_size, 50);
        assert!(config.pool.defs().len() > 10);
    }

    #[test]
    fn unknown_machine_rejected() {
        assert!(matches!(
            GestConfig::builder("pentium4").build(),
            Err(GestError::Config(_))
        ));
    }

    #[test]
    fn individual_size_adjusts_mutation_rate() {
        let config = GestConfig::builder("cortex-a15")
            .individual_size(20)
            .build()
            .unwrap();
        assert!((config.ga.mutation_rate - 0.05).abs() < 1e-12);
    }

    #[test]
    fn xml_full_schema() {
        let config = GestConfig::from_xml_str(
            r#"<gest>
                 <target machine="athlon-x4" measurement="voltage_noise" fitness="default"/>
                 <ga population_size="30" individual_size="31" mutation_rate="0.04"
                     crossover="uniform" elitism="false" tournament_size="3"
                     generations="50" seed="99"/>
                 <run max_iterations="100" max_cycles="5000"/>
                 <output dir="results/didt"/>
                 <instructions>
                   <operand id="v" values="v0 v1" type="register"/>
                   <instruction name="FMUL" num_of_operands="3"
                       operand1="v" operand2="v" operand3="v" type="float"/>
                 </instructions>
                 <template>
.mem checkerboard
.init
MOVI x10, #0
.loop
#loop_code
                 </template>
               </gest>"#,
        )
        .unwrap();
        assert_eq!(config.machine.name, "athlon-x4");
        assert_eq!(config.measurement_name, "voltage_noise");
        assert_eq!(config.ga.population_size, 30);
        assert_eq!(config.ga.individual_size, 31);
        assert!((config.ga.mutation_rate - 0.04).abs() < 1e-12);
        assert_eq!(config.ga.crossover, CrossoverOp::Uniform);
        assert!(!config.ga.elitism);
        assert_eq!(config.ga.selection, SelectionOp::Tournament { size: 3 });
        assert_eq!(config.generations, 50);
        assert_eq!(config.seed, 99);
        assert_eq!(config.run_config.max_iterations, 100);
        assert_eq!(
            config.output_dir.as_deref(),
            Some(std::path::Path::new("results/didt"))
        );
        assert_eq!(config.pool.defs().len(), 1);
        assert_eq!(config.template.init().len(), 1);
    }

    #[test]
    fn xml_minimal_schema_uses_defaults() {
        let config = GestConfig::from_xml_str(
            r#"<gest><target machine="xgene2" measurement="temperature"/></gest>"#,
        )
        .unwrap();
        assert_eq!(config.measurement_name, "temperature");
        assert_eq!(config.ga.population_size, 50);
    }

    #[test]
    fn xml_bad_root_rejected() {
        assert!(matches!(
            GestConfig::from_xml_str("<config/>"),
            Err(GestError::Config(_))
        ));
    }

    #[test]
    fn a_zero_immediate_stride_is_an_error_not_a_panic() {
        let xml = r#"<gest><target machine="cortex-a15"/><instructions>
            <operand id="r" values="x1 x2" type="register"/>
            <operand id="i" min="0" max="256" stride="0" type="immediate"/>
            <instruction name="ADDI" num_of_operands="3" operand1="r" operand2="r" operand3="i"/>
        </instructions></gest>"#;
        assert!(matches!(
            GestConfig::from_xml_str(xml),
            Err(GestError::Isa(_))
        ));
    }

    #[test]
    fn deeply_nested_xml_is_an_error_not_a_stack_overflow() {
        // 8,000 levels overflow a 2 MiB thread's stack if the tree is
        // built without a depth cap.
        let depth = 8_000;
        let xml = format!(
            "<gest><target machine=\"cortex-a15\"/>{}{}</gest>",
            "<a>".repeat(depth),
            "</a>".repeat(depth)
        );
        assert!(matches!(
            GestConfig::from_xml_str(&xml),
            Err(GestError::Xml(_))
        ));
    }

    #[test]
    fn xml_missing_target_rejected() {
        assert!(matches!(
            GestConfig::from_xml_str("<gest/>"),
            Err(GestError::Config(_))
        ));
    }

    #[test]
    fn xml_bad_crossover_rejected() {
        let err = GestConfig::from_xml_str(
            r#"<gest>
                 <target machine="xgene2"/>
                 <ga crossover="two_point"/>
               </gest>"#,
        )
        .unwrap_err();
        assert!(matches!(err, GestError::Config(_)));
    }

    #[test]
    fn to_xml_round_trips_core_fields() {
        let config = GestConfig::builder("cortex-a15")
            .measurement("ipc")
            .population_size(12)
            .generations(7)
            .build()
            .unwrap();
        let xml = config.to_xml().to_string();
        let reparsed = GestConfig::from_xml_str(&xml).unwrap();
        assert_eq!(reparsed.machine.name, "cortex-a15");
        assert_eq!(reparsed.measurement_name, "ipc");
        assert_eq!(reparsed.ga.population_size, 12);
        assert_eq!(reparsed.generations, 7);
        assert_eq!(reparsed.pool.defs().len(), config.pool.defs().len());
        // The record-keeping config must reproduce the template exactly:
        // re-running it from disk must not fall back to a default template.
        assert_eq!(reparsed.template, config.template);
    }

    #[test]
    fn to_xml_preserves_output_and_seed_paths() {
        let mut config = GestConfig::builder("xgene2").build().unwrap();
        config.output_dir = Some("runs/x".into());
        config.seed_population = Some("runs/x/population_0009.bin".into());
        let reparsed = GestConfig::from_xml_str(&config.to_xml().to_string()).unwrap();
        assert_eq!(reparsed.output_dir, config.output_dir);
        assert_eq!(reparsed.seed_population, config.seed_population);
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_rendering() {
        let rendered =
            |config: &GestConfig| crate::config_fingerprint(&config.to_xml().to_string());
        let mut full = GestConfig::builder("athlon-x4")
            .measurement("voltage_noise")
            .checkpoint_every(4)
            .fault_policy(FaultPolicy {
                max_retries: 2,
                backoff_base_ms: 5,
                deadline_ms: Some(100),
                watchdog_ms: Some(900),
                quarantine: true,
            })
            .build()
            .unwrap();
        full.output_dir = Some("runs/a & b <c>".into());
        full.seed_population = Some("runs/\"q\"/population_0001.bin".into());
        let parsed = GestConfig::from_xml_str(&full.to_xml().to_string()).unwrap();
        let custom = GestConfig::builder("cortex-a7")
            .pool(crate::llc_pool())
            .build()
            .unwrap();
        for config in [
            GestConfig::builder("cortex-a15").build().unwrap(),
            full,
            parsed,
            custom,
        ] {
            let expected = rendered(&config);
            assert_eq!(
                config.fingerprint(),
                expected,
                "first call renders the pool"
            );
            assert_eq!(config.fingerprint(), expected, "later calls reuse it");
        }
    }

    #[test]
    fn configurations_without_a_pool_share_the_default_one() {
        let a = GestConfig::builder("cortex-a15").build().unwrap();
        let b = GestConfig::builder("athlon-x4").build().unwrap();
        assert!(Arc::ptr_eq(&a.pool, &b.pool));
        assert_eq!(*a.pool, full_pool());
    }

    #[test]
    fn checkpoint_and_fault_policy_round_trip_through_xml() {
        let config = GestConfig::builder("cortex-a15")
            .checkpoint_every(5)
            .fault_policy(FaultPolicy {
                max_retries: 3,
                backoff_base_ms: 25,
                deadline_ms: Some(4000),
                watchdog_ms: Some(9000),
                quarantine: false,
            })
            .build()
            .unwrap();
        let reparsed = GestConfig::from_xml_str(&config.to_xml().to_string()).unwrap();
        assert_eq!(reparsed.checkpoint_every, Some(5));
        assert_eq!(reparsed.fault_policy, config.fault_policy);

        // Configs that never mention the new elements get the defaults.
        let plain = GestConfig::from_xml_str(
            r#"<gest><target machine="cortex-a7" measurement="power"/></gest>"#,
        )
        .unwrap();
        assert_eq!(plain.checkpoint_every, None);
        assert_eq!(plain.fault_policy, FaultPolicy::default());
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let err = GestConfig::from_xml_str(
            r#"<gest>
                 <target machine="cortex-a7"/>
                 <run checkpoint_every="0"/>
               </gest>"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("checkpoint_every"), "{err}");
    }

    #[test]
    fn zero_generations_rejected() {
        assert!(GestConfig::builder("cortex-a15")
            .generations(0)
            .build()
            .is_err());
    }
}
