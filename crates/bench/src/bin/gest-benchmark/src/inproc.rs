//! The in-process workloads, `cold` and `warm`: the four searches driven
//! through `GestRun::step()`, timed from outside through decorators on the
//! public `Measurement` and `EvalBackend` traits.

use crate::cases::{audit, round_seed, step_to_end, Budget, Stepped, CASES};
use crate::trace::{TotalsSink, TraceTotals};
use crate::Observed;
use gest::core::{
    config_fingerprint, sim_fast_path_stats, CachedEval, EvalBackend, EvalCache, EvalKey,
    EvalRequest, GestConfig, GestError, GestRun, LocalBackend, MeasuredBatch, Measurement,
    Registry,
};
use gest::isa::Program;
use gest::sim::RunResult;
use gest::telemetry::{Sink, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Busy time and work counts of a decorated layer.
#[derive(Debug, Default)]
struct Tally {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
    cycles: AtomicU64,
    instructions: AtomicU64,
}

impl Tally {
    fn record(&self, started: Instant, items: usize) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
    }

    fn record_detail(&self, detail: Option<&RunResult>) {
        if let Some(result) = detail {
            self.cycles.fetch_add(result.cycles, Ordering::Relaxed);
            self.instructions
                .fetch_add(result.instructions, Ordering::Relaxed);
        }
    }
}

/// Times every simulation a measurement plug-in runs.
#[derive(Debug)]
pub struct TimedMeasurement {
    inner: Arc<dyn Measurement>,
    tally: Tally,
}

impl Measurement for TimedMeasurement {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn metrics(&self) -> &'static [&'static str] {
        self.inner.metrics()
    }

    fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
        Ok(self.measure_detailed(program)?.0)
    }

    fn measure_detailed(
        &self,
        program: &Program,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        let started = Instant::now();
        let result = self.inner.measure_detailed(program);
        self.tally.record(started, 1);
        if let Ok((_, detail)) = &result {
            self.tally.record_detail(detail.as_ref());
        }
        result
    }

    fn measure_batch_detailed(&self, programs: &[Program]) -> MeasuredBatch {
        let started = Instant::now();
        let results = self.inner.measure_batch_detailed(programs);
        self.tally.record(started, programs.len());
        for (_, detail) in results.iter().flatten() {
            self.tally.record_detail(detail.as_ref());
        }
        results
    }

    // Forwarded: the run caches only content-pure measurements, so a
    // decorator that fell back to the trait default would silently turn
    // the cache off.
    fn content_pure(&self) -> bool {
        self.inner.content_pure()
    }
}

/// Times every call the runner makes into its evaluation backend.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn EvalBackend>,
    tally: Tally,
}

impl EvalBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn slots(&self, pending: usize) -> usize {
        self.inner.slots(pending)
    }

    fn measure(
        &self,
        slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        let started = Instant::now();
        let result = self.inner.measure(slot, request);
        self.tally.record(started, 1);
        result
    }

    // Forwarded: the runner only batches when the backend reports a lane
    // width above one.
    fn lane_width(&self) -> usize {
        self.inner.lane_width()
    }

    fn measure_batch(&self, slot: usize, requests: &[EvalRequest<'_>]) -> MeasuredBatch {
        let started = Instant::now();
        let results = self.inner.measure_batch(slot, requests);
        self.tally.record(started, requests.len());
        results
    }
}

/// One decorated stack per search: the measurement the run caches by and
/// the local backend that runs it on every thread.
struct Timed {
    measurement: Arc<TimedMeasurement>,
    backend: Arc<TimedBackend>,
}

impl Timed {
    fn new(config: &GestConfig) -> Result<Timed, GestError> {
        let inner = Registry::default().build_measurement(
            &config.measurement_name,
            config.machine.clone(),
            config.run_config,
        )?;
        let measurement = Arc::new(TimedMeasurement {
            inner,
            tally: Tally::default(),
        });
        let local = LocalBackend::new(
            Arc::clone(&measurement) as Arc<dyn Measurement>,
            config.template.clone(),
            config.threads,
        )
        .with_lane_width(config.lane_width);
        let backend = Arc::new(TimedBackend {
            inner: Arc::new(local),
            tally: Tally::default(),
        });
        Ok(Timed {
            measurement,
            backend,
        })
    }
}

/// A fresh evaluation cache keyed to `config`, as a run would make one.
pub fn fresh_cache(config: &GestConfig) -> Arc<EvalCache> {
    Arc::new(EvalCache::new(
        config.eval_cache_bytes,
        config_fingerprint(&config.to_xml().to_string()),
    ))
}

/// Which in-process regime a round runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Fresh caches: every search simulates from scratch.
    Cold,
    /// Caches an identical earlier search filled: every candidate hits.
    Warm,
}

/// Set-ups timed per run for `setup_s`: one is well under a millisecond,
/// so a single reading would be mostly timer and scheduler noise.
const SETUP_REPS: usize = 25;

/// Runs the in-process workload. Round `r` searches the four cases with
/// [`round_seed`]`(seed, r)`: `Cold` lets every search make its own fresh
/// cache; `Warm` first fills caches with an untimed search of the same
/// seed, then times two replays against them. Every final population is
/// audited; round 0's digests (the run seed's) are the ones reported.
///
/// # Errors
///
/// Configuration errors building the searches.
pub fn run(
    regime: Regime,
    budget: Budget,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Observed, GestError> {
    let mut observed = Observed::new(budget, CASES.len());
    let base_configs = configs(budget, seed)?;
    let warm = regime == Regime::Warm;
    // Filled for the run seed: the set-up timing and the traced pass use
    // them too.
    let base_caches: Vec<Arc<EvalCache>> = base_configs.iter().map(fresh_cache).collect();
    let shared = warm.then_some(base_caches.as_slice());
    if let Some(caches) = shared {
        let digests = fill(budget, seed, caches, &base_configs, &mut observed)?;
        for (case, digest) in CASES.iter().zip(digests) {
            if let Some(digest) = digest {
                observed.reference(case.machine, digest);
            }
        }
    }
    // Set-up is what a search costs before its first generation can start:
    // building the configurations and the runs.
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let runs = build(budget, seed, shared, None)?;
        observed.setup_s.push(started.elapsed().as_secs_f64());
        drop(runs);
    }
    let started = Instant::now();
    while observed.rounds() == 0 || started.elapsed().as_secs_f64() < seconds {
        let round = observed.rounds();
        let seed_r = round_seed(seed, round);
        let configs_r = configs(budget, seed_r)?;
        let round_caches;
        let (caches, expected) = match shared {
            Some(caches) if round == 0 => (Some(caches), None),
            Some(_) => {
                round_caches = configs_r.iter().map(fresh_cache).collect::<Vec<_>>();
                let digests = fill(budget, seed_r, &round_caches, &configs_r, &mut observed)?;
                (Some(round_caches.as_slice()), Some(digests))
            }
            None => (None, None),
        };
        let passes = if warm { 2 } else { 1 };
        let mut search_s = 0.0;
        for _ in 0..passes {
            let outcome = pass(budget, seed_r, caches, None, &mut observed)?;
            search_s += outcome.search_s;
            for (index, stepped) in outcome.searches.into_iter().enumerate() {
                let Some(stepped) = stepped else { continue };
                observed.generation_ms.extend(&stepped.generation_ms);
                let machine = CASES[index].machine;
                if let Some(digests) = &expected {
                    // A replay must reproduce its own fill.
                    if digests[index] != Some(stepped.digest()) {
                        observed.audit(Err(format!("{machine} replay differs from its fill")));
                    }
                    continue;
                }
                if round == 0 {
                    observed.check(machine, stepped.digest());
                }
                if !warm {
                    observed.audit(audit(&configs_r[index], &stepped.population));
                }
            }
        }
        observed.round(passes, search_s);
    }
    observed.peak_rss_mb = crate::procfs::vm_hwm_mb(std::process::id()).unwrap_or(f64::NAN);
    if traced {
        trace_pass(&base_configs, budget, seed, shared, &mut observed)?;
    }
    Ok(observed)
}

/// The untimed warm-up of the `warm` regime: one search per case into
/// `caches`, audited. Returns each case's digest (`None` if it failed).
fn fill(
    budget: Budget,
    seed: u64,
    caches: &[Arc<EvalCache>],
    configs: &[GestConfig],
    observed: &mut Observed,
) -> Result<Vec<Option<u64>>, GestError> {
    let outcome = pass(budget, seed, Some(caches), None, observed)?;
    Ok(outcome
        .searches
        .iter()
        .zip(configs)
        .map(|(stepped, config)| {
            let stepped = stepped.as_ref()?;
            observed.audit(audit(config, &stepped.population));
            Some(stepped.digest())
        })
        .collect())
}

fn configs(budget: Budget, seed: u64) -> Result<Vec<GestConfig>, GestError> {
    CASES.iter().map(|case| case.config(budget, seed)).collect()
}

/// Builds the four searches: configurations, then runs — over `caches`
/// when given, through the decorated stacks and telemetry when given.
fn build(
    budget: Budget,
    seed: u64,
    caches: Option<&[Arc<EvalCache>]>,
    instruments: Option<(&[Timed], &Telemetry)>,
) -> Result<Vec<GestRun>, GestError> {
    configs(budget, seed)?
        .into_iter()
        .enumerate()
        .map(|(index, config)| {
            let mut builder = GestRun::builder().config(config);
            if let Some(caches) = caches {
                builder = builder.eval_cache_handle(Arc::clone(&caches[index]));
            }
            if let Some((timed, telemetry)) = instruments {
                builder = builder
                    .measurement(Arc::clone(&timed[index].measurement) as Arc<dyn Measurement>)
                    .eval_backend(Arc::clone(&timed[index].backend) as Arc<dyn EvalBackend>)
                    .telemetry(telemetry.clone());
            }
            builder.build()
        })
        .collect()
}

/// What one pass over the four searches took.
struct Pass {
    search_s: f64,
    /// Per case; `None` for a search that failed.
    searches: Vec<Option<Stepped>>,
}

/// Builds and steps the four searches once. A failing search is counted
/// in `observed` and contributes no digest.
///
/// # Errors
///
/// Configuration errors building the searches.
fn pass(
    budget: Budget,
    seed: u64,
    caches: Option<&[Arc<EvalCache>]>,
    instruments: Option<(&[Timed], &Telemetry)>,
    observed: &mut Observed,
) -> Result<Pass, GestError> {
    let runs = build(budget, seed, caches, instruments)?;
    let started = Instant::now();
    let mut searches = Vec::with_capacity(runs.len());
    for (index, run) in runs.into_iter().enumerate() {
        observed.attempted += 1;
        // A traced pass keeps the first search's key stream for the cache
        // microbenchmark.
        let keep_genes = instruments.is_some() && index == 0;
        match step_to_end(run, keep_genes) {
            Ok(stepped) => searches.push(Some(stepped)),
            Err(error) => {
                eprintln!(
                    "gest-benchmark: {} search failed: {error}",
                    CASES[index].machine
                );
                observed.failed += 1;
                searches.push(None);
            }
        }
    }
    Ok(Pass {
        search_s: started.elapsed().as_secs_f64(),
        searches,
    })
}

/// The extra traced pass: decorators plus a telemetry sink, read into the
/// per-layer metrics.
fn trace_pass(
    configs: &[GestConfig],
    budget: Budget,
    seed: u64,
    caches: Option<&[Arc<EvalCache>]>,
    observed: &mut Observed,
) -> Result<(), GestError> {
    let timed = configs
        .iter()
        .map(Timed::new)
        .collect::<Result<Vec<_>, _>>()?;
    let sink = Arc::new(TotalsSink::default());
    let telemetry = Telemetry::new(Arc::clone(&sink) as Arc<dyn Sink>);
    let cache_before: Vec<_> = caches
        .map(|caches| caches.iter().map(|cache| cache.stats()).collect())
        .unwrap_or_default();
    let fast_before = sim_fast_path_stats();
    let outcome = pass(budget, seed, caches, Some((&timed, &telemetry)), observed)?;
    let fast_after = sim_fast_path_stats();
    for (config, stepped) in configs.iter().zip(&outcome.searches) {
        if let Some(stepped) = stepped {
            observed.check(&config.machine.name, stepped.digest());
        }
    }
    let totals: TraceTotals = sink.totals();
    let sum = |field: fn(&Timed) -> &AtomicU64| -> f64 {
        timed
            .iter()
            .map(|stack| field(stack).load(Ordering::Relaxed) as f64)
            .sum()
    };
    let sim_busy_us = sum(|t| &t.measurement.tally.busy_ns) / 1e3;
    let sims = sum(|t| &t.measurement.tally.items);
    let backend_busy_us = sum(|t| &t.backend.tally.busy_ns) / 1e3;
    // Hits and lookups of this pass alone: warm caches carry the fill's.
    let (hits, lookups) = match caches {
        Some(caches) => caches
            .iter()
            .zip(&cache_before)
            .map(|(cache, before)| {
                let after = cache.stats();
                (
                    (after.hits - before.hits) as f64,
                    (after.hits + after.misses - before.hits - before.misses) as f64,
                )
            })
            .fold((0.0, 0.0), |(h, l), (dh, dl)| (h + dh, l + dl)),
        None => {
            let hits = totals.counter("evalcache.hits") as f64;
            (hits, hits + totals.counter("evalcache.misses") as f64)
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let candidates = observed.candidates_per_pass();
    let layers = &mut observed.layers;
    layers.per("cache.hit_rate", hits, lookups);
    layers.per("sim.candidate_us", sim_busy_us, sims);
    layers.per(
        "sim.minstr_per_s",
        sum(|t| &t.measurement.tally.instructions),
        sim_busy_us,
    );
    layers.per(
        "sim.cycles_per_candidate",
        sum(|t| &t.measurement.tally.cycles),
        sims,
    );
    layers.per(
        "sim.steady_hit_rate",
        (fast_after.steady_hits - fast_before.steady_hits) as f64,
        (fast_after.runs - fast_before.runs) as f64,
    );
    layers.per(
        "sim.share",
        sim_busy_us,
        totals.span("generation").sum_us as f64 * threads,
    );
    layers.per(
        "backend.lanes_per_batch",
        sum(|t| &t.backend.tally.items),
        sum(|t| &t.backend.tally.calls),
    );
    layers.per("backend.overhead_us", backend_busy_us - sim_busy_us, sims);
    layers.spans(&totals);
    layers.eval_overhead(&totals, threads, backend_busy_us, candidates);
    if let (Some(config), Some(Some(first))) = (configs.first(), outcome.searches.first()) {
        cache_microbench(config, &first.genes, layers);
    }
    observed.traced_round(1, outcome.search_s);
    Ok(())
}

/// Times `EvalCache::insert` and `EvalCache::get` over one search's key
/// stream (every evaluated individual, in order), best of five.
pub fn cache_microbench(config: &GestConfig, genes: &[u128], layers: &mut crate::Layers) {
    let fingerprint = config_fingerprint(&config.to_xml().to_string());
    let keys: Vec<EvalKey> = genes
        .iter()
        .map(|&genes_hash| EvalKey {
            config_fp: fingerprint,
            genes_hash,
        })
        .collect();
    let value = CachedEval {
        measurements: vec![1.0, 2.0, 3.0],
        detail_kv: None,
    };
    let (mut insert_ns, mut probe_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let cache = EvalCache::new(config.eval_cache_bytes, fingerprint);
        let started = Instant::now();
        for key in &keys {
            cache.insert(*key, value.clone());
        }
        insert_ns = insert_ns.min(started.elapsed().as_nanos() as f64);
        let started = Instant::now();
        for key in &keys {
            std::hint::black_box(cache.get(key));
        }
        probe_ns = probe_ns.min(started.elapsed().as_nanos() as f64);
    }
    let n = keys.len() as f64;
    layers.per("cache.insert_ns", insert_ns, n);
    layers.per("cache.probe_ns", probe_ns, n);
}
