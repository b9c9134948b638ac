//! The runner's evaluation fan-out: cache hits are resolved on the calling
//! thread before any slot is driven, only the distinct missing keys reach
//! the backend, and a duplicate of a missing key waits for its leader's
//! result instead of being measured twice. None of it may change what a
//! search produces.
//!
//! The CI determinism job runs this file in release mode at several
//! thread counts (`GEST_TEST_THREADS`).

use gest::core::{
    genes_hash, EvalBackend, EvalCache, EvalRequest, GestConfig, GestError, GestRun, LocalBackend,
    MeasuredBatch, Measurement, PowerMeasurement, SavedIndividual, SavedPopulation,
    QUARANTINE_FITNESS,
};
use gest::isa::{Gene, Program};
use gest::sim::RunResult;
use gest::telemetry::{Event, MemorySink, Telemetry};
use std::collections::{BTreeSet, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Evaluation thread count under test; the CI matrix varies this. At
/// least two, so a fan-out that should not happen would show.
fn test_threads() -> usize {
    std::env::var("GEST_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(2)
}

fn config(seed: u64) -> GestConfig {
    GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(8)
        .individual_size(10)
        .generations(4)
        .seed(seed)
        .threads(test_threads())
        .build()
        .unwrap()
}

/// A local backend that records the gene hash of every candidate it is
/// asked to measure, one entry per `measure_batch` call.
#[derive(Debug)]
struct Counting {
    inner: LocalBackend,
    calls: Mutex<Vec<Vec<u128>>>,
}

impl Counting {
    fn new(config: &GestConfig, measurement: Arc<dyn Measurement>) -> Arc<Counting> {
        Arc::new(Counting {
            inner: LocalBackend::new(measurement, config.template.clone(), config.threads)
                .with_lane_width(config.lane_width),
            calls: Mutex::new(Vec::new()),
        })
    }

    fn calls(&self) -> Vec<Vec<u128>> {
        self.calls.lock().unwrap().clone()
    }

    fn requested(&self) -> Vec<u128> {
        self.calls().concat()
    }
}

impl EvalBackend for Counting {
    fn name(&self) -> &str {
        "counting"
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
        let hashes = requests.iter().map(|r| genes_hash(r.genes)).collect();
        self.calls.lock().unwrap().push(hashes);
        self.inner.measure_batch(slot, requests)
    }
}

fn power(config: &GestConfig) -> Arc<dyn Measurement> {
    Arc::new(PowerMeasurement::new(
        config.machine.clone(),
        config.run_config,
    ))
}

/// Every population of a run, as its population file would hold it.
fn run_to_end(mut run: GestRun) -> Vec<Vec<u8>> {
    let mut populations = Vec::new();
    loop {
        let outcome = run.step().unwrap();
        populations.push(SavedPopulation::from_population(run.population().unwrap()).encode());
        if outcome.is_terminal() {
            break;
        }
    }
    run.finish();
    populations
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gest_fanout_{tag}_{}.bin", std::process::id()))
}

/// A seed population file whose eight individuals hold five distinct
/// genomes: 0 = 3, 1 = 6 and 2 = 5.
fn seed_with_duplicates(tag: &str) -> (PathBuf, Vec<Vec<Gene>>) {
    let mut donor = GestRun::builder().config(config(7)).build().unwrap();
    donor.step().unwrap();
    let distinct: Vec<Vec<Gene>> = donor
        .population()
        .unwrap()
        .individuals
        .iter()
        .map(|individual| individual.genes.clone())
        .take(5)
        .collect();
    donor.finish();
    let genomes: Vec<Vec<Gene>> = [0, 1, 2, 0, 3, 2, 1, 4]
        .iter()
        .map(|&i| distinct[i].clone())
        .collect();
    let saved = SavedPopulation {
        generation: 0,
        individuals: genomes
            .iter()
            .enumerate()
            .map(|(id, genes)| SavedIndividual {
                id: id as u64,
                parents: (None, None),
                fitness: 0.0,
                measurements: Vec::new(),
                genes: genes.clone(),
            })
            .collect(),
    };
    let path = temp_file(tag);
    std::fs::write(&path, saved.encode()).unwrap();
    (path, genomes)
}

#[test]
fn an_all_hit_generation_makes_no_backend_call_and_stays_on_the_calling_thread() {
    let config = config(42);
    let cache = Arc::new(EvalCache::new(
        config.eval_cache_bytes,
        config.fingerprint(),
    ));
    let filled = run_to_end(
        GestRun::builder()
            .config(config.clone())
            .eval_cache_handle(Arc::clone(&cache))
            .build()
            .unwrap(),
    );

    let backend = Counting::new(&config, power(&config));
    let sink = Arc::new(MemorySink::default());
    let replayed = run_to_end(
        GestRun::builder()
            .config(config.clone())
            .eval_cache_handle(Arc::clone(&cache))
            .eval_backend(Arc::clone(&backend) as Arc<dyn EvalBackend>)
            .telemetry(Telemetry::new(sink.clone()))
            .build()
            .unwrap(),
    );
    assert_eq!(replayed, filled, "a replay reproduces its fill");
    assert!(backend.calls().is_empty(), "every candidate hit the cache");

    let events = sink.events();
    let threads_of = |wanted: &str| -> BTreeSet<u32> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, thread, .. } if name == wanted => Some(*thread),
                _ => None,
            })
            .collect()
    };
    let candidate_spans = events
        .iter()
        .filter(|e| matches!(e, Event::SpanStart { name, .. } if name == "eval.candidate"))
        .count();
    assert_eq!(candidate_spans, 8 * 4, "one span per candidate");
    assert_eq!(threads_of("generation").len(), 1);
    assert_eq!(
        threads_of("eval.candidate"),
        threads_of("generation"),
        "hits are scored on the thread that steps the run"
    );
}

#[test]
fn in_generation_duplicates_reach_the_backend_once_per_distinct_missing_key() {
    let (seed_file, genomes) = seed_with_duplicates("dups");
    let distinct: HashSet<u128> = genomes.iter().map(|genes| genes_hash(genes)).collect();
    assert_eq!(distinct.len(), 5);
    for lane_width in [1, 4] {
        let mut config = config(11);
        config.seed_population = Some(seed_file.clone());
        config.lane_width = lane_width;

        let backend = Counting::new(&config, power(&config));
        let mut run = GestRun::builder()
            .config(config.clone())
            .eval_backend(Arc::clone(&backend) as Arc<dyn EvalBackend>)
            .build()
            .unwrap();
        run.step().unwrap();
        let first: HashSet<u128> = backend.requested().into_iter().collect();
        assert_eq!(backend.requested().len(), 5, "width {lane_width}");
        assert_eq!(first, distinct, "width {lane_width}");
        let stats = run.eval_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (3, 5), "followers hit");

        let mut populations =
            vec![SavedPopulation::from_population(run.population().unwrap()).encode()];
        populations.extend(run_to_end(run));
        let requested = backend.requested();
        let unique: HashSet<u128> = requested.iter().copied().collect();
        assert_eq!(unique.len(), requested.len(), "no key measured twice");

        let uncached = run_to_end(
            GestRun::builder()
                .config(config.clone())
                .eval_cache(false)
                .build()
                .unwrap(),
        );
        assert_eq!(
            populations, uncached,
            "width {lane_width}: the cache changes nothing"
        );
    }
    std::fs::remove_file(seed_file).unwrap();
}

#[test]
fn cache_lookups_equal_candidates_and_every_miss_is_inserted() {
    for seed in [3, 5] {
        let config = config(seed);
        let mut run = GestRun::builder().config(config).build().unwrap();
        while !run.step().unwrap().is_terminal() {}
        let stats = run.eval_cache_stats().unwrap();
        assert_eq!(stats.hits + stats.misses, 8 * 4);
        assert_eq!(stats.inserts, stats.misses);
        assert!(stats.hits > 0, "elites hit");
        run.finish();
    }
}

/// Power measurement that fails every attempt at one program name, i.e.
/// one candidate id, and measures everything else as usual.
#[derive(Debug)]
struct FailsFor {
    inner: Arc<dyn Measurement>,
    program: &'static str,
}

impl Measurement for FailsFor {
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
        if program.name == self.program {
            return Err(GestError::Config(format!("{} is cursed", program.name)));
        }
        self.inner.measure_detailed(program)
    }

    // Content-pure apart from the one cursed candidate, so the run keeps
    // its cache.
    fn content_pure(&self) -> bool {
        true
    }
}

#[test]
fn a_follower_of_a_quarantined_leader_is_measured_on_its_own() {
    let (seed_file, _) = seed_with_duplicates("quarantine");
    let mut config = config(13);
    config.seed_population = Some(seed_file.clone());
    // Candidate 2 leads candidate 5's genome and never measures.
    let cursed = Arc::new(FailsFor {
        inner: power(&config),
        program: "0_2",
    });
    let backend = Counting::new(&config, cursed.clone());
    let mut run = GestRun::builder()
        .config(config.clone())
        .measurement(cursed)
        .eval_backend(Arc::clone(&backend) as Arc<dyn EvalBackend>)
        .build()
        .unwrap();
    run.step().unwrap();
    let population = run.population().unwrap().clone();
    let stats = run.eval_cache_stats().unwrap();
    run.finish();

    let quarantined = &population.individuals[2];
    assert_eq!(quarantined.fitness, QUARANTINE_FITNESS);
    assert!(quarantined.measurements.iter().all(|m| m.is_nan()));

    let mut plain = GestRun::builder()
        .config(config)
        .eval_cache(false)
        .build()
        .unwrap();
    plain.step().unwrap();
    let fresh = &plain.population().unwrap().individuals[5];
    let follower = &population.individuals[5];
    assert_eq!(follower.fitness.to_bits(), fresh.fitness.to_bits());
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&follower.measurements), bits(&fresh.measurements));
    plain.finish();

    let genome = genes_hash(&population.individuals[5].genes);
    let measured = backend
        .requested()
        .into_iter()
        .filter(|&hash| hash == genome)
        .count();
    assert_eq!(
        measured, 3,
        "two attempts for the leader, one for its follower"
    );
    assert_eq!(stats.hits + stats.misses, 8, "one lookup per candidate");
    assert_eq!(stats.hits, 2, "the other two followers hit");
    std::fs::remove_file(seed_file).unwrap();
}
