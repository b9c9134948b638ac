//! Crash-safety integration tests: a killed run must resume from its
//! checkpoint and continue **bit-identically** to a run that was never
//! interrupted.
//!
//! The CI determinism job runs this file in release mode at several
//! thread counts (`GEST_TEST_THREADS`), since scheduling-dependent
//! evaluation would be the most likely way to lose bit-identity.

use gest::core::{
    Checkpoint, FaultPolicy, GestConfig, GestError, GestRun, Measurement, OutputWriter,
    PowerMeasurement, CHECKPOINT_FILE, EVAL_CACHE_FILE,
};
use gest::isa::Program;
use gest::sim::MachineConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Evaluation thread count under test; the CI matrix varies this.
fn test_threads() -> usize {
    std::env::var("GEST_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gest_ckpt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpointed_config(dir: &Path, every: u32) -> GestConfig {
    GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(8)
        .individual_size(10)
        .generations(6)
        .seed(4242)
        .threads(test_threads())
        .output_dir(dir)
        .checkpoint_every(every)
        .build()
        .unwrap()
}

#[test]
fn resume_continues_bit_identically_to_an_uninterrupted_run() {
    let dir_killed = temp_dir("killed");
    let dir_full = temp_dir("full");

    // Reference: the same search, never interrupted.
    let full = GestRun::builder()
        .config(checkpointed_config(&dir_full, 3))
        .build()
        .unwrap()
        .run()
        .unwrap();

    // Victim: drive 3 of 6 generations, then drop the run without
    // finishing — the process-kill analogue (the checkpoint at generation
    // 3 is the last durable state).
    {
        let mut run = GestRun::builder()
            .config(checkpointed_config(&dir_killed, 3))
            .build()
            .unwrap();
        for _ in 0..3 {
            run.step().unwrap();
        }
    }
    let manifest = Checkpoint::load(&dir_killed).unwrap();
    assert_eq!(manifest.generation, 3);

    // Resume and run the remaining generations.
    let resumed = GestRun::resume(&dir_killed).unwrap();
    assert_eq!(resumed.generation(), 3);
    let summary = resumed.run().unwrap();

    // Bit-identity: same best individual, same convergence history…
    assert_eq!(summary.generations, 6);
    assert_eq!(summary.best.id, full.best.id);
    assert_eq!(summary.best.genes, full.best.genes);
    assert_eq!(summary.best.fitness.to_bits(), full.best.fitness.to_bits());
    assert_eq!(summary.history.summaries(), full.history.summaries());

    // …and byte-identical population artifacts, including the ones the
    // resumed process re-wrote.
    let killed_files = OutputWriter::population_files(&dir_killed).unwrap();
    let full_files = OutputWriter::population_files(&dir_full).unwrap();
    assert_eq!(killed_files.len(), 6);
    assert_eq!(full_files.len(), 6);
    for (a, b) in killed_files.iter().zip(&full_files) {
        assert_eq!(
            std::fs::read(a).unwrap(),
            std::fs::read(b).unwrap(),
            "{} differs from {}",
            a.display(),
            b.display()
        );
    }
    // The final checkpoints agree too (fingerprints differ only because
    // the two configs name different output directories).
    let killed_manifest = Checkpoint::load(&dir_killed).unwrap();
    let full_manifest = Checkpoint::load(&dir_full).unwrap();
    assert_eq!(killed_manifest.generation, full_manifest.generation);
    assert_eq!(killed_manifest.engine, full_manifest.engine);
    assert_eq!(killed_manifest.history, full_manifest.history);
    assert_eq!(killed_manifest.best, full_manifest.best);

    std::fs::remove_dir_all(&dir_killed).unwrap();
    std::fs::remove_dir_all(&dir_full).unwrap();
}

#[test]
fn eval_cache_keeps_artifacts_byte_identical_at_1_and_4_threads() {
    for threads in [1usize, 4] {
        let dir_cached = temp_dir(&format!("evc_on_{threads}"));
        let dir_plain = temp_dir(&format!("evc_off_{threads}"));
        let config_for = |dir: &Path| {
            GestConfig::builder("cortex-a15")
                .measurement("power")
                .population_size(8)
                .individual_size(10)
                .generations(6)
                .seed(4242)
                .threads(threads)
                .output_dir(dir)
                .checkpoint_every(3)
                .build()
                .unwrap()
        };

        let mut cached = GestRun::builder()
            .config(config_for(&dir_cached))
            .build()
            .unwrap();
        while !cached.is_complete() {
            cached.step().unwrap();
        }
        let stats = cached.eval_cache_stats().expect("cache is on by default");
        assert!(stats.hits > 0, "elite copies must be served from the cache");
        cached.finish();

        GestRun::builder()
            .config(config_for(&dir_plain))
            .eval_cache(false)
            .build()
            .unwrap()
            .run()
            .unwrap();

        let cached_files = OutputWriter::population_files(&dir_cached).unwrap();
        let plain_files = OutputWriter::population_files(&dir_plain).unwrap();
        assert_eq!(cached_files.len(), 6);
        assert_eq!(plain_files.len(), 6);
        for (a, b) in cached_files.iter().zip(&plain_files) {
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "{} (cache on, {threads} threads) differs from {} (cache off)",
                a.display(),
                b.display()
            );
        }
        std::fs::remove_dir_all(&dir_cached).unwrap();
        std::fs::remove_dir_all(&dir_plain).unwrap();
    }
}

#[test]
fn resume_restores_the_persisted_eval_cache() {
    let dir = temp_dir("warmcache");
    {
        let mut run = GestRun::builder()
            .config(checkpointed_config(&dir, 3))
            .build()
            .unwrap();
        for _ in 0..3 {
            run.step().unwrap();
        }
    }
    assert!(
        dir.join(EVAL_CACHE_FILE).exists(),
        "checkpointing persists the evaluation-cache sidecar"
    );
    let mut resumed = GestRun::builder().resume_from(&dir).build().unwrap();
    while !resumed.is_complete() {
        resumed.step().unwrap();
    }
    let stats = resumed.eval_cache_stats().expect("cache is on by default");
    assert!(
        stats.hits > 0,
        "the checkpointed elite must be re-served from the restored cache"
    );
    resumed.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Delegates to the real power measurement until `panic_from` generations
/// have been evaluated, then panics — a measurement plug-in dying mid-run.
#[derive(Debug)]
struct PanicsFromGeneration {
    inner: PowerMeasurement,
    panic_from: u32,
}

impl Measurement for PanicsFromGeneration {
    fn name(&self) -> &'static str {
        "power"
    }
    fn metrics(&self) -> &'static [&'static str] {
        self.inner.metrics()
    }
    fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
        let generation: u32 = program
            .name
            .split('_')
            .next()
            .and_then(|g| g.parse().ok())
            .expect("programs are named {generation}_{id}");
        assert!(generation < self.panic_from, "instrument died");
        self.inner.measure(program)
    }
}

#[test]
fn crash_injected_run_fails_fast_then_resumes_to_the_same_answer() {
    let dir_crashed = temp_dir("crashed");
    let dir_clean = temp_dir("clean");

    let clean = GestRun::builder()
        .config(checkpointed_config(&dir_clean, 2))
        .build()
        .unwrap()
        .run()
        .unwrap();

    // The crashing variant: identical search, but the measurement panics
    // once generation 4 starts evaluating, and the fail-fast policy turns
    // that into a run-level error (after checkpoints at generations 2 and
    // 4 are already on disk).
    let mut config = checkpointed_config(&dir_crashed, 2);
    config.fault_policy = FaultPolicy::fail_fast();
    let crashing = PanicsFromGeneration {
        inner: PowerMeasurement::new(MachineConfig::cortex_a15(), config.run_config),
        panic_from: 4,
    };
    let err = GestRun::builder()
        .config(config)
        .measurement(Arc::new(crashing))
        .build()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(
        matches!(err, GestError::Measurement { .. }),
        "expected a measurement error, got: {err}"
    );
    assert_eq!(Checkpoint::load(&dir_crashed).unwrap().generation, 4);

    // Resume picks the real measurement back up (resolved by name from
    // the directory's config.xml) and finishes identically.
    let summary = GestRun::resume(&dir_crashed).unwrap().run().unwrap();
    assert_eq!(summary.best.genes, clean.best.genes);
    assert_eq!(summary.best.fitness.to_bits(), clean.best.fitness.to_bits());
    assert_eq!(summary.history.summaries(), clean.history.summaries());

    std::fs::remove_dir_all(&dir_crashed).unwrap();
    std::fs::remove_dir_all(&dir_clean).unwrap();
}

#[test]
fn resume_refuses_a_tampered_configuration() {
    let dir = temp_dir("tampered");
    {
        let mut run = GestRun::builder()
            .config(checkpointed_config(&dir, 2))
            .build()
            .unwrap();
        run.step().unwrap();
        run.step().unwrap();
    }
    let config_path = dir.join("config.xml");
    let xml = std::fs::read_to_string(&config_path).unwrap();
    std::fs::write(&config_path, xml.replace("seed=\"4242\"", "seed=\"4243\"")).unwrap();
    let err = GestRun::resume(&dir).unwrap_err();
    assert!(err.to_string().contains("different configuration"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two generations stepped with a checkpoint every two: `checkpoint.bin`
/// names generation 2 and `population_0000.bin`/`population_0001.bin`
/// are on disk.
fn two_generation_checkpoint(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let mut run = GestRun::builder()
        .config(checkpointed_config(&dir, 2))
        .build()
        .unwrap();
    run.step().unwrap();
    run.step().unwrap();
    dir
}

#[test]
fn resume_refuses_a_checkpoint_before_the_first_generation() {
    let dir = two_generation_checkpoint("gen0");
    let mut checkpoint = Checkpoint::load(&dir).unwrap();
    assert_eq!(checkpoint.generation, 2);
    checkpoint.generation = 0;
    checkpoint.save(&dir).unwrap();
    let err = GestRun::resume(&dir).unwrap_err();
    assert!(
        err.to_string()
            .contains("precedes the first completed generation"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_refuses_a_population_file_of_another_generation() {
    let dir = two_generation_checkpoint("wronggen");
    std::fs::copy(
        dir.join("population_0000.bin"),
        dir.join("population_0001.bin"),
    )
    .unwrap();
    let err = GestRun::resume(&dir).unwrap_err();
    assert!(
        err.to_string()
            .contains("holds generation 0 but the checkpoint expects generation 1"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_tmp_files_do_not_confuse_resume() {
    let dir = temp_dir("staletmp");
    {
        let mut run = GestRun::builder()
            .config(checkpointed_config(&dir, 2))
            .build()
            .unwrap();
        run.step().unwrap();
        run.step().unwrap();
    }
    // A crash exactly between `write(tmp)` and `rename` leaves garbage
    // tmp files behind; neither population listing nor checkpoint loading
    // may pick them up.
    std::fs::write(dir.join("checkpoint.bin.tmp"), b"half-written garbage").unwrap();
    std::fs::write(dir.join("population_0002.bin.tmp"), b"torn population").unwrap();
    let files = OutputWriter::population_files(&dir).unwrap();
    assert_eq!(files.len(), 2, "tmp files are not populations: {files:?}");
    let summary = GestRun::resume(&dir).unwrap().run().unwrap();
    assert_eq!(summary.generations, 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_checkpoint_is_a_clean_error() {
    let dir = temp_dir("truncated");
    {
        let mut run = GestRun::builder()
            .config(checkpointed_config(&dir, 2))
            .build()
            .unwrap();
        run.step().unwrap();
        run.step().unwrap();
    }
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = GestRun::resume(&dir).unwrap_err();
    assert!(
        matches!(err, GestError::Codec(_)),
        "truncation must surface as a codec error, got: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_without_a_checkpoint_names_the_fix() {
    let dir = temp_dir("nockpt");
    std::fs::create_dir_all(&dir).unwrap();
    let err = GestRun::resume(&dir).unwrap_err();
    assert!(err.to_string().contains("--checkpoint-every"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
