//! The background artifact write: `GestRun::step` hands each generation's
//! files to a writer thread and returns, and every call that needs those
//! files joins the write first. These tests pin the four promises that
//! keeps: a failed write is reported, never swallowed; dropping a run
//! leaves every generation it stepped on disk; a checkpoint manifest never
//! lands before the population file it names; and a run that reported
//! `Budget` has all its files.

use gest::core::{
    Checkpoint, GestConfig, GestError, GestRun, OutputWriter, SavedPopulation, StepOutcome,
    CHECKPOINT_FILE,
};
use std::path::{Path, PathBuf};

const POPULATION: usize = 6;

/// Evaluation thread count under test; the CI determinism matrix varies
/// this.
fn test_threads() -> usize {
    std::env::var("GEST_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gest_artifact_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_in(dir: &Path, generations: u32) -> GestRun {
    let mut config = GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(POPULATION)
        .individual_size(8)
        .generations(generations)
        .seed(77)
        .threads(test_threads())
        .output_dir(dir)
        .build()
        .unwrap();
    // Short cycle budgets keep debug-mode runs quick.
    config.run_config.max_iterations = 40;
    config.run_config.max_cycles = 3000;
    GestRun::builder().config(config).build().unwrap()
}

/// Asserts generation `generation` is completely on disk: its population
/// file decodes to that generation, and every individual has a source
/// file.
fn assert_generation_on_disk(dir: &Path, generation: u32) {
    let path = dir.join(format!("population_{generation:04}.bin"));
    let saved =
        SavedPopulation::load(&path).unwrap_or_else(|error| panic!("{}: {error}", path.display()));
    assert_eq!(saved.generation, generation);
    assert_eq!(saved.individuals.len(), POPULATION);
    let prefix = format!("{generation}_");
    let sources = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| entry.unwrap().file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix) && name.ends_with(".txt"))
        .count();
    assert_eq!(sources, POPULATION, "generation {generation} sources");
}

#[test]
fn a_failed_write_surfaces_from_the_next_checkpoint() {
    let dir = temp_dir("error");
    let mut run = run_in(&dir, 10);
    run.step().unwrap();
    run.checkpoint_now().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    // The step only hands its generation off; the write fails behind it.
    assert_eq!(run.step().unwrap(), StepOutcome::Progressed);
    let error = run.checkpoint_now().unwrap_err();
    assert!(matches!(error, GestError::Io(_)), "{error}");
    assert!(error.is_transient());
    // The failure is sticky: a retry cannot write a manifest that names
    // the missing population file.
    assert!(matches!(run.checkpoint_now(), Err(GestError::Io(_))));
    assert!(matches!(run.step(), Err(GestError::Io(_))));
    assert!(!dir.join(CHECKPOINT_FILE).exists());
    run.finish();
}

#[test]
fn dropping_a_run_leaves_every_stepped_generation_on_disk() {
    let dir = temp_dir("drop");
    let stepped = 4;
    {
        let mut run = run_in(&dir, 10);
        for _ in 0..stepped {
            run.step().unwrap();
        }
    }
    for generation in 0..stepped {
        assert_generation_on_disk(&dir, generation);
    }
    assert_eq!(
        OutputWriter::population_files(&dir).unwrap().len(),
        stepped as usize
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_checkpoint_lands_after_the_population_it_names() {
    let dir = temp_dir("order");
    let mut run = run_in(&dir, 5);
    while !run.step().unwrap().is_terminal() {
        run.checkpoint_now().unwrap();
        let manifest = Checkpoint::load(&dir).unwrap();
        assert_eq!(manifest.generation, run.generation());
        assert_generation_on_disk(&dir, manifest.generation - 1);
    }
    run.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_budget_step_returns_with_the_final_generation_on_disk() {
    let dir = temp_dir("budget");
    let generations = 3;
    let mut run = run_in(&dir, generations);
    let mut outcome = StepOutcome::Progressed;
    while !outcome.is_terminal() {
        outcome = run.step().unwrap();
    }
    // Checked while the run is still alive: no finish, no drop.
    for generation in 0..generations {
        assert_generation_on_disk(&dir, generation);
    }
    run.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}
