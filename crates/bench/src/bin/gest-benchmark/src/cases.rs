//! The searches every workload runs: each machine model's paper case study
//! at the paper's budget, and the digest that pins a search's result.

use crate::stats::fnv1a64;
use gest::core::{genes_hash, GestConfig, GestError, GestRun, Registry, SavedPopulation};
use gest::isa::InstructionPool;
use std::time::Instant;

/// One machine's case study from the paper.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Machine preset name.
    pub machine: &'static str,
    /// Measurement plug-in the paper's search on this machine used.
    pub measurement: &'static str,
    /// Loop length (individual size).
    pub loop_len: usize,
}

/// Power viruses on the two ARM cores, the temperature-driven power virus
/// on X-Gene2 (paper Figure 7), and the dI/dt virus on the Athlon model,
/// whose loop of 46 follows the paper's PDN-resonance rule of thumb.
pub const CASES: [Case; 4] = [
    Case {
        machine: "cortex-a15",
        measurement: "power",
        loop_len: 50,
    },
    Case {
        machine: "cortex-a7",
        measurement: "power",
        loop_len: 50,
    },
    Case {
        machine: "xgene2",
        measurement: "temperature",
        loop_len: 50,
    },
    Case {
        machine: "athlon-x4",
        measurement: "voltage_noise",
        loop_len: 46,
    },
];

/// Population, generations and (optionally) one loop length for every
/// case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Individuals per generation.
    pub population: usize,
    /// Generations per search.
    pub generations: u32,
    /// Overrides every case's loop length when set.
    pub loop_len: Option<usize>,
}

impl Budget {
    /// The paper's budget: population 50, 80 generations, each case's own
    /// loop length.
    pub const PAPER: Budget = Budget {
        population: 50,
        generations: 80,
        loop_len: None,
    };

    /// Candidates one search evaluates, cache hits included.
    pub fn candidates(&self) -> u64 {
        self.population as u64 * u64::from(self.generations)
    }
}

impl Case {
    /// The search configuration for `seed`: evaluation on every available
    /// thread, default lane width, no output directory.
    ///
    /// # Errors
    ///
    /// Configuration errors from the builder.
    pub fn config(&self, budget: Budget, seed: u64) -> Result<GestConfig, GestError> {
        GestConfig::builder(self.machine)
            .measurement(self.measurement)
            .population_size(budget.population)
            .individual_size(budget.loop_len.unwrap_or(self.loop_len))
            .generations(budget.generations)
            .seed(seed)
            .build()
    }
}

/// The GA seed of round `round` of a run seeded with `seed`: the run seed
/// itself for round 0 (so every workload's first round searches the same
/// inputs and their digests compare), then SplitMix64-derived seeds, so a
/// run's median spans many searches instead of one search's luck.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Kept below 2^53 so the seed survives any JSON number on its way.
    (z ^ (z >> 31)) >> 11
}

/// Re-measures every individual of a final population in-process and
/// requires each stored measurement to match bit for bit: whatever path
/// produced the population (cache hits, remote workers, a service that
/// evicted and resumed it), what it reports must be what the simulator
/// says about those programs.
///
/// # Errors
///
/// A message naming the first individual that does not re-measure.
pub fn audit(config: &GestConfig, population: &SavedPopulation) -> Result<(), String> {
    let measurement = Registry::default()
        .build_measurement(
            &config.measurement_name,
            config.machine.clone(),
            config.run_config,
        )
        .map_err(|e| e.to_string())?;
    let programs: Vec<_> = population
        .individuals
        .iter()
        .map(|individual| {
            config
                .template
                .materialize("audit", InstructionPool::flatten(&individual.genes))
        })
        .collect();
    let measured = measurement.measure_batch_detailed(&programs);
    for (individual, result) in population.individuals.iter().zip(measured) {
        let (values, _) = result.map_err(|e| format!("individual {}: {e}", individual.id))?;
        let same = values.len() == individual.measurements.len()
            && values
                .iter()
                .zip(&individual.measurements)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "{} individual {} stores {:?} but re-measures {values:?}",
                config.machine.name, individual.id, individual.measurements
            ));
        }
    }
    Ok(())
}

/// What stepping one search to completion observed.
#[derive(Debug, Clone)]
pub struct Stepped {
    /// Host time of each `step()` call, in milliseconds.
    pub generation_ms: Vec<f64>,
    /// The final population, as a population file stores it.
    pub population: SavedPopulation,
    /// Gene-content hash of every evaluated individual, in order, when
    /// asked for: the key stream the cache microbenchmark replays.
    pub genes: Vec<u128>,
}

impl Stepped {
    /// Digest of the final population: FNV-1a 64 over its population-file
    /// encoding, so in-process searches and saved `population_*.bin` files
    /// compare directly.
    pub fn digest(&self) -> u64 {
        fnv1a64(&self.population.encode())
    }
}

/// Steps `run` until its budget is spent, timing each generation.
///
/// # Errors
///
/// The first error a generation returns.
pub fn step_to_end(mut run: GestRun, keep_genes: bool) -> Result<Stepped, GestError> {
    let mut generation_ms = Vec::new();
    let mut genes = Vec::new();
    loop {
        let started = Instant::now();
        let outcome = run.step()?;
        generation_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let population = run.population().expect("a stepped search has a population");
        if keep_genes {
            genes.extend(
                population
                    .individuals
                    .iter()
                    .map(|individual| genes_hash(&individual.genes)),
            );
        }
        if outcome.is_terminal() {
            let population = SavedPopulation::from_population(population);
            run.finish();
            return Ok(Stepped {
                generation_ms,
                population,
                genes,
            });
        }
    }
}

/// The seed whose final-population digests at the paper budget are
/// committed in `golden_seed42.txt`.
pub const GOLDEN_SEED: u64 = 42;

/// Parses `golden_seed42.txt` (`machine digest-hex` per line): a change
/// that moves one of these changes what the searches produce.
pub fn golden_digests() -> Vec<(String, u64)> {
    include_str!("../golden_seed42.txt")
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let machine = fields.next().expect("golden line has a machine");
            let digest = fields.next().expect("golden line has a digest");
            (
                machine.to_string(),
                u64::from_str_radix(digest, 16).expect("golden digest is hex"),
            )
        })
        .collect()
}
