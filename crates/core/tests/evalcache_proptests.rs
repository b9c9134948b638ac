//! Property tests for the evaluation cache: a search with the cache
//! enabled must be observationally identical — fitness and measurement
//! bits included — to the same search evaluated fresh, on every machine
//! model, for arbitrary seeds; and the cache key must hash exactly the
//! canonical gene bytes.

use gest_core::{genes_hash, GestConfig, GestRun};
use gest_isa::codec::Encoder;
use gest_isa::Gene;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs a small search and flattens every individual of every generation
/// into comparable bits: (generation, id, fitness bits, measurement bits).
fn evaluate(machine: &str, seed: u64, cache: bool) -> Vec<(u32, u64, u64, Vec<u64>)> {
    let mut config = GestConfig::builder(machine)
        .measurement("power")
        .population_size(6)
        .individual_size(8)
        .generations(3)
        .seed(seed)
        .build()
        .unwrap();
    // Short cycle budgets keep debug-mode property runs quick.
    config.run_config.max_iterations = 40;
    config.run_config.max_cycles = 3000;
    let mut run = GestRun::builder()
        .config(config)
        .eval_cache(cache)
        .build()
        .unwrap();
    let mut rows = Vec::new();
    while !run.is_complete() {
        run.step().unwrap();
        let population = run.population().unwrap();
        for individual in &population.individuals {
            rows.push((
                population.generation,
                individual.id,
                individual.fitness.to_bits(),
                individual
                    .measurements
                    .iter()
                    .map(|m| m.to_bits())
                    .collect(),
            ));
        }
    }
    if cache {
        let stats = run.eval_cache_stats().expect("power is content-pure");
        assert_eq!(
            stats.hits + stats.misses,
            rows.len() as u64,
            "every evaluation consults the cache"
        );
    }
    run.finish();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cached_and_fresh_evaluation_are_bit_identical(seed in 0u64..1_000_000) {
        for machine in ["cortex-a15", "cortex-a7", "xgene2", "athlon-x4"] {
            let cached = evaluate(machine, seed, true);
            let fresh = evaluate(machine, seed, false);
            prop_assert_eq!(&cached, &fresh, "machine {}", machine);
        }
    }
}

/// The canonical gene encoding written out field by field into a byte
/// buffer, then hashed in one call — the reference the streamed
/// [`genes_hash`] must reproduce.
fn buffered_hash(genes: &[Gene]) -> u128 {
    let mut enc = Encoder::new();
    enc.varint(genes.len() as u64);
    for gene in genes {
        enc.varint(gene.def_index as u64);
        enc.instructions(&gene.instrs);
    }
    gest_ga::canonical_hash_bytes(&enc.into_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_genes_hash_equals_the_buffered_encoding_hash(
        machine in prop::sample::select(vec!["cortex-a15", "cortex-a7", "xgene2", "athlon-x4"]),
        seed in any::<u64>(),
        len in 0usize..80,
    ) {
        let pool = GestConfig::builder(machine).build().unwrap().pool;
        let mut rng = StdRng::seed_from_u64(seed);
        let genes: Vec<Gene> = (0..len).map(|_| pool.random_gene(&mut rng)).collect();
        prop_assert_eq!(genes_hash(&genes), buffered_hash(&genes));
    }
}
