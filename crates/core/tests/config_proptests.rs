//! Property tests over the framework configuration layer: XML round-trips
//! for arbitrary GA settings and robustness against mangled input.

use gest_core::{FaultPolicy, GestConfig};
use gest_ga::{CrossoverOp, SelectionOp};
use gest_sim::RunConfig;
use proptest::prelude::*;

fn machine_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["cortex-a15", "cortex-a7", "xgene2", "athlon-x4"])
}

/// `Some` of a drawn value half of the time.
fn optional<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, value)| some.then_some(value))
}

/// The default hold (never written), the hold of the resume tests, or any
/// other.
fn thermal_hold_strategy() -> impl Strategy<Value = f64> {
    (0u8..3, 0.0f64..120.0).prop_map(|(pick, any)| match pick {
        0 => RunConfig::quick().thermal_hold_s,
        1 => 0.5,
        _ => any,
    })
}

proptest! {
    /// `config.xml` is the whole configuration: every setting survives
    /// rendering and parsing, so resume, serve and the worker fleet rebuild
    /// exactly the search that was configured. The execution details
    /// (`threads`, `lane_width`, `eval_cache_bytes`) stay at their defaults.
    #[test]
    fn builder_to_xml_round_trips(
        machine in machine_strategy(),
        (measurement, fitness) in ("[a-z_]{0,12}", "[a-z_]{0,12}"),
        (population, individual, mutation_rate, uniform, elitism, tournament) in
            (2usize..100, 1usize..80, 0.0f64..=1.0, any::<bool>(), any::<bool>(), 1usize..12),
        (generations, seed) in (1u32..200, any::<u64>()),
        (max_iterations, max_cycles, thermal_hold_s, checkpoint_every) in
            (any::<u64>(), any::<u64>(), thermal_hold_strategy(), optional(1u32..1000)),
        (max_retries, backoff_base_ms, deadline_ms, watchdog_ms, quarantine) in (
            any::<u32>(),
            any::<u64>(),
            optional(any::<u64>()),
            optional(any::<u64>()),
            any::<bool>(),
        ),
        (output_dir, seed_population) in (optional("[ -~]{0,16}"), optional("[ -~]{0,16}")),
    ) {
        let mut builder = GestConfig::builder(machine)
            .measurement(&measurement)
            .fitness(&fitness)
            .population_size(population)
            .individual_size(individual)
            .mutation_rate(mutation_rate)
            .crossover(if uniform { CrossoverOp::Uniform } else { CrossoverOp::OnePoint })
            .elitism(elitism)
            .generations(generations)
            .seed(seed)
            .fault_policy(FaultPolicy {
                max_retries,
                backoff_base_ms,
                deadline_ms,
                watchdog_ms,
                quarantine,
            });
        if let Some(every) = checkpoint_every {
            builder = builder.checkpoint_every(every);
        }
        if let Some(dir) = output_dir {
            builder = builder.output_dir(dir);
        }
        if let Some(file) = seed_population {
            builder = builder.seed_population(file);
        }
        let mut config = builder.build().unwrap();
        config.ga.selection = SelectionOp::Tournament { size: tournament };
        config.run_config.max_iterations = max_iterations;
        config.run_config.max_cycles = max_cycles;
        config.run_config.thermal_hold_s = thermal_hold_s;

        let reparsed = GestConfig::from_xml_str(&config.to_xml().to_string()).unwrap();
        prop_assert_eq!(&reparsed, &config);
        prop_assert_eq!(reparsed.fingerprint(), config.fingerprint());
    }

    #[test]
    fn from_xml_never_panics_on_mangled_config(
        mutation_index in 0usize..512,
        replacement in "[ -~]{0,8}",
    ) {
        // Start from a valid config and splice arbitrary ASCII into it.
        let base = GestConfig::builder("cortex-a15").build().unwrap().to_xml().to_string();
        let index = mutation_index.min(base.len());
        let mut mangled = String::with_capacity(base.len() + replacement.len());
        mangled.push_str(&base[..index]);
        mangled.push_str(&replacement);
        // Keep UTF-8 boundaries safe: base is ASCII (to_xml emits ASCII for
        // the default pool).
        mangled.push_str(&base[index..]);
        let _ = GestConfig::from_xml_str(&mangled); // must not panic
    }

    #[test]
    fn invalid_ga_numbers_are_config_errors(population in 0usize..2) {
        let xml = format!(
            r#"<gest><target machine="xgene2"/><ga population_size="{population}"/></gest>"#
        );
        prop_assert!(GestConfig::from_xml_str(&xml).is_err());
    }
}
