//! Absolute golden digests: the four paper case studies at a tier-1
//! budget must keep producing exactly the committed bytes.
//!
//! The other determinism suites are *relative* — run A must match run B
//! under the same build — so a refactor that moves both sides the same
//! way still passes them. These digests pin the output itself: FNV-1a 64
//! over the final population's population-file encoding and over the
//! final best individual's measurement bits. Each search runs at lane
//! widths 1 and 4, which must agree with each other and with the table.
//!
//! Changing a digest is a deliberate, reviewed act: a mismatch prints the
//! digests the current build produces.

use gest::core::{GestConfig, GestRun, SavedPopulation};

/// FNV-1a 64 over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(machine, measurement, final-population digest, best-measurement digest)`
/// at population 8, loop 10, 3 generations, seed 42.
const GOLDEN: [(&str, &str, u64, u64); 4] = [
    (
        "cortex-a15",
        "power",
        0xb1b3_5a42_d9ab_8e79,
        0x08bd_f2af_aaf7_861e,
    ),
    (
        "cortex-a7",
        "power",
        0xf85d_5b50_088d_9cea,
        0xb727_b939_ce20_4bf1,
    ),
    (
        "xgene2",
        "temperature",
        0x3252_756b_d755_b897,
        0x66cd_cdf4_4070_b2bb,
    ),
    (
        "athlon-x4",
        "voltage_noise",
        0x0166_177d_aa33_385e,
        0x8e68_8efa_e427_684a,
    ),
];

fn config(machine: &str, measurement: &str, lane_width: usize) -> GestConfig {
    GestConfig::builder(machine)
        .measurement(measurement)
        .population_size(8)
        .individual_size(10)
        .generations(3)
        .seed(42)
        .lane_width(lane_width)
        .build()
        .unwrap()
}

/// Steps one search to its budget and digests what it produced.
fn digests(config: GestConfig) -> (u64, u64) {
    let mut run = GestRun::builder().config(config).build().unwrap();
    while !run.step().unwrap().is_terminal() {}
    let population = SavedPopulation::from_population(run.population().unwrap());
    let best_bits: Vec<u8> = run
        .best()
        .unwrap()
        .measurements
        .iter()
        .flat_map(|value| value.to_bits().to_le_bytes())
        .collect();
    run.finish();
    (fnv1a64(&population.encode()), fnv1a64(&best_bits))
}

#[test]
fn paper_case_studies_match_committed_digests_at_lane_widths_1_and_4() {
    let mut mismatches = Vec::new();
    for (machine, measurement, population, best) in GOLDEN {
        for width in [1, 4] {
            let got = digests(config(machine, measurement, width));
            if got != (population, best) {
                mismatches.push(format!(
                    "{machine} {measurement} width {width}: got ({:#018x}, {:#018x}), \
                     committed ({population:#018x}, {best:#018x})",
                    got.0, got.1
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
