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
//! A second table pins the on-disk `GESTCKP1` checkpoint manifest each
//! search leaves behind, which the population digests do not cover. A
//! third pins the whole artifact tree the search writes: `config.xml`,
//! `template.txt`, every individual's source file, every population file
//! and the manifest.
//!
//! Changing a digest is a deliberate, reviewed act: a mismatch prints the
//! digests the current build produces.

use gest::core::{
    GestConfig, GestConfigBuilder, GestRun, SavedPopulation, CHECKPOINT_FILE, EVAL_CACHE_FILE,
};
use std::path::Path;

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

/// `(machine, measurement, checkpoint-manifest digest)` for the same four
/// searches, checkpointing every generation.
const GOLDEN_CHECKPOINTS: [(&str, &str, u64); 4] = [
    ("cortex-a15", "power", 0x2ad9_139a_d903_05b7),
    ("cortex-a7", "power", 0x39ef_cc46_bab3_471d),
    ("xgene2", "temperature", 0xab6d_6e1d_da6f_ec60),
    ("athlon-x4", "voltage_noise", 0x75c5_723e_600e_4bb9),
];

/// `(machine, measurement, artifact-tree digest)` for the same four
/// searches, checkpointing every generation.
const GOLDEN_ARTIFACT_TREES: [(&str, &str, u64); 4] = [
    ("cortex-a15", "power", 0x8358_35ce_b862_b049),
    ("cortex-a7", "power", 0x4607_c436_1186_b29e),
    ("xgene2", "temperature", 0xab29_3d27_7eb7_bdd6),
    ("athlon-x4", "voltage_noise", 0x3c40_657d_f7f9_b923),
];

fn builder(machine: &str, measurement: &str) -> GestConfigBuilder {
    GestConfig::builder(machine)
        .measurement(measurement)
        .population_size(8)
        .individual_size(10)
        .generations(3)
        .seed(42)
}

fn config(machine: &str, measurement: &str, lane_width: usize) -> GestConfig {
    builder(machine, measurement)
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

/// Byte range of the config fingerprint in a manifest: after the
/// length-prefixed magic (1 + 8 bytes) and the `u32` version.
const FINGERPRINT_BYTES: std::ops::Range<usize> = 13..21;

/// Runs one search with a checkpoint every generation and digests the
/// final `checkpoint.bin` exactly as written. The config fingerprint
/// covers the output directory's path, so those eight bytes are checked
/// against the run's own fingerprint and then zeroed before digesting.
fn checkpoint_digest(machine: &str, measurement: &str, dir: &Path) -> u64 {
    let config = builder(machine, measurement)
        .output_dir(dir)
        .checkpoint_every(1)
        .build()
        .unwrap();
    let mut run = GestRun::builder().config(config).build().unwrap();
    while !run.step().unwrap().is_terminal() {}
    let fingerprint = run.config_fingerprint();
    run.finish();
    let mut bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    assert_eq!(
        bytes[FINGERPRINT_BYTES],
        fingerprint.to_le_bytes(),
        "{machine}: manifest fingerprint"
    );
    bytes[FINGERPRINT_BYTES].fill(0);
    fnv1a64(&bytes)
}

#[test]
fn paper_case_studies_write_the_committed_checkpoint_manifests() {
    let mut mismatches = Vec::new();
    for (machine, measurement, committed) in GOLDEN_CHECKPOINTS {
        let dir =
            std::env::temp_dir().join(format!("gest_golden_ckpt_{machine}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let got = checkpoint_digest(machine, measurement, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        if got != committed {
            mismatches.push(format!(
                "{machine} {measurement}: got {got:#018x}, committed {committed:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Runs one search with a checkpoint every generation and digests its
/// output directory: FNV-1a 64 over the name-sorted `(name, bytes)` list.
/// `evalcache.bin` is left out because it is recency-ordered. The bytes
/// that depend on where the directory lives are normalized: the
/// `<output dir=...>` path in `config.xml` and the manifest's config
/// fingerprint.
fn artifact_tree_digest(machine: &str, measurement: &str, dir: &Path) -> u64 {
    let config = builder(machine, measurement)
        .output_dir(dir)
        .checkpoint_every(1)
        .build()
        .unwrap();
    let mut run = GestRun::builder().config(config).build().unwrap();
    while !run.step().unwrap().is_terminal() {}
    run.finish();
    drop(run);
    let dir_text = dir.display().to_string();
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            let mut bytes = std::fs::read(entry.path()).unwrap();
            if name == "config.xml" {
                let text = String::from_utf8(bytes).unwrap();
                assert!(
                    text.contains(&dir_text),
                    "{machine}: config.xml names its dir"
                );
                bytes = text.replace(&dir_text, "OUTPUT_DIR").into_bytes();
            } else if name == CHECKPOINT_FILE {
                bytes[FINGERPRINT_BYTES].fill(0);
            }
            (name, bytes)
        })
        .filter(|(name, _)| name != EVAL_CACHE_FILE)
        .collect();
    files.sort();
    let sources = files
        .iter()
        .filter(|(name, _)| name.ends_with(".txt"))
        .count();
    // template.txt plus population 8 over 3 generations.
    assert_eq!(sources, 1 + 8 * 3, "{machine}: one source per individual");
    let mut listing = Vec::new();
    for (name, bytes) in &files {
        listing.extend_from_slice(name.as_bytes());
        listing.push(0);
        listing.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        listing.extend_from_slice(bytes);
    }
    fnv1a64(&listing)
}

#[test]
fn paper_case_studies_write_the_committed_artifact_trees() {
    let mut mismatches = Vec::new();
    for (machine, measurement, committed) in GOLDEN_ARTIFACT_TREES {
        let dir =
            std::env::temp_dir().join(format!("gest_golden_tree_{machine}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let got = artifact_tree_digest(machine, measurement, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        if got != committed {
            mismatches.push(format!(
                "{machine} {measurement}: got {got:#018x}, committed {committed:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
