//! Crash-safe checkpoint manifests for long searches.
//!
//! The paper saves every generation's population precisely so multi-hour
//! campaigns survive interruption; this module adds the missing half — a
//! manifest with everything the population files do *not* capture: the GA
//! RNG stream position, the id allocator, operator counters, the
//! convergence history, and the best-ever individual. Restoring a
//! manifest plus the matching population file continues a run
//! bit-identically to one that was never interrupted (asserted by the
//! `checkpoint_resume` integration tests).
//!
//! # On-disk format
//!
//! `checkpoint.bin` in the run's output directory, written atomically
//! (tmp + rename — see [`crate::output`]):
//!
//! ```text
//! magic   b"GESTCKP1"
//! u32     format version (currently 1)
//! u64     config fingerprint (FNV-1a of the run's config.xml rendering)
//! u32     next generation index to run
//! 4×u64   GA RNG state (xoshiro256** words)
//! u64     next candidate id
//! 5×u64   operator counters (selections, crossovers, mutated genes,
//!         elite copies, random genes)
//! varint  history length, then per generation:
//!         u32 generation, f64 best, f64 mean, u64 best id
//! u8      best-individual flag, then the individual (same encoding as
//!         population files)
//! ```
//!
//! The manifest references the current population only implicitly: the
//! population of generation `generation - 1` must be loadable from the
//! same directory. Populations are written before the manifest each
//! generation, so a crash between the two writes resumes from the older
//! manifest and deterministically re-runs (and harmlessly overwrites) the
//! generations after it.

use crate::error::GestError;
use crate::output::{atomic_write, SavedIndividual, WriteFs};
use gest_ga::{EngineState, GenerationSummary, OpCounts};
use gest_isa::codec::{Decoder, Encoder};
use gest_isa::CodecError;
use std::fs;
use std::path::Path;

/// Magic bytes identifying a checkpoint manifest.
const MAGIC: &[u8; 8] = b"GESTCKP1";

/// Current manifest format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File name of the manifest inside a run's output directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// 64-bit FNV-1a over the run configuration's canonical XML rendering —
/// the fingerprint that ties a manifest to the exact configuration that
/// produced it. Resuming under a different pool, seed, GA setup, or
/// fitness would silently break bit-identity; the fingerprint turns that
/// into a loud [`GestError::Config`].
pub fn config_fingerprint(config_xml: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in config_xml.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything needed to continue a run from the end of a generation,
/// minus the population itself (stored next door in
/// `population_{gen}.bin`).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the configuration this manifest belongs to.
    pub config_fingerprint: u64,
    /// The next generation index to run (= generations completed so far).
    pub generation: u32,
    /// The GA engine's mutable state.
    pub engine: EngineState,
    /// Convergence history up to and including the checkpointed
    /// generation.
    pub history: Vec<GenerationSummary>,
    /// The best individual seen so far, if any generation completed.
    pub best: Option<SavedIndividual>,
}

impl Checkpoint {
    /// Serializes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.bytes(MAGIC);
        enc.u32(CHECKPOINT_VERSION);
        enc.u64(self.config_fingerprint);
        enc.u32(self.generation);
        for word in self.engine.rng {
            enc.u64(word);
        }
        enc.u64(self.engine.next_id);
        enc.u64(self.engine.counts.selections);
        enc.u64(self.engine.counts.crossovers);
        enc.u64(self.engine.counts.mutated_genes);
        enc.u64(self.engine.counts.elite_copies);
        enc.u64(self.engine.counts.random_genes);
        enc.varint(self.history.len() as u64);
        for summary in &self.history {
            enc.u32(summary.generation);
            enc.f64(summary.best_fitness);
            enc.f64(summary.mean_fitness);
            enc.u64(summary.best_id);
        }
        match &self.best {
            None => {
                enc.u8(0);
            }
            Some(best) => {
                enc.u8(1);
                best.encode_into(&mut enc);
            }
        }
        enc.into_bytes()
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for truncated or corrupt input, wrong magic, or a
    /// format version this build does not understand.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CodecError> {
        let mut dec = Decoder::new(bytes);
        let magic = dec.bytes()?;
        if magic != MAGIC {
            return Err(CodecError::Invalid("not a GeST checkpoint manifest".into()));
        }
        let version = dec.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::Invalid(format!(
                "checkpoint format version {version} is not supported \
                 (this build reads version {CHECKPOINT_VERSION})"
            )));
        }
        let config_fingerprint = dec.u64()?;
        let generation = dec.u32()?;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = dec.u64()?;
        }
        let engine = EngineState {
            rng,
            next_id: dec.u64()?,
            counts: OpCounts {
                selections: dec.u64()?,
                crossovers: dec.u64()?,
                mutated_genes: dec.u64()?,
                elite_copies: dec.u64()?,
                random_genes: dec.u64()?,
            },
        };
        // A summary is a u32 and three 8-byte fields.
        let history_len = dec.count(28, "checkpoint history")?;
        let mut history = Vec::with_capacity(history_len);
        for _ in 0..history_len {
            history.push(GenerationSummary {
                generation: dec.u32()?,
                best_fitness: dec.f64()?,
                mean_fitness: dec.f64()?,
                best_id: dec.u64()?,
            });
        }
        let best = match dec.u8()? {
            0 => None,
            1 => Some(SavedIndividual::decode_from(&mut dec)?),
            other => {
                return Err(CodecError::Invalid(format!(
                    "invalid best-individual flag {other}"
                )))
            }
        };
        Ok(Checkpoint {
            config_fingerprint,
            generation,
            engine,
            history,
            best,
        })
    }

    /// Writes the manifest atomically into `dir` as
    /// [`CHECKPOINT_FILE`].
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn save(&self, dir: &Path) -> Result<(), GestError> {
        atomic_write(&dir.join(CHECKPOINT_FILE), &self.encode())?;
        Ok(())
    }

    /// Like [`Checkpoint::save`], but through an explicit [`WriteFs`] —
    /// the seam fault-injection harnesses use to simulate disk-full and
    /// torn writes against the real persistence logic.
    ///
    /// # Errors
    ///
    /// I/O errors from the [`WriteFs`].
    pub fn save_via(&self, dir: &Path, fs: &dyn WriteFs) -> Result<(), GestError> {
        fs.write_atomic(&dir.join(CHECKPOINT_FILE), &self.encode())?;
        Ok(())
    }

    /// Loads the manifest from `dir`.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] when no manifest exists (the directory is not
    /// a checkpointed run); I/O and codec errors otherwise.
    pub fn load(dir: &Path) -> Result<Checkpoint, GestError> {
        let path = dir.join(CHECKPOINT_FILE);
        if !path.exists() {
            return Err(GestError::Config(format!(
                "no checkpoint manifest in {} — was the run started with \
                 checkpointing enabled (e.g. `gest run --checkpoint-every N`)?",
                dir.display()
            )));
        }
        let bytes = fs::read(&path)?;
        Ok(Checkpoint::decode(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_isa::Gene;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            config_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            generation: 42,
            engine: EngineState {
                rng: [1, 2, 3, u64::MAX],
                next_id: 2520,
                counts: OpCounts {
                    selections: 10,
                    crossovers: 5,
                    mutated_genes: 7,
                    elite_copies: 3,
                    random_genes: 480,
                },
            },
            history: (0..42)
                .map(|g| GenerationSummary {
                    generation: g,
                    best_fitness: f64::from(g) * 0.25,
                    mean_fitness: f64::from(g) * 0.125,
                    best_id: u64::from(g) * 7,
                })
                .collect(),
            best: Some(SavedIndividual {
                id: 287,
                parents: (Some(270), None),
                fitness: 10.25,
                measurements: vec![10.25, 0.5],
                genes: vec![Gene {
                    def_index: 0,
                    instrs: gest_isa::asm::parse_block("ADD x1, x2, x3").unwrap().into(),
                }],
            }),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let checkpoint = sample_checkpoint();
        let decoded = Checkpoint::decode(&checkpoint.encode()).unwrap();
        assert_eq!(decoded, checkpoint);

        let mut no_best = sample_checkpoint();
        no_best.best = None;
        no_best.history.clear();
        assert_eq!(Checkpoint::decode(&no_best.encode()).unwrap(), no_best);
    }

    #[test]
    fn bad_magic_and_future_versions_rejected() {
        let mut enc = Encoder::new();
        enc.bytes(b"NOTACKPT");
        assert!(matches!(
            Checkpoint::decode(&enc.into_bytes()),
            Err(CodecError::Invalid(_))
        ));

        let mut enc = Encoder::new();
        enc.bytes(MAGIC);
        enc.u32(99);
        let err = Checkpoint::decode(&enc.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn truncation_is_a_codec_error_not_a_panic() {
        let bytes = sample_checkpoint().encode();
        for len in [0, 4, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Checkpoint::decode(&bytes[..len]).is_err(),
                "truncated to {len} bytes must fail cleanly"
            );
        }
    }

    #[test]
    fn save_load_round_trip_and_missing_manifest() {
        let dir = std::env::temp_dir().join(format!("gest_ckpt_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(Checkpoint::load(&dir), Err(GestError::Config(_))));
        let checkpoint = sample_checkpoint();
        checkpoint.save(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir).unwrap(), checkpoint);
        assert!(
            !dir.join("checkpoint.bin.tmp").exists(),
            "tmp file renamed away"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = config_fingerprint("<gest><target machine=\"cortex-a15\"/></gest>");
        let b = config_fingerprint("<gest><target machine=\"cortex-a15\"/></gest>");
        let c = config_fingerprint("<gest><target machine=\"cortex-a7\"/></gest>");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
