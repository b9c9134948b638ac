//! Run outputs (paper §III.D).
//!
//! * Every individual's source code is saved to its own file, named
//!   `{generation}_{id}_{measurement1}_{measurement2}....txt` — "by
//!   default, the first measurement is the fitness value, this naming
//!   convention facilitates the quick retrieval of the fittest individual
//!   using basic UNIX commands".
//! * Every generation is additionally saved to a binary population file
//!   containing source, ids, parent ids, and measurement values, loadable
//!   for post-processing ([`crate::stats`]) or as the seed population of a
//!   new search.
//! * The configuration and template are copied into the output directory
//!   for record-keeping.
//!
//! A generation's files are written on a background thread while the
//! search goes on (see [`OutputWriter::save_generation`]); at most one
//! such write is in flight per writer.

use crate::config::GestConfig;
use crate::error::GestError;
use gest_ga::{Evaluated, Population};
use gest_isa::codec::{Decoder, Encoder};
use gest_isa::{CodecError, Gene, InstructionPool, Template};
use gest_telemetry::Telemetry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Magic bytes identifying a population file.
const MAGIC: &[u8; 8] = b"GESTPOP1";

/// Collision-free run-directory ids: `r<prefix>-<seq>`, where the prefix
/// is derived from a seed (stable across restarts of the same service)
/// and the sequence number is monotonic within the allocator.
///
/// `gest-serve` names every submitted run's directory through one of
/// these; `gest run` falls back to one when neither `--dir` nor an
/// `<output dir=...>` element names a directory. Ids are made
/// collision-free on disk by [`RunIdAllocator::allocate_dir`], which
/// skips sequence numbers whose directory already exists (so a restarted
/// allocator continues monotonically past its predecessor's runs).
#[derive(Debug)]
pub struct RunIdAllocator {
    prefix: String,
    next: AtomicU64,
}

impl RunIdAllocator {
    /// An allocator whose id prefix is derived deterministically from
    /// `seed` (FNV-1a over the seed bytes, rendered as 8 hex digits).
    pub fn seeded(seed: u64) -> RunIdAllocator {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in seed.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RunIdAllocator {
            prefix: format!("{:08x}", (hash >> 32) as u32 ^ hash as u32),
            next: AtomicU64::new(0),
        }
    }

    /// An allocator seeded from process id and wall-clock time — for
    /// callers without a natural seed (`gest run` with no directory).
    pub fn from_entropy() -> RunIdAllocator {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        RunIdAllocator::seeded(nanos ^ (u64::from(std::process::id()) << 32))
    }

    /// Advances the sequence so the next issued number is at least
    /// `floor` — how a restarted service skips ids its predecessor
    /// already handed out.
    pub fn advance_past(&self, floor: u64) {
        self.next.fetch_max(floor, Ordering::Relaxed);
    }

    /// The next id in the sequence (no filesystem interaction).
    pub fn next_id(&self) -> String {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        format!("r{}-{seq:04}", self.prefix)
    }

    /// Allocates the next id whose directory under `root` does not exist
    /// yet, creates that directory, and returns `(id, path)`. Existing
    /// directories (from an earlier service incarnation with the same
    /// seed) are skipped, keeping the sequence monotonic across restarts.
    ///
    /// # Errors
    ///
    /// I/O errors creating `root` or the run directory.
    pub fn allocate_dir(&self, root: &Path) -> Result<(String, PathBuf), GestError> {
        fs::create_dir_all(root)?;
        loop {
            let id = self.next_id();
            let dir = root.join(&id);
            match fs::create_dir(&dir) {
                Ok(()) => return Ok((id, dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// One individual as stored in a population file.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedIndividual {
    /// Run-unique id.
    pub id: u64,
    /// Parent ids (0 encodes "none" on disk; `None` here).
    pub parents: (Option<u64>, Option<u64>),
    /// Fitness value.
    pub fitness: f64,
    /// Measurement values in metric order.
    pub measurements: Vec<f64>,
    /// The instruction genes.
    pub genes: Vec<Gene>,
}

/// One generation as stored in a population file.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedPopulation {
    /// Generation number.
    pub generation: u32,
    /// All individuals.
    pub individuals: Vec<SavedIndividual>,
}

impl SavedIndividual {
    /// Serializes one individual (shared by population files and
    /// checkpoint manifests).
    pub(crate) fn encode_into(&self, enc: &mut Encoder) {
        enc.u64(self.id);
        enc.u64(self.parents.0.map_or(u64::MAX, |p| p));
        enc.u64(self.parents.1.map_or(u64::MAX, |p| p));
        enc.f64(self.fitness);
        enc.varint(self.measurements.len() as u64);
        for &m in &self.measurements {
            enc.f64(m);
        }
        enc.genes(&self.genes);
    }

    /// Deserializes one individual.
    pub(crate) fn decode_from(dec: &mut Decoder<'_>) -> Result<SavedIndividual, CodecError> {
        let id = dec.u64()?;
        let parent0 = dec.u64()?;
        let parent1 = dec.u64()?;
        let fitness = dec.f64()?;
        let n_measurements = dec.count(8, "measurements")?;
        let mut measurements = Vec::with_capacity(n_measurements);
        for _ in 0..n_measurements {
            measurements.push(dec.f64()?);
        }
        // A gene is at least its definition index and instruction count.
        let n_genes = dec.count(2, "genes")?;
        let mut genes = Vec::with_capacity(n_genes);
        for _ in 0..n_genes {
            let gene = dec.gene()?;
            if gene.is_empty() {
                return Err(CodecError::Invalid("gene with no instructions".into()));
            }
            genes.push(gene);
        }
        Ok(SavedIndividual {
            id,
            parents: (
                (parent0 != u64::MAX).then_some(parent0),
                (parent1 != u64::MAX).then_some(parent1),
            ),
            fitness,
            measurements,
            genes,
        })
    }

    /// Converts back to an evaluated individual (the inverse of the
    /// conversion in [`SavedPopulation::from_population`]).
    pub fn to_evaluated(&self) -> Evaluated<Gene> {
        Evaluated {
            id: self.id,
            parents: self.parents,
            genes: self.genes.clone(),
            fitness: self.fitness,
            measurements: self.measurements.clone(),
        }
    }
}

impl SavedPopulation {
    /// Converts an evaluated population for saving.
    pub fn from_population(population: &Population<Gene>) -> SavedPopulation {
        SavedPopulation {
            generation: population.generation,
            individuals: population
                .individuals
                .iter()
                .map(|e| SavedIndividual {
                    id: e.id,
                    parents: e.parents,
                    fitness: e.fitness,
                    measurements: e.measurements.clone(),
                    genes: e.genes.clone(),
                })
                .collect(),
        }
    }

    /// Serializes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.bytes(MAGIC);
        enc.u32(self.generation);
        enc.varint(self.individuals.len() as u64);
        for individual in &self.individuals {
            individual.encode_into(&mut enc);
        }
        enc.into_bytes()
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for truncated, corrupt, or non-population input.
    pub fn decode(bytes: &[u8]) -> Result<SavedPopulation, CodecError> {
        let mut dec = Decoder::new(bytes);
        let magic = dec.bytes()?;
        if magic != MAGIC {
            return Err(CodecError::Invalid("not a GeST population file".into()));
        }
        let generation = dec.u32()?;
        // An individual is at least four 8-byte fields and two counts.
        let count = dec.count(34, "individuals")?;
        let mut individuals = Vec::with_capacity(count);
        for _ in 0..count {
            individuals.push(SavedIndividual::decode_from(&mut dec)?);
        }
        Ok(SavedPopulation {
            generation,
            individuals,
        })
    }

    /// Converts back into a live evaluated population, exactly as it was
    /// when saved — the restore path of checkpoint/resume. Unlike
    /// [`SavedPopulation::seed_genes`] this performs no pool re-binding:
    /// resuming is only valid against the identical configuration, which
    /// [`crate::Checkpoint`] verifies by fingerprint.
    pub fn to_population(&self) -> Population<Gene> {
        Population {
            generation: self.generation,
            individuals: self
                .individuals
                .iter()
                .map(SavedIndividual::to_evaluated)
                .collect(),
        }
    }

    /// Loads a population file from disk.
    ///
    /// # Errors
    ///
    /// I/O and codec errors.
    pub fn load(path: &Path) -> Result<SavedPopulation, GestError> {
        let bytes = fs::read(path)?;
        Ok(SavedPopulation::decode(&bytes)?)
    }

    /// Extracts the gene sequences, re-binding each gene to `pool` (a seed
    /// file may come from a run with a different pool). Genes whose
    /// instruction no longer matches any definition are dropped; callers
    /// pad with random genes.
    pub fn seed_genes(&self, pool: &InstructionPool) -> Vec<Vec<Gene>> {
        self.individuals
            .iter()
            .map(|individual| {
                individual
                    .genes
                    .iter()
                    .filter_map(|gene| {
                        pool.match_def_seq(&gene.instrs).map(|def_index| Gene {
                            def_index,
                            instrs: gene.instrs.clone(),
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// The fittest saved individual, if any.
    pub fn best(&self) -> Option<&SavedIndividual> {
        self.individuals
            .iter()
            .reduce(|best, x| if x.fitness > best.fitness { x } else { best })
    }
}

/// The write seam used by checkpoint manifests and eval-cache sidecars.
///
/// Production code uses [`RealFs`] (atomic tmp + rename); fault-injection
/// harnesses (`gest-chaos`) substitute a shim that simulates disk-full
/// errors, torn writes, and silent corruption without touching the real
/// persistence code paths.
pub trait WriteFs: Send + Sync + std::fmt::Debug {
    /// Writes `bytes` to `path` with whole-file atomicity (a reader never
    /// observes a half-written file under the final name).
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying filesystem.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
}

/// The production [`WriteFs`]: delegates to the crate's atomic
/// tmp + rename write.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl WriteFs for RealFs {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        atomic_write(path, bytes)
    }
}

/// Writes `bytes` to `path` atomically: the content lands in a `.tmp`
/// sibling first and is renamed into place, so a crash mid-write leaves
/// either the old file or the new one, never a truncated hybrid. The
/// durable artifacts of a run (population files, checkpoint manifests) all
/// go through this.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.tmp"),
        None => "tmp".to_string(),
    });
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Writes run outputs to a directory.
///
/// [`OutputWriter::save_generation`] hands each generation to a background
/// thread and returns; at most one such write is in flight. Every call
/// that needs the files on disk first joins it through
/// [`OutputWriter::wait`], and dropping the writer joins it too. The first
/// failed write is sticky: every later `save_generation` and `wait`
/// reports it again, so no checkpoint manifest can ever name a population
/// file that did not land.
#[derive(Debug)]
pub struct OutputWriter {
    dir: PathBuf,
    pending: Mutex<Pending>,
}

/// The in-flight generation write and the first write failure.
#[derive(Debug, Default)]
struct Pending {
    write: Option<JoinHandle<io::Result<()>>>,
    failed: Option<(io::ErrorKind, String)>,
}

impl Pending {
    /// Joins the in-flight write, if any; `Err` when it or any earlier
    /// write failed.
    fn join(&mut self) -> Result<(), GestError> {
        if let Some(write) = self.write.take() {
            let outcome = write
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("the artifact writer thread panicked")));
            if let Err(error) = outcome {
                self.failed.get_or_insert((error.kind(), error.to_string()));
            }
        }
        match &self.failed {
            Some((kind, message)) => Err(GestError::Io(io::Error::new(*kind, message.clone()))),
            None => Ok(()),
        }
    }
}

impl OutputWriter {
    /// Creates the output directory (and parents) and records the
    /// configuration and template, like the paper's record-keeping copies.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing files.
    pub fn new(
        dir: &Path,
        config: &GestConfig,
        template: &Template,
    ) -> Result<OutputWriter, GestError> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join("config.xml"), config.to_xml().to_string())?;
        let template_program = template.materialize("template", Vec::new());
        fs::write(dir.join("template.txt"), template_program.to_string())?;
        Ok(OutputWriter {
            dir: dir.to_owned(),
            pending: Mutex::default(),
        })
    }

    /// Reopens an existing output directory without rewriting the
    /// record-keeping files — the resume path, where `config.xml` and
    /// `template.txt` are the previous run's record and must stay
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// [`GestError::Io`] when the directory does not exist.
    pub fn reopen(dir: &Path) -> Result<OutputWriter, GestError> {
        if !dir.is_dir() {
            return Err(GestError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("output directory {} does not exist", dir.display()),
            )));
        }
        Ok(OutputWriter {
            dir: dir.to_owned(),
            pending: Mutex::default(),
        })
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn pending(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Saves one evaluated generation — per-individual source files plus
    /// the binary population file — on a background thread, after joining
    /// the previous generation's write. The thread records an
    /// `output.write` span tagged with the generation.
    ///
    /// # Errors
    ///
    /// [`GestError::Io`] when the previous write (or any earlier one)
    /// failed, or the thread cannot be spawned. A failure of this
    /// generation's write surfaces from the next call that joins it.
    pub fn save_generation(
        &self,
        population: Arc<Population<Gene>>,
        pool: Arc<InstructionPool>,
        template: Template,
        telemetry: Telemetry,
    ) -> Result<(), GestError> {
        let mut pending = self.pending();
        pending.join()?;
        let dir = self.dir.clone();
        let write = std::thread::Builder::new()
            .name("gest-output".into())
            .spawn(move || {
                let _span = telemetry.span_with(
                    "output.write",
                    &[("generation", u64::from(population.generation).into())],
                );
                write_generation(&dir, &population, &pool, &template)
            })?;
        pending.write = Some(write);
        Ok(())
    }

    /// Waits for the in-flight generation write, if any.
    ///
    /// # Errors
    ///
    /// [`GestError::Io`] when it or any earlier write failed.
    pub fn wait(&self) -> Result<(), GestError> {
        self.pending().join()
    }

    /// Lists saved population files in generation order.
    ///
    /// # Errors
    ///
    /// I/O errors reading the directory.
    pub fn population_files(dir: &Path) -> Result<Vec<PathBuf>, GestError> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|path| {
                path.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("population_") && n.ends_with(".bin"))
            })
            .collect();
        // Sort by parsed generation number: lexicographic order breaks once
        // the zero-padded width is exceeded.
        files.sort_by_key(|path| {
            path.file_stem()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("population_"))
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(u64::MAX)
        });
        Ok(files)
    }
}

impl Drop for OutputWriter {
    fn drop(&mut self) {
        // Whoever needed the error has joined already; this only makes
        // sure no write outlives its writer.
        let _ = self.pending().join();
    }
}

/// Writes one generation's files into `dir`: every individual's source,
/// named `{generation}_{id}_{m1}_{m2}….txt`, then the population file.
fn write_generation(
    dir: &Path,
    population: &Population<Gene>,
    pool: &InstructionPool,
    template: &Template,
) -> io::Result<()> {
    for individual in &population.individuals {
        let mut name = format!("{}_{}", population.generation, individual.id);
        for m in &individual.measurements {
            name.push_str(&format!("_{m:.3}"));
        }
        name.push_str(".txt");
        let body = InstructionPool::flatten(&individual.genes);
        let program =
            template.materialize(format!("{}_{}", population.generation, individual.id), body);
        let mut source = program.to_string();
        // Custom per-definition formats, if any, are recorded after the
        // canonical source as a comment block.
        if individual
            .genes
            .iter()
            .any(|g| pool.defs()[g.def_index].format.is_some())
        {
            source.push_str("; custom-format rendering:\n");
            for gene in &individual.genes {
                source.push_str("; ");
                source.push_str(&pool.render(gene));
                source.push('\n');
            }
        }
        fs::write(dir.join(name), source)?;
    }
    let saved = SavedPopulation::from_population(population);
    atomic_write(
        &dir.join(format!("population_{:04}.bin", population.generation)),
        &saved.encode(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::full_pool;
    use gest_ga::Evaluated;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_population(pool: &InstructionPool) -> Population<Gene> {
        let mut rng = StdRng::seed_from_u64(4);
        Population {
            generation: 3,
            individuals: (0..5)
                .map(|i| Evaluated {
                    id: 100 + i,
                    parents: if i == 0 {
                        (None, None)
                    } else {
                        (Some(i), Some(i + 1))
                    },
                    genes: (0..10).map(|_| pool.random_gene(&mut rng)).collect(),
                    fitness: i as f64 * 0.5,
                    measurements: vec![i as f64 * 0.5, 42.0],
                })
                .collect(),
        }
    }

    #[test]
    fn population_binary_round_trip() {
        let pool = full_pool();
        let population = sample_population(&pool);
        let saved = SavedPopulation::from_population(&population);
        let decoded = SavedPopulation::decode(&saved.encode()).unwrap();
        assert_eq!(decoded, saved);
        assert_eq!(decoded.best().unwrap().id, 104);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = Encoder::new();
        enc.bytes(b"NOTAPOPF");
        assert!(matches!(
            SavedPopulation::decode(&enc.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn seed_genes_rebind_to_pool() {
        let pool = full_pool();
        let population = sample_population(&pool);
        let saved = SavedPopulation::from_population(&population);
        let seeds = saved.seed_genes(&pool);
        assert_eq!(seeds.len(), 5);
        for (seed, original) in seeds.iter().zip(&population.individuals) {
            assert_eq!(
                seed.len(),
                original.genes.len(),
                "same pool keeps all genes"
            );
        }
    }

    #[test]
    fn writer_produces_paper_layout() {
        let pool = full_pool();
        let template = Template::default_stress();
        let population = sample_population(&pool);
        let dir = std::env::temp_dir().join(format!("gest_out_test_{}", std::process::id()));
        let config = GestConfig::builder("cortex-a15").build().unwrap();
        let writer = OutputWriter::new(&dir, &config, &template).unwrap();
        writer
            .save_generation(
                Arc::new(population),
                Arc::new(pool),
                template.clone(),
                Telemetry::disabled(),
            )
            .unwrap();
        writer.wait().unwrap();

        assert!(dir.join("config.xml").exists());
        assert!(dir.join("template.txt").exists());
        assert!(dir.join("population_0003.bin").exists());
        // Individual files follow {gen}_{id}_{m1}_{m2}.txt.
        assert!(dir.join("3_104_2.000_42.000.txt").exists());
        let source = fs::read_to_string(dir.join("3_104_2.000_42.000.txt")).unwrap();
        assert!(source.contains(".loop"));

        let files = OutputWriter::population_files(&dir).unwrap();
        assert_eq!(files.len(), 1);
        let loaded = SavedPopulation::load(&files[0]).unwrap();
        assert_eq!(loaded.generation, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_id_allocator_is_seeded_monotonic_and_collision_free() {
        // Same seed, same id sequence; different seed, different prefix.
        let a = RunIdAllocator::seeded(7);
        let b = RunIdAllocator::seeded(7);
        let first = a.next_id();
        assert_eq!(first, b.next_id());
        assert_ne!(first, a.next_id(), "sequence numbers are monotonic");
        assert_ne!(first, RunIdAllocator::seeded(8).next_id());

        // On-disk allocation skips directories an earlier incarnation of
        // the same allocator already claimed.
        let root = std::env::temp_dir().join(format!("gest_runid_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let earlier = RunIdAllocator::seeded(7);
        let (first_id, first_dir) = earlier.allocate_dir(&root).unwrap();
        let restarted = RunIdAllocator::seeded(7);
        let (second_id, second_dir) = restarted.allocate_dir(&root).unwrap();
        assert_ne!(first_id, second_id);
        assert_ne!(first_dir, second_dir);
        assert!(first_dir.is_dir() && second_dir.is_dir());
        fs::remove_dir_all(&root).unwrap();
    }
}
