//! The run registry: the in-memory table of every submitted run plus its
//! on-disk mirror, which is what lets a restarted server pick up exactly
//! where the killed one stopped.
//!
//! Persistence is two-level. `serve_index.json` in the service state
//! directory lists every run id with its directory (runs may live
//! outside the state directory when the submitted configuration names an
//! `<output dir=...>`). Each run directory then carries a
//! `serve_run.json` manifest with the run's last persisted state,
//! priority, and canonical configuration XML — enough to rebuild the
//! registry entry and, together with the run's checkpoint, the search
//! itself.

use gest_core::{GestError, WriteFs};
use gest_telemetry::json::Value;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Name of the per-run manifest inside a run directory.
pub const RUN_MANIFEST_FILE: &str = "serve_run.json";

/// Name of the run index inside the service state directory.
pub const INDEX_FILE: &str = "serve_index.json";

/// Lifecycle state of a submitted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Submitted, not yet scheduled (or rehydrating after a restart).
    Pending,
    /// The scheduler is advancing it (possibly evicted to its checkpoint
    /// between slices).
    Running,
    /// All configured generations completed.
    Done,
    /// A step failed permanently (a config/logic fault, or the restart
    /// budget for transient faults is exhausted); see [`RunEntry::error`].
    Failed,
    /// Cancelled via `DELETE /runs/{id}`.
    Cancelled,
    /// A panic escaped [`gest_core::GestRun::step`]; the poisoned live
    /// state was discarded and the run is never rescheduled. The panic
    /// payload is in [`RunEntry::error`].
    Quarantined,
    /// A submission quota (`?max_generations=N` or `?deadline_s=S`)
    /// expired at a slice boundary; a resumable checkpoint of the work
    /// done so far is left in the run directory.
    Expired,
}

impl RunState {
    /// Whether the scheduler has nothing left to do for this run.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            RunState::Done
                | RunState::Failed
                | RunState::Cancelled
                | RunState::Quarantined
                | RunState::Expired
        )
    }

    fn parse(text: &str) -> Option<RunState> {
        Some(match text {
            "pending" => RunState::Pending,
            "running" => RunState::Running,
            "done" => RunState::Done,
            "failed" => RunState::Failed,
            "cancelled" => RunState::Cancelled,
            "quarantined" => RunState::Quarantined,
            "expired" => RunState::Expired,
            _ => return None,
        })
    }
}

impl fmt::Display for RunState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunState::Pending => "pending",
            RunState::Running => "running",
            RunState::Done => "done",
            RunState::Failed => "failed",
            RunState::Cancelled => "cancelled",
            RunState::Quarantined => "quarantined",
            RunState::Expired => "expired",
        })
    }
}

/// Per-run quotas accepted at submission time and enforced by the
/// scheduler at slice boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunQuota {
    /// Cap on generations the service will run (`?max_generations=N`);
    /// the run expires with a resumable checkpoint once reached.
    pub max_generations: Option<u32>,
    /// Wall-clock budget from submission (`?deadline_s=S`). Measured
    /// per server process: a restarted server grants a fresh window.
    pub deadline: Option<Duration>,
}

/// One submitted run as the registry tracks it.
#[derive(Debug, Clone)]
pub struct RunEntry {
    /// Service-unique run id (allocated by [`gest_core::RunIdAllocator`]).
    pub id: String,
    /// The run's output directory (artifacts, checkpoint, trace,
    /// manifest all live here).
    pub dir: PathBuf,
    /// Canonical configuration XML (the exact text a fresh activation
    /// parses, and whose fingerprint keys the shared eval cache).
    pub config_xml: String,
    /// Steps granted per scheduling round (≥ 1).
    pub priority: u32,
    /// Current lifecycle state.
    pub state: RunState,
    /// Generations completed so far.
    pub generation: u32,
    /// Configured generation budget.
    pub target_generations: u32,
    /// Best measured fitness so far, if any generation completed.
    pub best_fitness: Option<f64>,
    /// Whether the latest step reported a fitness plateau
    /// ([`gest_core::StepOutcome::Converged`]).
    pub converged: bool,
    /// Failure description when [`RunState::Failed`], the panic payload
    /// when [`RunState::Quarantined`], the expiry reason when
    /// [`RunState::Expired`] — or a staleness note while the run is
    /// still live (a manifest persist failed, or a transient fault is
    /// being retried).
    pub error: Option<String>,
    /// Set by `DELETE /runs/{id}`; the scheduler finalizes the
    /// cancellation at the next slice boundary.
    pub cancel_requested: bool,
    /// How many times the scheduler restarted this run from its last
    /// checkpoint after a transient step fault.
    pub restarts: u32,
    /// Submission quotas, enforced at slice boundaries.
    pub quota: RunQuota,
    /// When this entry was admitted (or rehydrated) — the anchor for
    /// [`RunQuota::deadline`].
    pub submitted: Instant,
}

impl RunEntry {
    /// A fresh entry for a just-submitted run.
    pub fn new(
        id: String,
        dir: PathBuf,
        config_xml: String,
        priority: u32,
        target_generations: u32,
    ) -> RunEntry {
        RunEntry {
            id,
            dir,
            config_xml,
            priority,
            state: RunState::Pending,
            generation: 0,
            target_generations,
            best_fitness: None,
            converged: false,
            error: None,
            cancel_requested: false,
            restarts: 0,
            quota: RunQuota::default(),
            submitted: Instant::now(),
        }
    }

    /// The entry's status document, served by `GET /runs` and
    /// `GET /runs/{id}`.
    pub fn status_json(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("state".into(), Value::Str(self.state.to_string())),
            ("generation".into(), Value::Num(f64::from(self.generation))),
            (
                "target_generations".into(),
                Value::Num(f64::from(self.target_generations)),
            ),
            (
                "best_fitness".into(),
                self.best_fitness.map_or(Value::Null, Value::Num),
            ),
            ("converged".into(), Value::Bool(self.converged)),
            ("priority".into(), Value::Num(f64::from(self.priority))),
            ("dir".into(), Value::Str(self.dir.display().to_string())),
            ("restarts".into(), Value::Num(f64::from(self.restarts))),
            (
                "max_generations".into(),
                self.quota
                    .max_generations
                    .map_or(Value::Null, |n| Value::Num(f64::from(n))),
            ),
            (
                "deadline_s".into(),
                self.quota
                    .deadline
                    .map_or(Value::Null, |d| Value::Num(d.as_secs_f64())),
            ),
            (
                "error".into(),
                self.error.clone().map_or(Value::Null, Value::Str),
            ),
        ])
    }

    /// Writes the run's on-disk manifest (tmp + rename, so a crash
    /// mid-write leaves the previous manifest in charge) through `fs`: the
    /// service's [`WriteFs`], which chaos harnesses substitute to inject
    /// registry-persist faults.
    ///
    /// # Errors
    ///
    /// I/O errors writing into the run directory.
    pub fn persist_via(&self, fs: &dyn WriteFs) -> Result<(), GestError> {
        let manifest = Value::Obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("state".into(), Value::Str(self.state.to_string())),
            ("priority".into(), Value::Num(f64::from(self.priority))),
            ("generation".into(), Value::Num(f64::from(self.generation))),
            (
                "target_generations".into(),
                Value::Num(f64::from(self.target_generations)),
            ),
            (
                "best_fitness".into(),
                self.best_fitness.map_or(Value::Null, Value::Num),
            ),
            ("restarts".into(), Value::Num(f64::from(self.restarts))),
            (
                "max_generations".into(),
                self.quota
                    .max_generations
                    .map_or(Value::Null, |n| Value::Num(f64::from(n))),
            ),
            (
                "deadline_s".into(),
                self.quota
                    .deadline
                    .map_or(Value::Null, |d| Value::Num(d.as_secs_f64())),
            ),
            (
                "error".into(),
                self.error.clone().map_or(Value::Null, Value::Str),
            ),
            ("config_xml".into(), Value::Str(self.config_xml.clone())),
        ]);
        let mut text = String::new();
        manifest.write(&mut text);
        text.push('\n');
        fs.write_atomic(&self.dir.join(RUN_MANIFEST_FILE), text.as_bytes())
            .map_err(GestError::Io)
    }

    /// Reads a run's manifest back from its directory.
    ///
    /// # Errors
    ///
    /// I/O errors, or a manifest [`RunEntry::decode`] rejects.
    pub fn load(dir: &Path) -> Result<RunEntry, GestError> {
        let text = std::fs::read_to_string(dir.join(RUN_MANIFEST_FILE))?;
        RunEntry::decode(&text, dir)
    }

    /// Decodes the text of the manifest in run directory `dir` (the
    /// directory the entry points at, also named in error messages).
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] for a manifest that does not parse as the
    /// expected document, including a `deadline_s` that is negative or
    /// too large for a [`Duration`].
    pub fn decode(text: &str, dir: &Path) -> Result<RunEntry, GestError> {
        let path = dir.join(RUN_MANIFEST_FILE);
        let bad = |what: &str| {
            GestError::Config(format!("{}: missing or invalid {what}", path.display()))
        };
        let doc = Value::parse(text.trim())
            .map_err(|e| GestError::Config(format!("{}: {e}", path.display())))?;
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("id"))?
            .to_string();
        let state = doc
            .get("state")
            .and_then(Value::as_str)
            .and_then(RunState::parse)
            .ok_or_else(|| bad("state"))?;
        let priority = doc
            .get("priority")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("priority"))? as u32;
        let generation = doc
            .get("generation")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("generation"))? as u32;
        let target_generations = doc
            .get("target_generations")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("target_generations"))? as u32;
        let best_fitness = doc.get("best_fitness").and_then(Value::as_f64);
        let error = doc.get("error").and_then(Value::as_str).map(str::to_string);
        // Absent in manifests written before run supervision existed.
        let restarts = doc.get("restarts").and_then(Value::as_u64).unwrap_or(0) as u32;
        let quota = RunQuota {
            max_generations: doc
                .get("max_generations")
                .and_then(Value::as_u64)
                .map(|n| n as u32),
            deadline: doc
                .get("deadline_s")
                .and_then(Value::as_f64)
                .map(Duration::try_from_secs_f64)
                .transpose()
                .map_err(|_| bad("deadline_s"))?,
        };
        let config_xml = doc
            .get("config_xml")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("config_xml"))?
            .to_string();
        Ok(RunEntry {
            id,
            dir: dir.to_path_buf(),
            config_xml,
            priority: priority.max(1),
            state,
            generation,
            target_generations,
            best_fitness,
            converged: false,
            error,
            cancel_requested: false,
            restarts,
            quota,
            submitted: Instant::now(),
        })
    }
}

/// Writes the state directory's run index: every id with its directory,
/// in submission order, through `fs` (see [`RunEntry::persist_via`]).
///
/// # Errors
///
/// I/O errors writing into the state directory.
pub fn save_index_via(
    fs: &dyn WriteFs,
    state_dir: &Path,
    entries: &[RunEntry],
) -> Result<(), GestError> {
    let index = Value::Arr(
        entries
            .iter()
            .map(|entry| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(entry.id.clone())),
                    ("dir".into(), Value::Str(entry.dir.display().to_string())),
                ])
            })
            .collect(),
    );
    let mut text = String::new();
    index.write(&mut text);
    text.push('\n');
    fs.write_atomic(&state_dir.join(INDEX_FILE), text.as_bytes())
        .map_err(GestError::Io)
}

/// Reads the run index back; a missing index is an empty service.
///
/// # Errors
///
/// I/O errors other than the index not existing; an unparseable index
/// (reported as [`GestError::Config`]).
pub fn load_index(state_dir: &Path) -> Result<Vec<(String, PathBuf)>, GestError> {
    let path = state_dir.join(INDEX_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    decode_index(&text).map_err(|e| match e {
        GestError::Config(message) => GestError::Config(format!("{}: {message}", path.display())),
        other => other,
    })
}

/// Decodes the text of a run index into `(id, dir)` rows.
///
/// # Errors
///
/// [`GestError::Config`] for text that is not a JSON array of
/// `{"id": .., "dir": ..}` rows.
pub fn decode_index(text: &str) -> Result<Vec<(String, PathBuf)>, GestError> {
    let doc = Value::parse(text.trim()).map_err(|e| GestError::Config(e.to_string()))?;
    let Some(rows) = doc.as_arr() else {
        return Err(GestError::Config("expected a JSON array".into()));
    };
    let mut index = Vec::new();
    for row in rows {
        let (Some(id), Some(dir)) = (
            row.get("id").and_then(Value::as_str),
            row.get("dir").and_then(Value::as_str),
        ) else {
            return Err(GestError::Config("index rows need id and dir".into()));
        };
        index.push((id.to_string(), PathBuf::from(dir)));
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_core::RealFs;

    #[test]
    fn manifest_and_index_round_trip() {
        let dir = std::env::temp_dir().join(format!("gest_serve_reg_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut entry = RunEntry::new("r1".into(), dir.clone(), "<gest seed=\"1\"/>".into(), 3, 8);
        entry.state = RunState::Running;
        entry.generation = 5;
        entry.best_fitness = Some(1.25);
        entry.restarts = 2;
        entry.quota = RunQuota {
            max_generations: Some(6),
            deadline: Some(Duration::from_secs(30)),
        };
        entry.persist_via(&RealFs).unwrap();

        let loaded = RunEntry::load(&dir).unwrap();
        assert_eq!(loaded.id, "r1");
        assert_eq!(loaded.state, RunState::Running);
        assert_eq!(loaded.priority, 3);
        assert_eq!(loaded.generation, 5);
        assert_eq!(loaded.target_generations, 8);
        assert_eq!(loaded.best_fitness, Some(1.25));
        assert_eq!(loaded.restarts, 2);
        assert_eq!(loaded.quota, entry.quota);
        assert_eq!(loaded.config_xml, "<gest seed=\"1\"/>");

        save_index_via(&RealFs, &dir, std::slice::from_ref(&entry)).unwrap();
        let index = load_index(&dir).unwrap();
        assert_eq!(index, vec![("r1".to_string(), dir.clone())]);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn supervision_states_round_trip_and_are_terminal() {
        for state in [RunState::Quarantined, RunState::Expired] {
            assert!(state.is_terminal());
            assert_eq!(RunState::parse(&state.to_string()), Some(state));
        }
    }

    #[test]
    fn manifests_without_supervision_fields_load_with_defaults() {
        let dir = std::env::temp_dir().join(format!("gest_serve_reg_old_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The PR 9 manifest shape, before restarts/quotas existed.
        std::fs::write(
            dir.join(RUN_MANIFEST_FILE),
            "{\"id\":\"r9\",\"state\":\"running\",\"priority\":1,\"generation\":2,\
             \"target_generations\":6,\"best_fitness\":null,\"error\":null,\
             \"config_xml\":\"<gest/>\"}\n",
        )
        .unwrap();
        let loaded = RunEntry::load(&dir).unwrap();
        assert_eq!(loaded.restarts, 0);
        assert_eq!(loaded.quota, RunQuota::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
