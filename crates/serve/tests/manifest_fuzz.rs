//! Property-based fuzzing of the serve registry decoders: the per-run
//! `serve_run.json` manifest ([`RunEntry::decode`]) and the state
//! directory's `serve_index.json` ([`decode_index`]). Arbitrary bytes, bit
//! flips, truncations and hostile numbers must never panic, and
//! `persist_via` → `decode` (`save_index_via` → `decode_index`) must give
//! back every persisted field.

use gest_core::{GestError, WriteFs};
use gest_serve::registry::{decode_index, save_index_via};
use gest_serve::{RunEntry, RunQuota, RunState};
use gest_telemetry::json::Value;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

const STATES: [RunState; 7] = [
    RunState::Pending,
    RunState::Running,
    RunState::Done,
    RunState::Failed,
    RunState::Cancelled,
    RunState::Quarantined,
    RunState::Expired,
];

/// A [`WriteFs`] that keeps the last write in memory.
#[derive(Debug, Default)]
struct Capture(Mutex<Vec<u8>>);

impl WriteFs for Capture {
    fn write_atomic(&self, _path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        *self.0.lock().unwrap() = bytes.to_vec();
        Ok(())
    }
}

impl Capture {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

fn run_dir() -> PathBuf {
    PathBuf::from("runs").join("r1")
}

/// Text from arbitrary bytes read as Latin-1: quotes, backslashes,
/// control characters and two-byte UTF-8 all show up.
fn text_of(bytes: &[u8]) -> String {
    bytes.iter().copied().map(char::from).collect()
}

fn text_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..40usize)
}

/// The fields a manifest persists: state index, priority, generation,
/// target, best fitness, restarts, generation cap and deadline in
/// milliseconds (each optional value as a presence flag and a value),
/// and the id, error and configuration texts.
type Fields = (
    (usize, u32, u32, u32, (bool, f64), u32),
    ((bool, u32), (bool, u32)),
    (Vec<u8>, (bool, Vec<u8>), Vec<u8>),
);

fn fields_strategy() -> impl Strategy<Value = Fields> {
    (
        (
            0..STATES.len(),
            1u32..=u32::MAX,
            any::<u32>(),
            any::<u32>(),
            (any::<bool>(), -1.0e12..1.0e12),
            any::<u32>(),
        ),
        ((any::<bool>(), any::<u32>()), (any::<bool>(), any::<u32>())),
        (
            text_strategy(),
            (any::<bool>(), text_strategy()),
            text_strategy(),
        ),
    )
}

fn entry_of(fields: &Fields) -> RunEntry {
    let (
        (state, priority, generation, target, (has_best, best), restarts),
        ((has_cap, cap), (has_deadline, deadline_ms)),
        (id, (has_error, error), config),
    ) = fields;
    let mut entry = RunEntry::new(text_of(id), run_dir(), text_of(config), *priority, *target);
    entry.state = STATES[*state];
    entry.generation = *generation;
    entry.best_fitness = has_best.then_some(*best);
    entry.restarts = *restarts;
    entry.error = has_error.then(|| text_of(error));
    entry.quota = RunQuota {
        max_generations: has_cap.then_some(*cap),
        deadline: has_deadline.then(|| Duration::from_millis(u64::from(*deadline_ms))),
    };
    entry
}

fn persisted(entry: &RunEntry) -> String {
    let fs = Capture::default();
    entry.persist_via(&fs).unwrap();
    fs.text()
}

/// A manifest with one top-level field replaced by `value`.
fn with_field(manifest: &str, field: &str, value: Value) -> String {
    let Value::Obj(mut entries) = Value::parse(manifest.trim()).unwrap() else {
        unreachable!("manifests are objects");
    };
    for (key, slot) in &mut entries {
        if key == field {
            *slot = value.clone();
        }
    }
    Value::Obj(entries).to_string()
}

fn must_not_panic(text: &str) {
    let _ = RunEntry::decode(text, &run_dir());
    let _ = decode_index(text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(noise in prop::collection::vec(any::<u8>(), 0..200usize)) {
        must_not_panic(&String::from_utf8_lossy(&noise));
        must_not_panic(&text_of(&noise));
    }

    #[test]
    fn bit_flips_and_truncations_never_panic(
        fields in fields_strategy(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4usize),
        cut in any::<usize>(),
    ) {
        let entry = entry_of(&fields);
        let fs = Capture::default();
        save_index_via(&fs, Path::new("state"), std::slice::from_ref(&entry)).unwrap();
        for bytes in [persisted(&entry).into_bytes(), fs.text().into_bytes()] {
            let mut flipped = bytes.clone();
            for &(position, bit) in &flips {
                let position = position % flipped.len();
                flipped[position] ^= 1 << (bit % 8);
            }
            must_not_panic(&String::from_utf8_lossy(&flipped));
            // Both documents end in a newline; every shorter prefix
            // cuts into the JSON itself.
            let cut = cut % (bytes.len() - 1);
            let truncated = String::from_utf8_lossy(&bytes[..cut]);
            must_not_panic(&truncated);
            prop_assert!(RunEntry::decode(&truncated, &run_dir()).is_err());
            prop_assert!(decode_index(&truncated).is_err());
        }
    }

    #[test]
    fn hostile_numbers_never_panic(
        fields in fields_strategy(),
        field in prop::sample::select(vec![
            "priority",
            "generation",
            "target_generations",
            "best_fitness",
            "restarts",
            "max_generations",
            "deadline_s",
        ]),
        bits in any::<u64>(),
        scale in -30i32..30,
    ) {
        let manifest = persisted(&entry_of(&fields));
        // Raw bit patterns reach every exponent; scaled integers reach
        // the boundaries of u32 and of `Duration` (2^64 s).
        let raw = f64::from_bits(bits);
        let scaled = (bits as i64 as f64) * 10f64.powi(scale);
        for number in [raw, scaled, -raw.abs(), 2f64.powi(64), -1.0, -0.0] {
            if !number.is_finite() {
                continue;
            }
            let text = with_field(&manifest, field, Value::Num(number));
            let decoded = RunEntry::decode(&text, &run_dir());
            if field == "deadline_s" {
                prop_assert_eq!(decoded.is_ok(), Duration::try_from_secs_f64(number).is_ok());
            }
        }
    }

    #[test]
    fn persist_then_decode_restores_every_field(fields in fields_strategy()) {
        let entry = entry_of(&fields);
        let decoded = RunEntry::decode(&persisted(&entry), &run_dir()).unwrap();
        prop_assert_eq!(&decoded.id, &entry.id);
        prop_assert_eq!(&decoded.dir, &entry.dir);
        prop_assert_eq!(&decoded.config_xml, &entry.config_xml);
        prop_assert_eq!(decoded.priority, entry.priority);
        prop_assert_eq!(decoded.state, entry.state);
        prop_assert_eq!(decoded.generation, entry.generation);
        prop_assert_eq!(decoded.target_generations, entry.target_generations);
        prop_assert_eq!(
            decoded.best_fitness.map(f64::to_bits),
            entry.best_fitness.map(f64::to_bits)
        );
        prop_assert_eq!(&decoded.error, &entry.error);
        prop_assert_eq!(decoded.restarts, entry.restarts);
        prop_assert_eq!(decoded.quota, entry.quota);
        // Re-persisting the decoded entry writes the same bytes.
        prop_assert_eq!(persisted(&decoded), persisted(&entry));
    }

    #[test]
    fn save_index_then_decode_restores_every_row(
        rows in prop::collection::vec((text_strategy(), text_strategy()), 0..8usize),
    ) {
        let entries: Vec<RunEntry> = rows
            .iter()
            .map(|(id, dir)| {
                RunEntry::new(text_of(id), PathBuf::from(text_of(dir)), String::new(), 1, 1)
            })
            .collect();
        let fs = Capture::default();
        save_index_via(&fs, Path::new("state"), &entries).unwrap();
        let decoded = decode_index(&fs.text()).unwrap();
        let expected: Vec<(String, PathBuf)> = entries
            .iter()
            .map(|entry| (entry.id.clone(), entry.dir.clone()))
            .collect();
        prop_assert_eq!(decoded, expected);
    }
}

#[test]
fn negative_and_oversized_deadlines_are_config_errors() {
    let manifest = persisted(&RunEntry::new(
        "r1".into(),
        run_dir(),
        "<gest/>".into(),
        1,
        4,
    ));
    for seconds in [-1.0, -1e-9, 1e20, 2f64.powi(64)] {
        let text = with_field(&manifest, "deadline_s", Value::Num(seconds));
        match RunEntry::decode(&text, &run_dir()) {
            Err(GestError::Config(message)) => {
                assert!(message.contains("deadline_s"), "{message}");
            }
            other => panic!("deadline_s={seconds} decoded as {other:?}"),
        }
    }
    let text = with_field(&manifest, "deadline_s", Value::Num(1.5));
    let entry = RunEntry::decode(&text, &run_dir()).unwrap();
    assert_eq!(entry.quota.deadline, Some(Duration::from_millis(1500)));
}
