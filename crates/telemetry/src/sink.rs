//! Pluggable event sinks: no-op, console progress, in-memory (tests),
//! and a JSONL file writer producing `run_trace.jsonl`.

use crate::Event;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Receives every telemetry event.
///
/// Sinks are shared across evaluation worker threads, so implementations
/// must be internally synchronized.
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn event(&self, event: &Event);

    /// Flushes buffered output; called once when a run finishes.
    fn flush(&self) {}
}

/// Discards everything. Used as the backing sink when callers want an
/// enabled pipeline with no output (e.g. overhead benches).
#[derive(Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn event(&self, _event: &Event) {}
}

/// Prints human-readable progress lines to stderr — one line per
/// [`Event::Point`], plus final metric summaries.
#[derive(Debug, Default)]
pub struct ConsoleSink;

impl Sink for ConsoleSink {
    fn event(&self, event: &Event) {
        match event {
            Event::Point {
                name, t_us, fields, ..
            } => {
                let mut line = format!("[{:>9.3}s] {name}", *t_us as f64 / 1e6);
                for (key, value) in fields {
                    line.push_str(&format!(" {key}={value}"));
                }
                eprintln!("{line}");
            }
            Event::Counter { name, value } => eprintln!("[   metric] {name} = {value}"),
            Event::Gauge { name, value } => eprintln!("[   metric] {name} = {value}"),
            Event::Histogram { name, snapshot } => eprintln!(
                "[   metric] {name}: n={} mean={:.1} min={:.1} max={:.1}",
                snapshot.count,
                snapshot.mean(),
                snapshot.min,
                snapshot.max
            ),
            Event::SpanStart { .. } | Event::SpanEnd { .. } => {}
        }
    }
}

/// Buffers events in memory; the assertion surface for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A copy of every event received so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink lock").clone()
    }
}

impl Sink for MemorySink {
    fn event(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink lock")
            .push(event.clone());
    }
}

/// Writes one JSON object per line — the `run_trace.jsonl` artifact that
/// `gest report` consumes.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(JsonlSink {
            path,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Opens the trace file at `path` for appending — the resume-friendly
    /// variant of [`JsonlSink::create`]. If the file exists and its last
    /// line was cut short by a crash, a guard newline is written first so
    /// the next event starts on a fresh line (readers then see exactly one
    /// unparseable line instead of two spliced ones).
    ///
    /// # Errors
    ///
    /// I/O errors opening the file.
    pub fn append(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::options()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        // Only the last byte matters, however long the trace has grown.
        let needs_guard_newline = ends_mid_line(&mut file).unwrap_or(false);
        let mut writer = BufWriter::new(file);
        if needs_guard_newline {
            writer.write_all(b"\n")?;
        }
        Ok(JsonlSink {
            path,
            writer: Mutex::new(writer),
        })
    }

    /// Where the trace is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Whether `file` is non-empty and its last byte is not a newline.
fn ends_mid_line(file: &mut File) -> io::Result<bool> {
    if file.metadata()?.len() == 0 {
        return Ok(false);
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

impl Sink for JsonlSink {
    fn event(&self, event: &Event) {
        let mut line = String::new();
        event.to_json().write(&mut line);
        line.push('\n');
        let mut writer = self.writer.lock().expect("jsonl sink lock");
        // Trace output is best-effort; a full disk should not kill the
        // search that is being observed.
        let _ = writer.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink lock").flush();
    }
}

/// Fans one event stream out to several sinks (e.g. console progress and
/// a JSONL trace at the same time).
pub struct MultiSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl MultiSink {
    /// Combines `sinks` into one.
    pub fn new(sinks: Vec<std::sync::Arc<dyn Sink>>) -> MultiSink {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn event(&self, event: &Event) {
        for sink in &self.sinks {
            sink.event(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str) -> Event {
        Event::Point {
            name: name.to_string(),
            thread: 0,
            t_us: 1,
            fields: vec![],
        }
    }

    /// The file `append` leaves behind when `before` is the trace's
    /// content (`None`: no file) and one event is written.
    fn after_append(name: &str, before: Option<&[u8]>) -> String {
        let path =
            std::env::temp_dir().join(format!("gest_jsonl_{name}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        if let Some(bytes) = before {
            std::fs::write(&path, bytes).unwrap();
        }
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.event(&point("next"));
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        text
    }

    #[test]
    fn append_guards_only_a_torn_last_line() {
        let event = {
            let mut line = String::new();
            point("next").to_json().write(&mut line);
            line + "\n"
        };
        assert_eq!(after_append("missing", None), event);
        assert_eq!(after_append("empty", Some(b"")), event);
        assert_eq!(
            after_append("whole", Some(b"{\"a\":1}\n")),
            format!("{{\"a\":1}}\n{event}")
        );
        assert_eq!(
            after_append("torn", Some(b"{\"a\":1}\n{\"b\"")),
            format!("{{\"a\":1}}\n{{\"b\"\n{event}")
        );
    }

    #[test]
    fn append_continues_and_repairs_truncated_traces() {
        let path =
            std::env::temp_dir().join(format!("gest_jsonl_append_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Appending to a missing file behaves like create.
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.event(&point("first"));
            sink.flush();
        }
        // Simulate a crash mid-line: chop the trailing newline and part of
        // the JSON object.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.event(&point("second"));
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            2,
            "guard newline isolates the torn line: {text:?}"
        );
        assert!(lines[0].contains("first") && !lines[0].ends_with('}'));
        assert!(lines[1].contains("second") && lines[1].ends_with('}'));
        std::fs::remove_file(&path).unwrap();
    }
}
