//! `gest top`: a live console dashboard over the `/status` endpoint.
//!
//! No TUI dependency — each refresh clears the screen with the ANSI
//! erase sequence and reprints a fixed-shape text dashboard, which works
//! in any terminal and degrades to plain scrolling text when piped.

use crate::http::http_get;
use gest_telemetry::json::Value;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::time::Duration;

/// Knobs for [`run_top`].
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Delay between refreshes.
    pub interval: Duration,
    /// Stop after this many refreshes (`None` = run until killed).
    pub iterations: Option<u64>,
    /// Emit the ANSI clear-screen sequence before each frame (off when
    /// output is piped or under test).
    pub clear_screen: bool,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions {
            interval: Duration::from_secs(2),
            iterations: None,
            clear_screen: true,
        }
    }
}

fn fmt_opt(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"))
}

fn fmt_age(age_us: Option<u64>) -> String {
    age_us.map_or_else(|| "-".to_string(), |us| format!("{:.1}s", us as f64 / 1e6))
}

/// Renders one `/status` document as a dashboard frame.
pub fn render_status(status: &Value) -> String {
    let str_of = |key: &str| {
        status
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or("-")
            .to_string()
    };
    let f64_of = |key: &str| status.get(key).and_then(Value::as_f64);
    let mut out = String::new();
    let uptime_s = status.get("uptime_us").and_then(Value::as_u64).unwrap_or(0) as f64 / 1e6;
    let _ = writeln!(
        out,
        "gest — run {} on {}   up {uptime_s:.1}s",
        str_of("run_id"),
        str_of("machine"),
    );
    let generation = status
        .get("generation")
        .and_then(Value::as_u64)
        .map_or_else(|| "-".to_string(), |g| g.to_string());
    let total = status
        .get("generations_total")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "generation {generation}/{total}   best {}   mean {}   best-ever {}",
        fmt_opt(f64_of("best_fitness")),
        fmt_opt(f64_of("mean_fitness")),
        fmt_opt(f64_of("best_ever")),
    );
    if let Some(cache) = status.get("cache") {
        let rate = cache.get("hit_rate").and_then(Value::as_f64);
        let _ = writeln!(
            out,
            "cache   hit-rate {}   entries {}   bytes {}",
            rate.map_or_else(|| "-".to_string(), |r| format!("{:.1}%", r * 100.0)),
            cache
                .get("entries")
                .and_then(Value::as_u64)
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            cache
                .get("bytes")
                .and_then(Value::as_u64)
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
        );
    }
    match status.get("health") {
        Some(health) if health.get("diversity").is_some() => {
            let plateaued = matches!(health.get("plateaued"), Some(Value::Bool(true)));
            let _ = writeln!(
                out,
                "health  diversity {}   stall {}   plateaued {}   quarantined {}",
                fmt_opt(health.get("diversity").and_then(Value::as_f64)),
                health
                    .get("stall_generations")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                if plateaued { "yes" } else { "no" },
                health
                    .get("quarantined")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
            );
        }
        _ => {
            let _ = writeln!(out, "health  (no generation completed yet)");
        }
    }
    if let Some(serve) = status.get("serve") {
        let count = |key: &str| serve.get(key).and_then(Value::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "serve   queue {}   activations {}   evictions {}   restarts {}   \
             quarantines {}   expirations {}   persist-failures {}   rejections {}",
            count("queue_depth"),
            count("activations"),
            count("evictions"),
            count("restarts"),
            count("quarantines"),
            count("expirations"),
            count("persist_failures"),
            count("rejections"),
        );
    }
    let workers = status.get("workers").and_then(Value::as_arr).unwrap_or(&[]);
    if !workers.is_empty() {
        let _ = writeln!(
            out,
            "workers:\n  {:>3}  {:<22} {:<14} {:<6} {:>9} {:>8} {:>8}",
            "id", "addr", "host", "state", "requests", "retries", "hb-age"
        );
        for worker in workers {
            let state = if matches!(worker.get("alive"), Some(Value::Bool(true))) {
                "alive".to_string()
            } else {
                worker
                    .get("lost")
                    .and_then(Value::as_str)
                    .map_or_else(|| "lost".to_string(), |kind| format!("lost:{kind}"))
            };
            let _ = writeln!(
                out,
                "  {:>3}  {:<22} {:<14} {:<6} {:>9} {:>8} {:>8}",
                worker.get("worker").and_then(Value::as_u64).unwrap_or(0),
                worker.get("addr").and_then(Value::as_str).unwrap_or("-"),
                worker.get("host").and_then(Value::as_str).unwrap_or("-"),
                state,
                worker.get("requests").and_then(Value::as_u64).unwrap_or(0),
                worker.get("retries").and_then(Value::as_u64).unwrap_or(0),
                fmt_age(worker.get("heartbeat_age_us").and_then(Value::as_u64)),
            );
        }
    }
    out
}

/// Polls `/status` at `addr` and redraws the dashboard until
/// `options.iterations` frames have been printed (or forever).
///
/// Endpoint hiccups (run not started yet, run just finished) render as a
/// waiting line rather than terminating the dashboard.
///
/// # Errors
///
/// Only I/O errors writing to `out`; network errors are displayed and
/// retried.
pub fn run_top(addr: &str, options: &TopOptions, out: &mut dyn Write) -> io::Result<()> {
    let mut frame = 0u64;
    loop {
        let body = http_get(addr, "/status", Duration::from_secs(2));
        if options.clear_screen {
            out.write_all(b"\x1b[2J\x1b[H")?;
        }
        match body {
            Ok((200, body)) => match Value::parse(body.trim()) {
                Ok(status) => out.write_all(render_status(&status).as_bytes())?,
                Err(error) => writeln!(out, "gest top: unparseable /status: {error}")?,
            },
            Ok((code, _)) => writeln!(out, "gest top: {addr} answered HTTP {code}")?,
            Err(error) => writeln!(out, "gest top: waiting for {addr} ({error})")?,
        }
        out.flush()?;
        frame += 1;
        if options.iterations.is_some_and(|n| frame >= n) {
            return Ok(());
        }
        std::thread::sleep(options.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsSink;
    use crate::StatusServer;
    use gest_telemetry::{Sink, Telemetry};
    use std::sync::Arc;

    #[test]
    fn renders_a_full_status_document() {
        let json = r#"{"run_id":"00c0ffee00c0ffee","machine":"cortex-a15","uptime_us":1500000,
            "generation":3,"generations_total":5,"best_fitness":1.5,"mean_fitness":1.2,
            "best_ever":1.5,"cache":{"hit_rate":0.25,"entries":10,"bytes":4096},
            "health":{"generation":2,"diversity":0.8,"stall_generations":1,"plateaued":false,"quarantined":0,"eval_retries":0},
            "workers":[{"worker":0,"addr":"127.0.0.1:9000","host":"nodeA","alive":true,
                        "lost":null,"requests":12,"retries":0,"heartbeat_age_us":200000}]}"#;
        let frame = render_status(&Value::parse(json).unwrap());
        assert!(frame.contains("run 00c0ffee00c0ffee on cortex-a15"));
        assert!(frame.contains("generation 3/5"));
        assert!(frame.contains("hit-rate 25.0%"));
        assert!(frame.contains("diversity 0.8000"));
        assert!(frame.contains("nodeA"));
        assert!(frame.contains("alive"));
        assert!(frame.contains("0.2s"));
    }

    #[test]
    fn renders_a_serve_status_row() {
        let json = r#"{"uptime_us":2000000,"serve":{"queue_depth":3,"activations":7,
            "evictions":2,"restarts":1,"quarantines":1,"expirations":0,
            "persist_failures":0,"rejections":4},"runs":[]}"#;
        let frame = render_status(&Value::parse(json).unwrap());
        assert!(frame.contains("serve   queue 3"), "{frame}");
        assert!(frame.contains("activations 7"), "{frame}");
        assert!(frame.contains("restarts 1"), "{frame}");
        assert!(frame.contains("quarantines 1"), "{frame}");
        assert!(frame.contains("rejections 4"), "{frame}");
    }

    #[test]
    fn renders_empty_status_without_panicking() {
        let frame = render_status(&Value::parse("{}").unwrap());
        assert!(frame.contains("generation -/0"));
        assert!(frame.contains("no generation completed yet"));
    }

    #[test]
    fn run_top_polls_a_live_endpoint() {
        let obs = Arc::new(ObsSink::default());
        let telemetry = Telemetry::new(Arc::clone(&obs) as Arc<dyn Sink>);
        telemetry.point(
            "generation",
            &[("generation", 0u64.into()), ("best_fitness", 2.0f64.into())],
        );
        let server =
            StatusServer::start("127.0.0.1:0", telemetry.clone(), Arc::clone(&obs)).unwrap();
        let mut out = Vec::new();
        run_top(
            &server.addr().to_string(),
            &TopOptions {
                interval: Duration::from_millis(1),
                iterations: Some(2),
                clear_screen: false,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.matches("generation 1/").count(),
            2,
            "two frames: {text}"
        );
    }

    #[test]
    fn run_top_survives_a_dead_endpoint() {
        let mut out = Vec::new();
        run_top(
            "127.0.0.1:1",
            &TopOptions {
                interval: Duration::from_millis(1),
                iterations: Some(1),
                clear_screen: true,
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("waiting for"), "{text}");
    }
}
