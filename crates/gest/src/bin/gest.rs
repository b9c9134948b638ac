//! The `gest` command-line tool: run searches from XML configurations and
//! post-process their outputs, mirroring how the original Python framework
//! is driven.
//!
//! ```text
//! gest run <config.xml> [--trace[=PATH]] [--progress] [--checkpoint-every=N]
//!          [--no-eval-cache] [--dir=PATH] [--lane-width=N]
//!          [--workers=ADDR,ADDR] [--local-fallback[=N]] [--status-addr=HOST:PORT]
//!                                  run a GA search from a main configuration
//! gest resume <output_dir> [--trace[=PATH]] [--progress] [--no-eval-cache]
//!          [--lane-width=N] [--workers=ADDR,ADDR] [--local-fallback[=N]]
//!          [--status-addr=HOST:PORT]
//!                                  continue a checkpointed run after a crash
//! gest serve --listen=ADDR [--workers=A,B] [--max-active=N] [--state-dir=PATH]
//!                                  multi-tenant search service: POST configs to
//!                                  /runs, stream progress via SSE, fetch
//!                                  artifacts; SIGTERM checkpoints active runs
//! gest worker --listen=ADDR [--once]
//!                                  serve measurements to a remote `gest run`;
//!                                  `run`/`resume`/`serve` take --workers=ADDR,ADDR
//!                                  to evaluate on such workers
//! gest report <run_trace.jsonl>    summarize a trace: phases, slow candidates,
//!                                  operator mix, cache, convergence vs wall-clock
//! gest top <host:port>             live dashboard over a run's --status-addr
//!                                  endpoint (/status polled every 2 s)
//! gest stats <output_dir>          per-generation report from saved populations
//! gest show <population.bin> [n]   print individuals from a population file
//! gest machines                    list the machine presets
//! gest workloads [machine]         measure every baseline workload on a machine
//! ```

use gest::chaos::{run_serve_soak, run_soak, ServeSoakOptions, SoakOptions};
use gest::core::{
    stats, EvalBackend, GestConfig, GestError, GestRun, LocalBackend, Registry, RunIdAllocator,
    SavedPopulation, StepOutcome,
};
use gest::dist::{hostname, Coordinator, CoordinatorOptions, Worker};
use gest::isa::InstrClass;
use gest::obs::top::{run_top, TopOptions};
use gest::obs::{ObsSink, StatusServer};
use gest::serve::{ServeOptions, ServeServer};
use gest::sim::{MachineConfig, RunConfig, Simulator};
use gest::telemetry::json::Value;
use gest::telemetry::{ConsoleSink, Event, JsonlSink, MultiSink, Sink, Telemetry};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("report") => cmd_report(args.get(1).map(String::as_str)),
        Some("stats") => cmd_stats(args.get(1).map(String::as_str)),
        Some("show") => cmd_show(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ),
        Some("top") => cmd_top(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("machines") => cmd_machines(),
        Some("workloads") => cmd_workloads(args.get(1).map(String::as_str)),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "gest — GA-driven CPU stress-test generation\n\n\
         usage:\n  \
         gest run <config.xml> [flags]    run a GA search from a main configuration\n    \
         --trace[=PATH]                 write run_trace.jsonl (default: output dir)\n    \
         --progress                     live per-generation progress on stderr\n    \
         --checkpoint-every=N           write a resumable checkpoint every N generations\n    \
         --no-eval-cache                disable the content-addressed result cache\n    \
         --dir=PATH                     output directory (beats the config's\n                                   \
         <output dir=...>; with neither, a fresh\n                                   \
         directory under ./gest_runs is allocated)\n    \
         --lane-width=N                 batch N candidates per simulator call\n                                   \
         (wall-clock only; results are identical)\n    \
         --workers=ADDR,ADDR            evaluate on remote `gest worker` processes\n    \
         --local-fallback[=N]           degrade to this host after N consecutive\n                                   \
         total-fleet failures (default 3)\n    \
         --status-addr=HOST:PORT        serve /metrics, /status, /trace over HTTP\n                                   \
         while the run is live (watch with `gest top`)\n  \
         gest resume <output_dir> [flags] continue a checkpointed run after a crash\n    \
         --trace[=PATH]                 append to run_trace.jsonl (default: output dir)\n    \
         --progress                     live per-generation progress on stderr\n    \
         --no-eval-cache                disable the content-addressed result cache\n    \
         --lane-width=N                 batch N candidates per simulator call\n    \
         --workers=ADDR,ADDR            evaluate on remote `gest worker` processes\n    \
         --local-fallback[=N]           degrade to this host after N consecutive\n                                   \
         total-fleet failures (default 3)\n    \
         --status-addr=HOST:PORT        serve /metrics, /status, /trace over HTTP\n                                   \
         while the run is live (watch with `gest top`)\n  \
         gest top <host:port>             live dashboard over a run's --status-addr\n    \
         --interval=SECS                refresh period (default 2)\n    \
         --once                         print one frame and exit\n  \
         gest worker --listen=ADDR        serve measurements to a remote `gest run`\n    \
         --once                         exit after serving one coordinator session\n  \
         gest serve --listen=ADDR         multi-tenant search service (REST + SSE)\n    \
         --workers=ADDR,ADDR            lease remote workers to one resident run\n    \
         --max-active=N                 resident-run budget; extra runs wait as\n                                   \
         checkpoints on disk (default 4)\n    \
         --state-dir=PATH               run index + allocated run directories\n                                   \
         (default ./gest_serve)\n    \
         --id-seed=N                    seed for the run-id sequence\n    \
         --max-pending=N                admission cap on queued runs; over it,\n                                   \
         POST /runs answers 503 + Retry-After\n    \
         --min-free-mb=N                free-disk floor for admission (default 16;\n                                   \
         below it, POST /runs answers 503)\n    \
         --restart-budget=N             transient-fault restarts per run before\n                                   \
         it is marked failed (default 2)\n  \
         gest chaos --seed=S --faults=K   fault-injection soak: a checkpointed,\n                                   \
         distributed, cached run under K seeded faults\n                                   \
         must match the fault-free run byte-for-byte\n    \
         --dir=PATH --workers=N --keep  scratch dir, in-process fleet size, keep artifacts\n    \
         --serve [--runs=N]             soak a live gest-serve instead: N runs under\n                                   \
         serve-seam faults (step panics, registry and\n                                   \
         checkpoint ENOSPC/torn writes); the server must\n                                   \
         keep answering, faulted runs must land in\n                                   \
         documented states, clean runs byte-identical\n  \
         gest report <run_trace.jsonl>    summarize a trace written by run --trace\n  \
         gest stats <output_dir>          per-generation report from saved populations\n  \
         gest show <population.bin> [n]   print the n fittest individuals (default 1)\n  \
         gest machines                    list the machine presets\n  \
         gest workloads [machine]         measure baseline workloads (default xgene2)"
    );
}

fn required<'a>(arg: Option<&'a str>, what: &str) -> Result<&'a str, GestError> {
    arg.ok_or_else(|| GestError::Config(format!("missing argument: {what}")))
}

/// Flags shared by `gest run` and `gest resume`.
#[derive(Default)]
struct SearchFlags {
    positional: Option<String>,
    trace: Option<Option<String>>,
    progress: bool,
    dir: Option<PathBuf>,
    checkpoint_every: Option<u32>,
    no_eval_cache: bool,
    lane_width: Option<usize>,
    workers: Vec<String>,
    local_fallback_after: Option<u32>,
    status_addr: Option<String>,
}

fn parse_search_flags(args: &[String], allow_checkpoint: bool) -> Result<SearchFlags, GestError> {
    let mut flags = SearchFlags::default();
    for arg in args {
        if arg == "--progress" {
            flags.progress = true;
        } else if arg == "--no-eval-cache" {
            flags.no_eval_cache = true;
        } else if let Some(n) = arg.strip_prefix("--lane-width=") {
            let width: usize = n.parse().map_err(|_| {
                GestError::Config(format!("bad lane width {n:?} (want a number ≥ 1)"))
            })?;
            if width == 0 {
                return Err(GestError::Config("lane width must be at least 1".into()));
            }
            flags.lane_width = Some(width);
        } else if arg == "--trace" {
            flags.trace = Some(None);
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            flags.trace = Some(Some(path.to_string()));
        } else if let Some(list) = arg.strip_prefix("--workers=") {
            flags.workers = list
                .split(',')
                .map(str::trim)
                .filter(|addr| !addr.is_empty())
                .map(str::to_string)
                .collect();
            if flags.workers.is_empty() {
                return Err(GestError::Config(
                    "--workers needs at least one host:port address".into(),
                ));
            }
        } else if let Some(addr) = arg.strip_prefix("--status-addr=") {
            if addr.is_empty() {
                return Err(GestError::Config(
                    "--status-addr needs a host:port (e.g. --status-addr=127.0.0.1:9090)".into(),
                ));
            }
            flags.status_addr = Some(addr.to_string());
        } else if arg == "--local-fallback" {
            flags.local_fallback_after = Some(3);
        } else if let Some(n) = arg.strip_prefix("--local-fallback=") {
            let after: u32 = n.parse().map_err(|_| {
                GestError::Config(format!("bad fallback threshold {n:?} (want a number ≥ 1)"))
            })?;
            if after == 0 {
                return Err(GestError::Config(
                    "--local-fallback threshold must be at least 1".into(),
                ));
            }
            flags.local_fallback_after = Some(after);
        } else if let Some(path) = arg.strip_prefix("--dir=") {
            if !allow_checkpoint {
                return Err(GestError::Config(format!(
                    "{arg:?} only applies to `gest run` (resume's directory is positional)"
                )));
            }
            if path.is_empty() {
                return Err(GestError::Config("--dir needs a path".into()));
            }
            flags.dir = Some(PathBuf::from(path));
        } else if let Some(n) = arg.strip_prefix("--checkpoint-every=") {
            if !allow_checkpoint {
                return Err(GestError::Config(format!(
                    "{arg:?} only applies to `gest run` (resume keeps the original interval)"
                )));
            }
            let every: u32 = n.parse().map_err(|_| {
                GestError::Config(format!("bad checkpoint interval {n:?} (want a number ≥ 1)"))
            })?;
            if every == 0 {
                return Err(GestError::Config(
                    "checkpoint interval must be at least 1".into(),
                ));
            }
            flags.checkpoint_every = Some(every);
        } else if arg.starts_with("--") {
            return Err(GestError::Config(format!("unknown flag {arg:?}")));
        } else if flags.positional.is_none() {
            flags.positional = Some(arg.clone());
        } else {
            return Err(GestError::Config(format!("unexpected argument {arg:?}")));
        }
    }
    if flags.local_fallback_after.is_some() && flags.workers.is_empty() {
        return Err(GestError::Config(
            "--local-fallback only applies together with --workers".into(),
        ));
    }
    Ok(flags)
}

/// Everything `build_telemetry` assembles for a search command.
#[derive(Default)]
struct TelemetryStack {
    telemetry: Option<Telemetry>,
    trace_path: Option<PathBuf>,
    /// Present when `--status-addr` was given: the sink the status
    /// endpoint reads its live state from.
    obs: Option<Arc<ObsSink>>,
}

/// Builds the telemetry sink stack for a search command. `append` keeps an
/// existing trace (resume); otherwise the trace file is truncated. With
/// `--status-addr`, an [`ObsSink`] joins the stack so the HTTP endpoint
/// can serve live state.
fn build_telemetry(
    flags: &SearchFlags,
    default_trace_dir: Option<&Path>,
    append: bool,
) -> Result<TelemetryStack, GestError> {
    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    let mut trace_path = None;
    if let Some(requested) = &flags.trace {
        let path = match requested {
            Some(explicit) => PathBuf::from(explicit),
            None => default_trace_dir.map_or_else(
                || PathBuf::from("run_trace.jsonl"),
                |d| d.join("run_trace.jsonl"),
            ),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let sink = if append {
            JsonlSink::append(&path)?
        } else {
            JsonlSink::create(&path)?
        };
        sinks.push(Arc::new(sink));
        trace_path = Some(path);
    }
    if flags.progress {
        sinks.push(Arc::new(ConsoleSink));
    }
    let obs = flags.status_addr.as_ref().map(|_| {
        let obs = Arc::new(ObsSink::default());
        sinks.push(Arc::clone(&obs) as Arc<dyn Sink>);
        obs
    });
    let telemetry = if sinks.is_empty() {
        None
    } else {
        let sink = if sinks.len() == 1 {
            sinks.remove(0)
        } else {
            Arc::new(MultiSink::new(sinks)) as Arc<dyn Sink>
        };
        Some(Telemetry::new(sink))
    };
    Ok(TelemetryStack {
        telemetry,
        trace_path,
        obs,
    })
}

/// Starts the `/metrics` + `/status` + `/trace` endpoint when
/// `--status-addr` was given. The returned guard keeps the server alive
/// for the duration of the run; dropping it stops the listener.
fn start_status_server(
    flags: &SearchFlags,
    stack: &TelemetryStack,
    telemetry: &Telemetry,
) -> Result<Option<StatusServer>, GestError> {
    let (Some(addr), Some(obs)) = (&flags.status_addr, &stack.obs) else {
        return Ok(None);
    };
    let server = StatusServer::start(addr, telemetry.clone(), Arc::clone(obs))
        .map_err(|e| GestError::Config(format!("cannot serve --status-addr={addr}: {e}")))?;
    eprintln!(
        "status endpoint on http://{}/ (watch with `gest top {}`)",
        server.addr(),
        server.addr()
    );
    Ok(Some(server))
}

/// Drives a search to completion with per-generation progress lines, then
/// finishes telemetry and prints the best result.
fn drive(mut run: GestRun) -> Result<(), GestError> {
    while !run.is_complete() {
        let outcome = run.step()?;
        let population = run.population().expect("population exists after a step");
        let best = population.best().expect("non-empty population");
        eprintln!(
            "generation {:>4}: best fitness {:.5} (mean {:.5}){}",
            population.generation,
            best.fitness,
            population.mean_fitness(),
            if outcome == StepOutcome::Converged {
                " [plateau]"
            } else {
                ""
            }
        );
    }
    run.finish();
    if let Some(best_ever) = run.history().best_ever() {
        println!(
            "best fitness: {:.5} (generation {})",
            best_ever.best_fitness, best_ever.generation
        );
    }
    Ok(())
}

fn print_artifact_locations(output_dir: Option<&Path>, trace_path: Option<&Path>) {
    if let Some(dir) = output_dir {
        println!("outputs written to {}", dir.display());
    } else {
        println!("(no <output dir=...> configured; outputs were not saved)");
    }
    if let Some(path) = trace_path {
        println!(
            "trace written to {} (inspect with `gest report`)",
            path.display()
        );
    }
}

/// Connects a distributed-evaluation coordinator when `--workers` was
/// given; `None` keeps the default local thread-pool backend. With
/// `--local-fallback`, the coordinator is armed with a [`LocalBackend`]
/// built from the same configuration, so total fleet loss degrades the
/// run to this host instead of aborting it.
fn connect_workers(
    workers: &[String],
    config_xml: String,
    telemetry: Telemetry,
    local_fallback_after: Option<u32>,
) -> Result<Option<Arc<Coordinator>>, GestError> {
    if workers.is_empty() {
        return Ok(None);
    }
    let local_fallback = match local_fallback_after {
        Some(after) => {
            let config = GestConfig::from_xml_str(&config_xml)?;
            let measurement = Registry::default().build_measurement(
                &config.measurement_name,
                config.machine.clone(),
                config.run_config,
            )?;
            let local: Arc<dyn EvalBackend> = Arc::new(LocalBackend::new(
                measurement,
                config.template,
                config.threads,
            ));
            Some((after, local))
        }
        None => None,
    };
    let options = CoordinatorOptions {
        local_fallback,
        ..CoordinatorOptions::default()
    };
    let coordinator = Coordinator::connect(workers, config_xml, telemetry, options)?;
    if let Some(after) = local_fallback_after {
        eprintln!(
            "local fallback armed: after {after} consecutive total-fleet failures, \
             evaluation degrades to this host"
        );
    }
    eprintln!(
        "distributed evaluation over {} worker{}: {}",
        workers.len(),
        if workers.len() == 1 { "" } else { "s" },
        workers.join(", ")
    );
    Ok(Some(Arc::new(coordinator)))
}

fn cmd_worker(args: &[String]) -> Result<(), GestError> {
    let mut listen: Option<String> = None;
    let mut once = false;
    for arg in args {
        if let Some(addr) = arg.strip_prefix("--listen=") {
            listen = Some(addr.to_string());
        } else if arg == "--once" {
            once = true;
        } else {
            return Err(GestError::Config(format!("unknown worker flag {arg:?}")));
        }
    }
    let listen = required(listen.as_deref(), "--listen=HOST:PORT")?;
    let mut worker = Worker::bind(listen)
        .map_err(|e| GestError::Config(format!("worker: cannot listen on {listen}: {e}")))?;
    if once {
        worker = worker.once();
    }
    eprintln!(
        "gest worker on {} ({}): waiting for a coordinator",
        worker.local_addr(),
        hostname()
    );
    worker.run().map_err(GestError::from)
}

/// `gest serve`: the multi-tenant search service. Runs until SIGTERM or
/// ctrl-c, then checkpoints every active run so the next `gest serve`
/// over the same state directory resumes them bit-exactly.
fn cmd_serve(args: &[String]) -> Result<(), GestError> {
    let mut listen: Option<String> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut state_dir = PathBuf::from("gest_serve");
    let mut max_active: usize = 4;
    let mut id_seed: u64 = 0;
    let mut max_pending: Option<usize> = None;
    let mut min_free_mb: Option<u64> = None;
    let mut restart_budget: Option<u32> = None;
    for arg in args {
        if let Some(addr) = arg.strip_prefix("--listen=") {
            listen = Some(addr.to_string());
        } else if let Some(list) = arg.strip_prefix("--workers=") {
            workers = list
                .split(',')
                .map(str::trim)
                .filter(|addr| !addr.is_empty())
                .map(str::to_string)
                .collect();
            if workers.is_empty() {
                return Err(GestError::Config(
                    "--workers needs at least one host:port address".into(),
                ));
            }
        } else if let Some(path) = arg.strip_prefix("--state-dir=") {
            state_dir = PathBuf::from(path);
        } else if let Some(n) = arg.strip_prefix("--max-active=") {
            max_active = n.parse().map_err(|_| {
                GestError::Config(format!("bad --max-active {n:?} (want a number ≥ 1)"))
            })?;
            if max_active == 0 {
                return Err(GestError::Config("--max-active must be at least 1".into()));
            }
        } else if let Some(n) = arg.strip_prefix("--id-seed=") {
            id_seed = n
                .parse()
                .map_err(|_| GestError::Config(format!("bad --id-seed {n:?}")))?;
        } else if let Some(n) = arg.strip_prefix("--max-pending=") {
            max_pending = Some(n.parse().map_err(|_| {
                GestError::Config(format!("bad --max-pending {n:?} (want a number)"))
            })?);
        } else if let Some(n) = arg.strip_prefix("--min-free-mb=") {
            min_free_mb = Some(n.parse().map_err(|_| {
                GestError::Config(format!("bad --min-free-mb {n:?} (want a number)"))
            })?);
        } else if let Some(n) = arg.strip_prefix("--restart-budget=") {
            restart_budget = Some(n.parse().map_err(|_| {
                GestError::Config(format!("bad --restart-budget {n:?} (want a number)"))
            })?);
        } else {
            return Err(GestError::Config(format!("unknown serve flag {arg:?}")));
        }
    }
    let listen = required(listen.as_deref(), "--listen=HOST:PORT")?.to_string();
    let mut options = ServeOptions::new(state_dir.clone());
    options.max_active = max_active;
    options.id_seed = id_seed;
    options.max_pending = max_pending;
    if let Some(mb) = min_free_mb {
        options.min_free_bytes = mb.saturating_mul(1 << 20);
    }
    if let Some(budget) = restart_budget {
        options.restart_budget = budget;
    }
    if !workers.is_empty() {
        let fleet = workers.clone();
        options.backend_factory = Some(Arc::new(move |config_xml: &str| {
            let coordinator =
                connect_workers(&fleet, config_xml.to_string(), Telemetry::disabled(), None)?
                    .expect("non-empty worker list yields a coordinator");
            Ok(coordinator as Arc<dyn EvalBackend>)
        }));
    }
    gest::serve::install_signal_handlers();
    let mut server = ServeServer::start(listen.as_str(), options)
        .map_err(|e| GestError::Config(format!("cannot serve on {listen}: {e}")))?;
    eprintln!(
        "gest serve on http://{}/ — state in {}, up to {} resident run{}{}",
        server.addr(),
        state_dir.display(),
        max_active,
        if max_active == 1 { "" } else { "s" },
        if workers.is_empty() {
            String::new()
        } else {
            format!(", fleet {}", workers.join(","))
        }
    );
    eprintln!(
        "submit with: curl --data-binary @config.xml http://{}/runs",
        server.addr()
    );
    while !gest::serve::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("shutdown signal received; checkpointing active runs");
    server.shutdown();
    Ok(())
}

/// `gest chaos`: the fault-injection soak. Runs the same small search
/// twice — once clean, once distributed under a seeded fault plan with
/// every chaos shim installed (and, when scheduled, the whole in-process
/// worker fleet killed mid-run) — and fails unless the artifacts match
/// byte for byte.
fn cmd_chaos(args: &[String]) -> Result<(), GestError> {
    let mut seed: u64 = 1;
    let mut faults: Option<usize> = None;
    let mut dir: Option<PathBuf> = None;
    let mut workers: usize = 2;
    let mut keep = false;
    let mut serve = false;
    let mut runs: Option<usize> = None;
    for arg in args {
        if let Some(v) = arg.strip_prefix("--seed=") {
            seed = v
                .parse()
                .map_err(|_| GestError::Config(format!("bad seed {v:?}")))?;
        } else if let Some(v) = arg.strip_prefix("--faults=") {
            faults = Some(
                v.parse()
                    .map_err(|_| GestError::Config(format!("bad fault count {v:?}")))?,
            );
        } else if let Some(v) = arg.strip_prefix("--dir=") {
            dir = Some(PathBuf::from(v));
        } else if let Some(v) = arg.strip_prefix("--workers=") {
            workers = v
                .parse()
                .map_err(|_| GestError::Config(format!("bad worker count {v:?}")))?;
            if workers == 0 {
                return Err(GestError::Config(
                    "chaos needs at least one in-process worker".into(),
                ));
            }
        } else if let Some(v) = arg.strip_prefix("--runs=") {
            runs = Some(
                v.parse()
                    .map_err(|_| GestError::Config(format!("bad run count {v:?}")))?,
            );
        } else if arg == "--serve" {
            serve = true;
        } else if arg == "--keep" {
            keep = true;
        } else {
            return Err(GestError::Config(format!("unknown chaos flag {arg:?}")));
        }
    }
    let dir = dir
        .unwrap_or_else(|| std::env::temp_dir().join(format!("gest_chaos_{}", std::process::id())));
    if serve {
        return cmd_chaos_serve(seed, faults, dir, runs, keep);
    }
    let mut options = SoakOptions::new(seed, faults.unwrap_or(12), dir);
    options.workers = workers;
    options.keep_dir = keep;
    eprintln!(
        "chaos soak: seed {seed:#x}, {} scheduled faults, {workers} in-process worker{}",
        options.faults,
        if workers == 1 { "" } else { "s" }
    );
    let report = run_soak(&options)?;
    print!("{report}");
    if !report.byte_identical() {
        return Err(GestError::Backend(format!(
            "chaos soak failed: {} artifact(s) diverged from the fault-free run",
            report.mismatched.len()
        )));
    }
    Ok(())
}

/// `gest chaos --serve`: the serve-layer soak. Boots a real
/// [`ServeServer`] whose backend stack and write path are wrapped in
/// chaos shims, submits several runs over HTTP, and fails unless the
/// server keeps answering, every faulted run lands in a documented
/// terminal state, and every completed run's artifacts are
/// byte-identical to its blocking same-seed reference.
fn cmd_chaos_serve(
    seed: u64,
    faults: Option<usize>,
    dir: PathBuf,
    runs: Option<usize>,
    keep: bool,
) -> Result<(), GestError> {
    let mut options = ServeSoakOptions::new(seed, dir);
    if let Some(faults) = faults {
        options.faults = faults;
    }
    if let Some(runs) = runs {
        if runs == 0 {
            return Err(GestError::Config("--runs must be at least 1".into()));
        }
        options.runs = runs;
    }
    options.keep_dir = keep;
    eprintln!(
        "serve chaos soak: seed {seed:#x}, {} scheduled faults, {} managed run{}",
        options.faults,
        options.runs,
        if options.runs == 1 { "" } else { "s" }
    );
    let report = run_serve_soak(&options)?;
    print!("{report}");
    let mut failures = Vec::new();
    if !report.completed_runs_byte_identical() {
        failures.push("completed runs diverged from their fault-free references");
    }
    if !report.faulted_runs_documented() {
        failures.push("a faulted run landed in an undocumented state");
    }
    if report.distinct_fired() < 4 {
        failures.push("fewer than 4 distinct fault kinds fired");
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(GestError::Backend(format!(
            "serve chaos soak failed: {}",
            failures.join("; ")
        )))
    }
}

fn cmd_run(args: &[String]) -> Result<(), GestError> {
    let flags = parse_search_flags(args, true)?;
    let path = required(flags.positional.as_deref(), "path to config.xml")?;
    let text = std::fs::read_to_string(path)?;
    let mut config = GestConfig::from_xml_str(&text)?;
    // Output directory precedence: --dir beats the configuration's
    // <output dir=...>; when neither names one, allocate a fresh
    // directory under ./gest_runs so artifacts are never silently lost.
    if let Some(dir) = &flags.dir {
        config.output_dir = Some(dir.clone());
    }
    if config.output_dir.is_none() {
        let (id, dir) = RunIdAllocator::from_entropy().allocate_dir(Path::new("gest_runs"))?;
        eprintln!(
            "no output directory configured; allocated {} (run id {id})",
            dir.display()
        );
        config.output_dir = Some(dir);
    }
    if let Some(every) = flags.checkpoint_every {
        if config.output_dir.is_none() {
            return Err(GestError::Config(
                "--checkpoint-every needs an <output dir=...> in the configuration \
                 (the checkpoint lives next to the population files)"
                    .into(),
            ));
        }
        config.checkpoint_every = Some(every);
    }
    let stack = build_telemetry(&flags, config.output_dir.as_deref(), false)?;
    let trace_path = stack.trace_path.clone();
    if let Some(telemetry) = &stack.telemetry {
        config.telemetry = telemetry.clone();
    }
    let status_server = start_status_server(&flags, &stack, &config.telemetry)?;

    eprintln!(
        "machine {}, measurement {}, population {}, loop {}, {} generations{}",
        config.machine.name,
        config.measurement_name,
        config.ga.population_size,
        config.ga.individual_size,
        config.generations,
        config.checkpoint_every.map_or_else(String::new, |every| {
            format!(", checkpoint every {every}")
        }),
    );
    let output_dir = config.output_dir.clone();
    let backend = connect_workers(
        &flags.workers,
        config.to_xml().to_string(),
        config.telemetry.clone(),
        flags.local_fallback_after,
    )?;
    let mut builder = GestRun::builder().config(config);
    if let Some(backend) = backend {
        builder = builder.eval_backend(backend);
    }
    if flags.no_eval_cache {
        builder = builder.eval_cache(false);
    }
    if let Some(width) = flags.lane_width {
        builder = builder.lane_width(width);
    }
    drive(builder.build()?)?;
    drop(status_server);
    print_artifact_locations(output_dir.as_deref(), trace_path.as_deref());
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), GestError> {
    let flags = parse_search_flags(args, false)?;
    let dir = PathBuf::from(required(
        flags.positional.as_deref(),
        "output directory of the interrupted run",
    )?);
    let stack = build_telemetry(&flags, Some(&dir), true)?;
    let trace_path = stack.trace_path.clone();
    let telemetry = stack.telemetry.clone();
    let status_server = start_status_server(
        &flags,
        &stack,
        telemetry.as_ref().unwrap_or(&Telemetry::disabled()),
    )?;
    // The coordinator must fingerprint the exact bytes the resume path
    // fingerprints: the directory's config.xml as-is.
    let backend = if flags.workers.is_empty() {
        None
    } else {
        let raw = std::fs::read_to_string(dir.join("config.xml"))?;
        connect_workers(
            &flags.workers,
            raw,
            telemetry.clone().unwrap_or_else(Telemetry::disabled),
            flags.local_fallback_after,
        )?
    };
    let mut builder = GestRun::builder().resume_from(&dir);
    if let Some(telemetry) = telemetry {
        builder = builder.telemetry(telemetry);
    }
    if let Some(backend) = backend {
        builder = builder.eval_backend(backend);
    }
    if flags.no_eval_cache {
        builder = builder.eval_cache(false);
    }
    if let Some(width) = flags.lane_width {
        builder = builder.lane_width(width);
    }
    let run = builder.build()?;
    eprintln!(
        "resuming {} at generation {}/{}",
        dir.display(),
        run.generation(),
        run.target_generations()
    );
    if run.is_complete() {
        eprintln!("nothing to do: all generations already completed");
    }
    drive(run)?;
    drop(status_server);
    print_artifact_locations(Some(&dir), trace_path.as_deref());
    Ok(())
}

/// `gest top`: poll a run's `--status-addr` endpoint and redraw a console
/// dashboard.
fn cmd_top(args: &[String]) -> Result<(), GestError> {
    let mut addr: Option<String> = None;
    let mut options = TopOptions::default();
    for arg in args {
        if let Some(secs) = arg.strip_prefix("--interval=") {
            let secs: f64 = secs.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| {
                GestError::Config(format!("bad interval {secs:?} (want seconds > 0)"))
            })?;
            options.interval = Duration::from_secs_f64(secs);
        } else if arg == "--once" {
            options.iterations = Some(1);
            options.clear_screen = false;
        } else if arg.starts_with("--") {
            return Err(GestError::Config(format!("unknown top flag {arg:?}")));
        } else if addr.is_none() {
            addr = Some(arg.clone());
        } else {
            return Err(GestError::Config(format!("unexpected argument {arg:?}")));
        }
    }
    let addr = required(addr.as_deref(), "status endpoint address (host:port)")?;
    let mut stdout = std::io::stdout();
    run_top(addr, &options, &mut stdout).map_err(GestError::from)
}

/// Per-span-name aggregate for the report's phase table.
#[derive(Default)]
struct Phase {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// Everything `gest report` prints, accumulated by one streaming pass
/// over the trace. Memory stays proportional to the number of *distinct*
/// metrics, generations, and open spans — not to the event count — so
/// arbitrarily long traces report in bounded space. Counters and
/// histograms take the *last* snapshot seen: checkpoints flush the
/// metrics registry mid-run, so one trace can carry many snapshots of
/// the same (monotonic) metric.
#[derive(Default)]
struct TraceReport {
    skipped: usize,
    events: usize,
    wall_us: u64,
    phases: BTreeMap<String, Phase>,
    /// Open `eval.candidate` spans awaiting their end event.
    eval_starts: BTreeMap<u64, String>,
    /// Longest candidate evaluations, pruned to stay bounded.
    slowest: Vec<(u64, String)>,
    counters: BTreeMap<String, u64>,
    generation_rows: Vec<String>,
    health_rows: Vec<String>,
    histograms: BTreeMap<String, gest::telemetry::HistogramSnapshot>,
}

/// How many slowest-candidate rows the report prints.
const SLOWEST_SHOWN: usize = 5;

impl TraceReport {
    fn fold(&mut self, event: &Event) {
        self.events += 1;
        let field_of = |fields: &[(String, gest::telemetry::FieldValue)], wanted: &str| {
            fields
                .iter()
                .find(|(k, _)| k == wanted)
                .map_or_else(|| "?".to_string(), |(_, v)| v.to_string())
        };
        match event {
            Event::SpanStart {
                id, name, fields, ..
            } if name == "eval.candidate" => {
                self.eval_starts.insert(
                    *id,
                    format!(
                        "candidate {} (generation {}, worker {})",
                        field_of(fields, "candidate"),
                        field_of(fields, "generation"),
                        field_of(fields, "worker")
                    ),
                );
            }
            Event::SpanEnd {
                id,
                name,
                dur_us,
                t_us,
                ..
            } => {
                let phase = self.phases.entry(name.clone()).or_default();
                phase.count += 1;
                phase.total_us += dur_us;
                phase.max_us = phase.max_us.max(*dur_us);
                self.wall_us = self.wall_us.max(*t_us);
                if name == "eval.candidate" {
                    if let Some(label) = self.eval_starts.remove(id) {
                        self.slowest.push((*dur_us, label));
                        if self.slowest.len() > 4 * SLOWEST_SHOWN {
                            self.slowest.sort_by_key(|entry| std::cmp::Reverse(entry.0));
                            self.slowest.truncate(SLOWEST_SHOWN);
                        }
                    }
                }
            }
            Event::Counter { name, value } => {
                self.counters.insert(name.clone(), *value);
            }
            Event::Histogram { name, snapshot } => {
                self.histograms.insert(name.clone(), snapshot.clone());
            }
            Event::Point {
                name, t_us, fields, ..
            } if name == "generation" => {
                self.generation_rows.push(format!(
                    "  {:>9.3} {:>11} {:>13} {:>13}",
                    *t_us as f64 / 1e6,
                    field_of(fields, "generation"),
                    field_of(fields, "best_fitness"),
                    field_of(fields, "mean_fitness"),
                ));
            }
            Event::Point { name, fields, .. } if name == "health" => {
                self.health_rows.push(format!(
                    "  {:>11} {:>11} {:>7} {:>10} {:>12} {:>8}",
                    field_of(fields, "generation"),
                    field_of(fields, "diversity"),
                    field_of(fields, "stall_generations"),
                    if field_of(fields, "plateaued") == "1" {
                        "yes"
                    } else {
                        "no"
                    },
                    field_of(fields, "quarantined"),
                    field_of(fields, "eval_retries"),
                ));
            }
            _ => {}
        }
    }
}

/// Streams a `run_trace.jsonl` file through a [`TraceReport`] line by
/// line — the file is never loaded into memory whole. Unparseable lines
/// (e.g. one torn by a crash) and unknown-schema events are counted, not
/// fatal.
fn stream_trace(path: &str) -> Result<TraceReport, GestError> {
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::new(file);
    let mut report = TraceReport::default();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(report);
        }
        if line.trim().is_empty() {
            continue;
        }
        match Value::parse(line.trim())
            .ok()
            .as_ref()
            .and_then(Event::from_json)
        {
            Some(event) => report.fold(&event),
            None => report.skipped += 1,
        }
    }
}

fn cmd_report(path: Option<&str>) -> Result<(), GestError> {
    let path = required(path, "path to run_trace.jsonl")?;
    let mut report = stream_trace(path)?;
    let skipped = report.skipped;
    if skipped > 0 {
        eprintln!(
            "warning: skipped {skipped} unparseable line{} in {path:?} \
             (a crashed run can truncate its final line); reporting on what parsed",
            if skipped == 1 { "" } else { "s" }
        );
    }
    if report.events == 0 {
        return Err(GestError::Config(format!(
            "no telemetry events found in {path:?}"
        )));
    }

    // --- Time per phase: closed spans aggregated by name. ---
    let wall_us = report.wall_us;
    println!("trace: {path}");
    println!("wall clock: {:.3} s\n", wall_us as f64 / 1e6);
    println!("time per phase");
    println!(
        "  {:<16} {:>7} {:>12} {:>12} {:>12} {:>7}",
        "span", "count", "total(ms)", "mean(ms)", "max(ms)", "%wall"
    );
    for (name, phase) in &report.phases {
        let total_ms = phase.total_us as f64 / 1e3;
        println!(
            "  {:<16} {:>7} {:>12.2} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            phase.count,
            total_ms,
            total_ms / phase.count as f64,
            phase.max_us as f64 / 1e3,
            if wall_us > 0 {
                100.0 * phase.total_us as f64 / wall_us as f64
            } else {
                0.0
            },
        );
    }

    // --- Slowest candidate evaluations. ---
    if !report.slowest.is_empty() {
        report
            .slowest
            .sort_by_key(|entry| std::cmp::Reverse(entry.0));
        println!("\nslowest candidate evaluations");
        for (dur_us, label) in report.slowest.iter().take(SLOWEST_SHOWN) {
            println!("  {:>10.3} ms  {label}", *dur_us as f64 / 1e3);
        }
    }

    // --- GA operator mix and other counters (latest snapshot each). ---
    let counters_with_prefix = |prefix: &str| -> Vec<(&String, &u64)> {
        report
            .counters
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .collect()
    };
    let ga = counters_with_prefix("ga.");
    if !ga.is_empty() {
        println!("\noperator mix");
        for (name, value) in ga {
            println!("  {:<24} {value:>10}", name.trim_start_matches("ga."));
        }
    }
    let cache = counters_with_prefix("evalcache.");
    if !cache.is_empty() {
        println!("\nevaluation cache");
        for (name, value) in &cache {
            println!(
                "  {:<24} {value:>10}",
                name.trim_start_matches("evalcache.")
            );
        }
        let find = |wanted: &str| report.counters.get(wanted).copied();
        if let (Some(hits), Some(misses)) = (find("evalcache.hits"), find("evalcache.misses")) {
            if hits + misses > 0 {
                println!(
                    "  {:<24} {:>9.1}%",
                    "hit rate",
                    100.0 * hits as f64 / (hits + misses) as f64
                );
            }
        }
    }
    let workers = counters_with_prefix("eval.worker.");
    if !workers.is_empty() {
        println!("\nthread utilization (candidates per worker)");
        for (name, value) in workers {
            println!("  {name:<24} {value:>10}");
        }
    }

    // --- Convergence vs wall clock, from generation points. ---
    if !report.generation_rows.is_empty() {
        println!("\nconvergence vs wall clock");
        println!(
            "  {:>9} {:>11} {:>13} {:>13}",
            "t(s)", "generation", "best", "mean"
        );
        for row in &report.generation_rows {
            println!("{row}");
        }
    }

    // --- Search health, from per-generation health points. ---
    if !report.health_rows.is_empty() {
        println!("\nsearch health");
        println!(
            "  {:>11} {:>11} {:>7} {:>10} {:>12} {:>8}",
            "generation", "diversity", "stall", "plateaued", "quarantined", "retries"
        );
        for row in &report.health_rows {
            println!("{row}");
        }
    }

    // --- Histogram summaries with interpolated percentiles (eval
    // latency, simulator stats). ---
    if !report.histograms.is_empty() {
        println!("\ndistributions");
        println!(
            "  {:<24} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "metric", "n", "mean", "min", "p50", "p95", "p99", "max"
        );
        for (name, snapshot) in &report.histograms {
            println!(
                "  {:<24} {:>7} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4}",
                name,
                snapshot.count,
                snapshot.mean(),
                snapshot.min,
                snapshot.quantile(0.50),
                snapshot.quantile(0.95),
                snapshot.quantile(0.99),
                snapshot.max
            );
        }
    }
    Ok(())
}

fn cmd_stats(dir: Option<&str>) -> Result<(), GestError> {
    let dir = required(dir, "output directory")?;
    let generation_stats = stats::analyze_dir(Path::new(dir))?;
    if generation_stats.is_empty() {
        println!("no population files found in {dir}");
    } else {
        print!("{}", stats::render_report(&generation_stats));
    }
    Ok(())
}

fn cmd_show(path: Option<&str>, count: Option<&str>) -> Result<(), GestError> {
    let path = required(path, "population file")?;
    let count: usize = count.map_or(Ok(1), |c| {
        c.parse()
            .map_err(|_| GestError::Config(format!("bad count {c:?}")))
    })?;
    let population = SavedPopulation::load(Path::new(path))?;
    let mut individuals: Vec<_> = population.individuals.iter().collect();
    individuals.sort_by(|a, b| b.fitness.total_cmp(&a.fitness));
    println!(
        "generation {}, {} individuals",
        population.generation,
        individuals.len()
    );
    for individual in individuals.into_iter().take(count) {
        println!(
            "\n; individual {} — fitness {:.5}, measurements {:?}, parents {:?}",
            individual.id, individual.fitness, individual.measurements, individual.parents
        );
        for gene in &individual.genes {
            println!("{gene}");
        }
    }
    Ok(())
}

fn cmd_machines() -> Result<(), GestError> {
    println!(
        "{:<12} {:>8} {:>6} {:>8} {:>7} {:>6} {:>9} {:>6}",
        "name", "clock", "width", "ooo", "window", "cores", "L1D(KiB)", "PDN"
    );
    for machine in MachineConfig::all_presets() {
        println!(
            "{:<12} {:>5.1}GHz {:>6} {:>8} {:>7} {:>6} {:>9} {:>6}",
            machine.name,
            machine.clock_hz / 1e9,
            machine.width,
            machine.out_of_order,
            machine.window,
            machine.cores,
            machine.l1d.size_bytes / 1024,
            machine.pdn.is_some(),
        );
    }
    Ok(())
}

fn cmd_workloads(machine: Option<&str>) -> Result<(), GestError> {
    let name = machine.unwrap_or("xgene2");
    let machine = MachineConfig::all_presets()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| GestError::Config(format!("unknown machine {name:?}")))?;
    let has_pdn = machine.pdn.is_some();
    let simulator = Simulator::new(machine);
    println!(
        "{:<24} {:>6} {:>9} {:>9} {:>9} {:>10}",
        "workload", "ipc", "power(W)", "chip(W)", "temp(C)", "noise(mV)"
    );
    for workload in gest::workloads::all() {
        let result = simulator.run(&workload.program, &RunConfig::default())?;
        let noise = result
            .voltage_peak_to_peak()
            .map_or_else(|| "-".to_owned(), |v| format!("{:.1}", v * 1e3));
        println!(
            "{:<24} {:>6.2} {:>9.3} {:>9.2} {:>9.1} {:>10}",
            workload.name,
            result.ipc,
            result.avg_power_w,
            result.chip_power_w,
            result.temperature_c,
            if has_pdn { noise } else { "-".into() },
        );
    }
    let _ = InstrClass::ALL; // keep the import meaningful if formats change
    Ok(())
}
