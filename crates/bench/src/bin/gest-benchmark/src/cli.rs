//! The CLI workloads, `fleet` and `serve`: the sibling `gest` binary driven
//! as a user drives it, timed from its stderr lines and its HTTP API.

use crate::cases::{audit, round_seed, step_to_end, Budget, Case, CASES};
use crate::inproc::cache_microbench;
use crate::procfs::vm_hwm_mb;
use crate::stats::{fnv1a64, median, percentile_of, sorted, WorkloadReport};
use crate::trace::TraceTotals;
use crate::{Layers, Observed};
use gest::core::{GestConfig, GestRun, SavedPopulation};
use gest::obs::http_request;
use gest::telemetry::json::Value;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The workspace manifest the `gest` binary is built from.
const WORKSPACE_MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../Cargo.toml");

/// Per-request timeout of the HTTP client.
const HTTP_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a child may take to start listening.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// The client's status-poll period while serve runs step.
const POLL_PERIOD: Duration = Duration::from_millis(50);

/// A started `gest` process, killed and reaped when dropped so no early
/// return leaves one running.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Where a CLI workload runs: the `gest` binary next to this executable,
/// and a scratch directory under the build's target directory, removed
/// when dropped.
struct Env {
    gest: PathBuf,
    work: PathBuf,
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

impl Env {
    /// Builds the `gest` binary into this executable's target directory
    /// (a no-op when it is current) and makes a fresh scratch directory.
    fn new(workload: &str) -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
        let bin_dir = exe.parent().ok_or("executable has no directory")?;
        let target_dir = bin_dir
            .parent()
            .ok_or("executable is not in a target directory")?;
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "gest",
            ])
            .arg("--manifest-path")
            .arg(WORKSPACE_MANIFEST)
            .env("CARGO_TARGET_DIR", target_dir)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo to build gest: {e}"))?;
        if !status.success() {
            return Err(format!("building the gest binary failed ({status})"));
        }
        let work = target_dir
            .join("gest-benchmark-work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Env {
            gest: bin_dir.join("gest"),
            work,
        })
    }

    /// Starts `gest ARGS` with stderr captured to `work/LOG`, then waits
    /// for the stderr line starting with `banner` and returns the address
    /// that follows it (up to `end`).
    fn spawn_listener(
        &self,
        args: &[String],
        log: &str,
        banner: &str,
        end: char,
    ) -> Result<(Proc, String), String> {
        let log = self.work.join(log);
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(&self.gest)
            .args(args)
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.gest.display()))?;
        let mut proc = Proc(child);
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            let addr = text.lines().find_map(|line| {
                let rest = line.strip_prefix(banner)?;
                Some(rest.split(end).next()?.to_string())
            });
            if let Some(addr) = addr {
                return Ok((proc, addr));
            }
            if let Ok(Some(status)) = proc.0.try_wait() {
                return Err(format!("gest {} exited ({status}): {text}", args[0]));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(format!("gest {} printed no banner: {text}", args[0]));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// One search a round submits: its configuration and that as XML.
struct Job {
    case: Case,
    config: GestConfig,
    xml: String,
    /// Whether this is the run seed's search, whose digest is reported.
    base: bool,
}

impl Job {
    fn new(case: Case, budget: Budget, seed: u64, base: bool) -> Result<Job, String> {
        let config = case.config(budget, seed).map_err(|e| e.to_string())?;
        let xml = config.to_xml().to_string();
        Ok(Job {
            case,
            config,
            xml,
            base,
        })
    }

    /// Audits a final population file's bytes, and records its digest for
    /// the run seed's search.
    fn settle(&self, bytes: &[u8], observed: &mut Observed) {
        match SavedPopulation::decode(bytes) {
            Ok(population) => observed.audit(audit(&self.config, &population)),
            Err(error) => observed.audit(Err(format!(
                "{} population does not decode: {error}",
                self.case.machine
            ))),
        }
        if self.base {
            observed.check(self.case.machine, fnv1a64(bytes));
        }
    }
}

/// Pins each case's digest for the run seed from an in-process search,
/// and runs the cache microbenchmark over the first case's keys when
/// traced. Called after the timed rounds: a burst of in-process
/// evaluation right before them would start the first in a slow spell.
fn references(
    cases: &[Case],
    budget: Budget,
    seed: u64,
    traced: bool,
    observed: &mut Observed,
) -> Result<(), String> {
    for (index, case) in cases.iter().enumerate() {
        let config = case.config(budget, seed).map_err(|e| e.to_string())?;
        let keep = traced && index == 0;
        let run = GestRun::builder()
            .config(config.clone())
            .build()
            .map_err(|e| e.to_string())?;
        let stepped = step_to_end(run, keep).map_err(|e| e.to_string())?;
        observed.reference(case.machine, stepped.digest());
        if keep {
            cache_microbench(&config, &stepped.genes, &mut observed.layers);
        }
    }
    Ok(())
}

/// Total size of the files under `dir`, MB.
fn dir_mb(dir: &Path) -> f64 {
    let mut bytes = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(entry.path()),
                Ok(meta) => bytes += meta.len(),
                Err(_) => {}
            }
        }
    }
    bytes as f64 / 1e6
}

/// The two fleet searches: the A15 power virus and the Athlon dI/dt virus.
const FLEET_CASES: [Case; 2] = [CASES[0], CASES[3]];

/// One `gest run --workers` search as the client saw it.
struct CliSearch {
    setup_s: f64,
    total_s: f64,
    gaps_ms: Vec<f64>,
    peak_rss_mb: f64,
    population: Vec<u8>,
}

/// Runs one distributed search to completion, timestamping each
/// `generation N:` stderr line as it arrives.
fn cli_search(
    env: &Env,
    config: &Path,
    workers: &str,
    out: &Path,
    trace: Option<&Path>,
    generations: u32,
) -> Result<CliSearch, String> {
    let mut command = Command::new(&env.gest);
    command
        .arg("run")
        .arg(config)
        .arg(format!("--workers={workers}"))
        .arg(format!("--dir={}", out.display()));
    if let Some(trace) = trace {
        command.arg(format!("--trace={}", trace.display()));
    }
    let spawned = Instant::now();
    let child = command
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start gest run: {e}"))?;
    let mut proc = Proc(child);
    let pid = proc.0.id();
    let stderr = proc.0.stderr.take().expect("stderr is piped");
    let mut stamps = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let mut log = String::new();
    for line in BufReader::new(stderr).lines() {
        let line = line.map_err(|e| format!("reading gest run stderr: {e}"))?;
        let at = spawned.elapsed().as_secs_f64();
        let generation = line
            .strip_prefix("generation ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|index| index.trim().parse::<u32>().ok());
        if let Some(generation) = generation {
            stamps.push(at);
            if generation + 1 == generations {
                // The last chance to read the coordinator's peak before
                // it exits.
                peak_rss_mb = vm_hwm_mb(pid).unwrap_or(f64::NAN);
            }
        } else {
            log.push_str(&line);
            log.push('\n');
        }
    }
    let status = proc
        .0
        .wait()
        .map_err(|e| format!("waiting for gest run: {e}"))?;
    let total_s = spawned.elapsed().as_secs_f64();
    if !status.success() || stamps.len() != generations as usize {
        return Err(format!(
            "gest run exited ({status}) after {} of {generations} generations: {log}",
            stamps.len()
        ));
    }
    let last = out.join(format!("population_{:04}.bin", generations - 1));
    let population = std::fs::read(&last).map_err(|e| format!("{}: {e}", last.display()))?;
    Ok(CliSearch {
        setup_s: stamps[0],
        total_s,
        gaps_ms: stamps.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect(),
        peak_rss_mb,
        population,
    })
}

/// What one fleet round saw.
#[derive(Default)]
struct FleetRound {
    search_s: f64,
    peak_rss_mb: f64,
    totals: TraceTotals,
    written_mb: f64,
}

/// Runs each job once over the worker pair. A traced round passes
/// `--trace` and reads what an untraced one only deletes.
fn fleet_round(
    env: &Env,
    jobs: &[Job],
    workers: &str,
    traced: bool,
    budget: Budget,
    observed: &mut Observed,
) -> FleetRound {
    let mut seen = FleetRound::default();
    for job in jobs {
        let config = env.work.join(format!("{}.xml", job.case.machine));
        let out = env.work.join(format!("out-{}", job.case.machine));
        let trace = traced.then(|| env.work.join(format!("{}.jsonl", job.case.machine)));
        observed.attempted += 1;
        let search = std::fs::write(&config, &job.xml)
            .map_err(|e| format!("{}: {e}", config.display()))
            .and_then(|()| {
                cli_search(
                    env,
                    &config,
                    workers,
                    &out,
                    trace.as_deref(),
                    budget.generations,
                )
            });
        match search {
            Ok(search) => {
                seen.search_s += search.total_s;
                seen.peak_rss_mb = seen.peak_rss_mb.max(search.peak_rss_mb);
                job.settle(&search.population, observed);
                if !traced {
                    observed.setup_s.push(search.setup_s);
                    observed.generation_ms.extend(&search.gaps_ms);
                }
            }
            Err(error) => {
                eprintln!(
                    "gest-benchmark: fleet {} search failed: {error}",
                    job.case.machine
                );
                observed.failed += 1;
            }
        }
        if let Some(trace) = &trace {
            seen.written_mb += dir_mb(&out);
            if let Err(error) = seen.totals.add_file(trace) {
                eprintln!("gest-benchmark: {}: {error}", trace.display());
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
    seen
}

/// `fleet`: `gest run --workers=A,B` against two loopback `gest worker`
/// processes, artifacts written. A round is one search, alternating
/// between the cases (a cycle of both shares one seed), so the median over
/// rounds sheds the multi-second slow spells loopback scheduling puts some
/// searches through.
pub fn fleet(
    budget: Budget,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<WorkloadReport, String> {
    let env = Env::new("fleet")?;
    let mut observed = Observed::new(budget, 1);
    let mut workers = Vec::new();
    let mut addrs = Vec::new();
    for index in 0..2 {
        let args = vec!["worker".to_string(), "--listen=127.0.0.1:0".to_string()];
        let (proc, addr) =
            env.spawn_listener(&args, &format!("worker{index}.log"), "gest worker on ", ' ')?;
        workers.push(proc);
        addrs.push(addr);
    }
    let addrs = addrs.join(",");
    let mut peak_rss_mb = 0.0f64;
    let started = Instant::now();
    // Whole cycles only, so each case weighs the same in the median.
    while !observed.rounds().is_multiple_of(FLEET_CASES.len())
        || observed.rounds() == 0
        || started.elapsed().as_secs_f64() < seconds
    {
        let round = observed.rounds();
        let cycle = round / FLEET_CASES.len();
        let job = Job::new(
            FLEET_CASES[round % FLEET_CASES.len()],
            budget,
            round_seed(seed, cycle),
            cycle == 0,
        )?;
        let seen = fleet_round(&env, &[job], &addrs, false, budget, &mut observed);
        peak_rss_mb = peak_rss_mb.max(seen.peak_rss_mb);
        observed.round(1, seen.search_s);
    }
    if traced {
        let jobs = FLEET_CASES
            .iter()
            .map(|case| Job::new(*case, budget, seed, true))
            .collect::<Result<Vec<_>, _>>()?;
        let seen = fleet_round(&env, &jobs, &addrs, true, budget, &mut observed);
        observed.traced_round(jobs.len(), seen.search_s);
        fleet_layers(&mut observed.layers, &seen, budget, jobs.len());
    }
    for worker in &workers {
        peak_rss_mb = peak_rss_mb.max(vm_hwm_mb(worker.0.id()).unwrap_or(0.0));
    }
    drop(workers);
    observed.peak_rss_mb = peak_rss_mb;
    references(&FLEET_CASES, budget, seed, traced, &mut observed)?;
    Ok(observed.report(budget, seed))
}

/// Per-layer metrics of a traced fleet round, from the coordinator traces.
fn fleet_layers(layers: &mut Layers, seen: &FleetRound, budget: Budget, searches: usize) {
    let totals = &seen.totals;
    let request = totals.span("dist.request");
    let request_us = request.sum_us as f64;
    let measures = totals.worker_measure_us.len() as f64;
    let measure_us: f64 = totals.worker_measure_us.iter().map(|&us| us as f64).sum();
    let candidates = (budget.candidates() * searches as u64) as f64;
    layers.spans(totals);
    // Two single-threaded workers are the backend's slots.
    layers.eval_overhead(totals, 2.0, request_us, candidates);
    layers.per("dist.request_us", request_us, request.count as f64);
    layers.per("dist.worker_measure_us", measure_us, measures);
    layers.per(
        "dist.overhead_us",
        request_us - measure_us,
        request.count as f64,
    );
    layers.set("dist.retries", totals.counter("dist.retries") as f64);
    layers.per("sim.candidate_us", measure_us, measures);
    layers.per(
        "sim.share",
        measure_us,
        totals.span("generation").sum_us as f64 * 2.0,
    );
    let hits = totals.counter("evalcache.hits") as f64;
    layers.per(
        "cache.hit_rate",
        hits,
        hits + totals.counter("evalcache.misses") as f64,
    );
    layers.per("output.mb_written", seen.written_mb, searches as f64);
}

/// One HTTP exchange against the service, counted as an operation; a
/// transport error or a status other than `expect` is a failed one.
/// Returns the latency in milliseconds and the body.
fn call(
    observed: &mut Observed,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    expect: u16,
) -> Option<(f64, Vec<u8>)> {
    observed.attempted += 1;
    let started = Instant::now();
    let response = http_request(addr, method, path, body, HTTP_TIMEOUT);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    match response {
        Ok((status, body)) if status == expect => Some((ms, body)),
        Ok((status, body)) => {
            eprintln!(
                "gest-benchmark: {method} {path} answered {status}: {}",
                String::from_utf8_lossy(&body).trim()
            );
            observed.failed += 1;
            None
        }
        Err(error) => {
            eprintln!("gest-benchmark: {method} {path} failed: {error}");
            observed.failed += 1;
            None
        }
    }
}

fn json(body: &[u8]) -> Value {
    Value::parse(String::from_utf8_lossy(body).trim()).unwrap_or(Value::Null)
}

/// What one serve round saw.
#[derive(Default)]
struct ServeRound {
    search_s: f64,
    submit_ms: Vec<f64>,
    api_ms: Vec<f64>,
    totals: TraceTotals,
    written_mb: f64,
    evictions: f64,
    activations: f64,
    peak_rss_mb: f64,
}

impl ServeRound {
    /// Generation latencies from the runs' own traces, milliseconds.
    fn generation_ms(&self) -> Vec<f64> {
        self.totals
            .generation_us
            .iter()
            .map(|&us| us as f64 / 1e3)
            .collect()
    }
}

/// Starts `gest serve` and waits for its first accepted request; returns
/// the process, its address, and the time from spawn to that request.
fn start_serve(env: &Env, state: &Path) -> Result<(Proc, String, f64), String> {
    let spawned = Instant::now();
    let args = vec![
        "serve".to_string(),
        "--listen=127.0.0.1:0".to_string(),
        "--max-active=2".to_string(),
        format!("--state-dir={}", state.display()),
    ];
    let (proc, addr) = env.spawn_listener(&args, "serve.log", "gest serve on http://", '/')?;
    loop {
        let answered = http_request(&addr, "GET", "/status", &[], HTTP_TIMEOUT)
            .is_ok_and(|(code, _)| code == 200);
        if answered {
            return Ok((proc, addr, spawned.elapsed().as_secs_f64()));
        }
        if spawned.elapsed() > START_TIMEOUT {
            return Err("gest serve never answered GET /status".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One serve round: a fresh service, every job submitted at once, each run
/// polled every 50 ms until terminal, artifacts audited, the runs' traces
/// read.
///
/// # Errors
///
/// A service that does not start, or a run the client loses track of.
fn serve_round(
    env: &Env,
    state: &Path,
    jobs: &[Job],
    observed: &mut Observed,
) -> Result<ServeRound, String> {
    observed.attempted += 1;
    let (proc, addr, setup_s) = start_serve(env, state).inspect_err(|_| observed.failed += 1)?;
    observed.setup_s.push(setup_s);
    let mut round = ServeRound::default();
    let started = Instant::now();
    let mut pending = Vec::new();
    for job in jobs {
        if let Some((ms, reply)) = call(observed, &addr, "POST", "/runs", job.xml.as_bytes(), 201) {
            round.submit_ms.push(ms);
            let reply = json(&reply);
            let field = |key: &str| reply.get(key).and_then(Value::as_str).map(str::to_string);
            match (field("id"), field("dir")) {
                (Some(id), Some(dir)) => pending.push((job, id, PathBuf::from(dir))),
                _ => observed.audit(Err("POST /runs reply lacks id or dir".into())),
            }
        }
    }
    // Each accepted run is an operation of its own: it fails unless done.
    observed.attempted += pending.len() as u64;
    let mut done = Vec::new();
    let mut last_done = started;
    while !pending.is_empty() {
        let tick = Instant::now();
        let mut still = Vec::new();
        for (job, id, dir) in pending {
            let Some((ms, body)) = call(observed, &addr, "GET", &format!("/runs/{id}"), &[], 200)
            else {
                return Err(format!("lost track of serve run {id}"));
            };
            round.api_ms.push(ms);
            match json(&body).get("state").and_then(Value::as_str) {
                Some("done") => {
                    last_done = Instant::now();
                    done.push((job, id, dir));
                }
                Some("pending" | "running") => still.push((job, id, dir)),
                other => {
                    eprintln!("gest-benchmark: serve run {id} ended {other:?}");
                    observed.failed += 1;
                }
            }
        }
        pending = still;
        if let Some(rest) = POLL_PERIOD.checked_sub(tick.elapsed()) {
            std::thread::sleep(rest);
        }
    }
    round.search_s = (last_done - started).as_secs_f64();
    for (job, id, dir) in &done {
        let path = format!("/runs/{id}/artifacts/population");
        if let Some((_, bytes)) = call(observed, &addr, "GET", &path, &[], 200) {
            job.settle(&bytes, observed);
        }
        if let Err(error) = round.totals.add_file(&dir.join("run_trace.jsonl")) {
            eprintln!("gest-benchmark: trace of serve run {id}: {error}");
        }
        round.written_mb += dir_mb(dir);
    }
    if let Some((_, body)) = call(observed, &addr, "GET", "/status", &[], 200) {
        let status = json(&body);
        let counter = |name: &str| {
            status
                .get("serve")
                .and_then(|serve| serve.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        round.evictions = counter("evictions");
        round.activations = counter("activations");
    }
    round.peak_rss_mb = vm_hwm_mb(proc.0.id()).unwrap_or(f64::NAN);
    Ok(round)
}

/// `serve`: `gest serve --max-active=2` with the four configurations
/// submitted at once over HTTP by one polling client; round `r` submits
/// them with [`round_seed`]`(seed, r)`.
pub fn serve(
    budget: Budget,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<WorkloadReport, String> {
    let env = Env::new("serve")?;
    let mut observed = Observed::new(budget, CASES.len());
    let mut peak_rss_mb = 0.0f64;
    let mut round = |observed: &mut Observed, seed: u64, base: bool| {
        let jobs = CASES
            .iter()
            .map(|case| Job::new(*case, budget, seed, base))
            .collect::<Result<Vec<_>, _>>()?;
        let state = env.work.join(format!("state{}", observed.rounds()));
        let seen = serve_round(&env, &state, &jobs, observed);
        let _ = std::fs::remove_dir_all(&state);
        let seen = seen?;
        peak_rss_mb = peak_rss_mb.max(seen.peak_rss_mb);
        Ok::<_, String>(seen)
    };
    let started = Instant::now();
    while observed.rounds() == 0 || started.elapsed().as_secs_f64() < seconds {
        let index = observed.rounds();
        let seen = round(&mut observed, round_seed(seed, index), index == 0)?;
        observed.generation_ms.extend(seen.generation_ms());
        observed.round(1, seen.search_s);
    }
    if traced {
        let seen = round(&mut observed, seed, true)?;
        observed.traced_round(1, seen.search_s);
        serve_layers(&mut observed.layers, &seen);
    }
    observed.peak_rss_mb = peak_rss_mb;
    references(&CASES, budget, seed, traced, &mut observed)?;
    Ok(observed.report(budget, seed))
}

/// Per-layer metrics of a traced serve round. The runner's backend time is
/// invisible from outside the service, so `runner.eval_overhead_us` is
/// left to the other workloads.
fn serve_layers(layers: &mut Layers, seen: &ServeRound) {
    let totals = &seen.totals;
    layers.spans(totals);
    let hits = totals.counter("evalcache.hits") as f64;
    layers.per(
        "cache.hit_rate",
        hits,
        hits + totals.counter("evalcache.misses") as f64,
    );
    layers.per("output.mb_written", seen.written_mb, CASES.len() as f64);
    layers.per(
        "serve.submit_ms",
        seen.submit_ms.iter().sum(),
        seen.submit_ms.len() as f64,
    );
    let generation_ms = seen.generation_ms();
    layers.per(
        "serve.generation_ms",
        generation_ms.iter().sum(),
        generation_ms.len() as f64,
    );
    let api = sorted(&seen.api_ms);
    layers.set("serve.api_p50_ms", median(&api));
    layers.set("serve.api_p95_ms", percentile_of(&api, 95.0));
    layers.set("serve.evictions", seen.evictions);
    layers.set("serve.activations", seen.activations);
}
