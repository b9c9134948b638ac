//! The top-level simulator: functional execution + timing + power +
//! thermal + PDN, producing a [`RunResult`].

use crate::cache::DataCache;
use crate::machine::MachineConfig;
use crate::pdn::Pdn;
use crate::pipeline::{BranchResolution, Decoded, Pipeline, PipelineSnapshot};
use crate::power::EnergyModel;
use crate::predictor::BranchPredictor;
use crate::result::{RunConfig, RunResult, SimError};
use crate::thermal::ThermalSchedule;
use gest_isa::{ArchState, Effect, Flow, InstrClass, Instruction, Program};
use std::collections::VecDeque;

/// Per-cycle waveforms captured by [`Simulator::run_traced`] — the
/// substrate's oscilloscope/data-logger output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Traces {
    /// Instantaneous power per cycle (watts), including static power.
    pub power_w: Vec<f32>,
    /// Die voltage per cycle (volts); empty when the machine has no PDN.
    pub voltage_v: Vec<f32>,
}

/// One executed instruction's observable timing/energy echo, relative to
/// its iteration's starting fetch cycle. The recorded echoes of a steady
/// block of iterations are what the analytic replay re-applies.
#[derive(Debug, Clone, Copy)]
struct EchoRec {
    pc: u32,
    effect: Effect,
    /// L1 hit (only meaningful when the effect has a memory access).
    hit: bool,
    /// Branch prediction correct (`true` for non-branches).
    correct: bool,
    /// Attributed dynamic energy, bit-exact.
    energy_bits: u64,
    /// Issue cycle minus the iteration's starting fetch cycle.
    rel_issue: u64,
    /// Elapsed cycles (running max completion) after this instruction,
    /// minus the starting fetch cycle; signed because the running max can
    /// trail the fetch cycle after a mispredict redirect.
    rel_elapsed: i64,
}

/// One completed iteration's archived echo stream: the records themselves
/// (the replay unit) and the iteration's starting fetch cycle. Archived
/// only while a snapshot confirmation is pending, so the per-instruction
/// recording cost is paid by near-steady runs, not by every run.
#[derive(Debug)]
struct IterEcho {
    recs: Vec<EchoRec>,
    start_ref: u64,
}

/// Cheap per-iteration-boundary periodicity prefilter: a multiply–xor fold
/// of the architectural registers plus the O(1) incremental memory hash and
/// the iteration's fetch-timing signature (length and intra-cycle phase,
/// both shift-invariant). Repeating fingerprints only *schedule* snapshot
/// captures — correctness rests on the full snapshot match — so a collision
/// can at worst waste one of the bounded capture attempts, and a missed
/// repeat only delays arming.
fn state_fingerprint(state: &ArchState, fetch_len: u64, fetch_phase: u64) -> u64 {
    const K0: u64 = 0x9e37_79b9_7f4a_7c15;
    const K1: u64 = 0xc2b2_ae3d_27d4_eb4f;
    // Two independent fold lanes keep the multiply chains pipelined.
    let mut a = state.mem_hash() ^ fetch_len.rotate_left(32) ^ fetch_phase;
    let mut b = 0x2545_f491_4f6c_dd1d_u64;
    for pair in state.xregs().chunks(2) {
        a = (a ^ pair[0]).wrapping_mul(K0);
        if let Some(&x1) = pair.get(1) {
            b = (b ^ x1).wrapping_mul(K1);
        }
    }
    for v in state.vregs() {
        a = (a ^ v[0]).wrapping_mul(K0);
        b = (b ^ v[1]).wrapping_mul(K1);
    }
    (a ^ b.rotate_left(31)).wrapping_mul(K0)
}

/// Full machine state captured at an iteration boundary, normalized to
/// the boundary's fetch cycle. Two matching snapshots k iterations apart
/// prove the loop has reached a period-k fixed point: execution is
/// deterministic, so from equal (time-shifted) states the machine must
/// retrace the k archived iterations forever.
#[derive(Debug, Clone, Default)]
struct SteadySnapshot {
    /// Absolute fetch cycle at capture; excluded from [`matches`](Self::matches).
    ref_cycle: u64,
    xregs: Vec<u64>,
    vregs: Vec<[u64; 2]>,
    /// Incremental content hash of the memory image
    /// ([`ArchState::mem_hash`]) — O(1) to capture and compare where a
    /// byte-for-byte copy would dominate the detector's cost. Two distinct
    /// images collide with probability ~2⁻⁶⁴, far below the simulator's
    /// other modelling error.
    mem_hash: u64,
    pipeline: PipelineSnapshot,
    cache_sig: Vec<(u64, u8)>,
    predictor: Vec<u8>,
}

impl SteadySnapshot {
    fn capture(
        &mut self,
        pipeline: &Pipeline,
        state: &ArchState,
        cache: &DataCache,
        predictor: &BranchPredictor,
    ) {
        self.ref_cycle = pipeline.fetch_cycle();
        self.xregs.clear();
        self.xregs.extend_from_slice(state.xregs());
        self.vregs.clear();
        self.vregs.extend_from_slice(state.vregs());
        self.mem_hash = state.mem_hash();
        pipeline.capture_steady(&mut self.pipeline);
        cache.lru_signature(&mut self.cache_sig);
        self.predictor.clear();
        self.predictor.extend_from_slice(predictor.counters());
    }

    /// Equality up to a time shift.
    fn matches(&self, other: &SteadySnapshot) -> bool {
        self.xregs == other.xregs
            && self.vregs == other.vregs
            && self.mem_hash == other.mem_hash
            && self.pipeline == other.pipeline
            && self.cache_sig == other.cache_sig
            && self.predictor == other.predictor
    }
}

/// One static body instruction, prepared once per run: the instruction
/// itself (operands inline, executed directly), its scheduling metadata on
/// this machine, and its index in [`InstrClass::ALL`].
#[derive(Debug, Clone, Copy)]
struct BodyOp {
    instr: Instruction,
    timing: Decoded,
    class_idx: usize,
}

/// The reusable run buffers: the prepared body ops, the per-cycle energy
/// waveform and the steady-state detector's rings and snapshots. Every run
/// clears each buffer before reading it, so nothing one program leaves here
/// reaches the next.
#[derive(Debug, Default)]
struct RunBuffers {
    cycle_energy_pj: Vec<f64>,
    ops: Vec<BodyOp>,
    cur_echo: Vec<EchoRec>,
    history: VecDeque<IterEcho>,
    spare: Vec<Vec<EchoRec>>,
    /// Ring of recent iteration-boundary [`state_fingerprint`] values.
    fps: VecDeque<u64>,
    prev_snap: SteadySnapshot,
    cur_snap: SteadySnapshot,
}

/// Reusable state for [`Simulator::run_with_scratch`]: one set of run
/// buffers, which successive runs use one after another, plus the memoized
/// thermal hold schedule, a deterministic function of the machine and run
/// configuration.
#[derive(Debug, Default)]
pub struct RunScratch {
    buffers: RunBuffers,
    /// Memoized thermal hold schedule (per machine + hold duration).
    thermal: Option<ThermalSchedule>,
    /// Runs performed through this scratch.
    pub runs: u64,
    /// Runs in which the steady-state detector fired.
    pub steady_hits: u64,
    /// Loop iterations synthesized analytically instead of executed.
    pub extrapolated_iterations: u64,
}

impl RunScratch {
    /// Creates an empty scratch.
    pub fn new() -> RunScratch {
        RunScratch::default()
    }
}

/// Grows `v` to cover `slot` with zeros: the length in steps of at least
/// `SLOT_CHUNK` issue cycles, the capacity by doubling at minimum, so long
/// runs neither resize once per issue cycle nor pay O(n²) byte traffic.
/// Zeros past the last issued cycle are harmless: `finalize` truncates the
/// waveform to the run's cycle count, and every issue cycle lies below it.
#[inline]
fn ensure_slot(v: &mut Vec<f64>, slot: usize) {
    if slot >= v.len() {
        grow_slots(v, slot);
    }
}

const SLOT_CHUNK: usize = 256;

#[cold]
fn grow_slots(v: &mut Vec<f64>, slot: usize) {
    let len = (slot + 1).max(v.len() + SLOT_CHUNK);
    if len > v.capacity() {
        v.reserve((len - v.len()).max(v.capacity()));
    }
    v.resize(len, 0.0);
}

/// Longest iteration-period the detector considers. The fetch-slot phase
/// of a steady loop cycles with period `width / gcd(body_len, width)` ≤
/// machine width (≤ 4 across the presets), so small periods cover loops
/// that actually reach a fixed point.
const STEADY_MAX_PERIOD: usize = 4;

/// How many armed-but-mismatched snapshot comparisons the detector
/// tolerates before giving up for the rest of the run. The reorder window
/// keeps growing by one body-length per iteration until it saturates
/// (up to `window` = 72 instructions on the Athlon preset), and snapshots
/// cannot match while it grows, so the bound must comfortably cover that
/// warm-up; past it, the constant caps the snapshot-capture cost on loops
/// that never converge.
const STEADY_MAX_ATTEMPTS: u32 = 64;

/// Runs programs on a machine model and measures them.
///
/// One simulator per machine; `run` is stateless between calls (fresh
/// architectural state, caches, and predictor each run), so a single
/// instance can measure a whole GA population sequentially — or clone the
/// simulator per thread for parallel evaluation.
#[derive(Debug, Clone)]
pub struct Simulator {
    machine: MachineConfig,
}

impl Simulator {
    /// Creates a simulator for the given machine.
    pub fn new(machine: MachineConfig) -> Simulator {
        Simulator { machine }
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Executes `program` under `config` and returns the measurements,
    /// through a fresh scratch.
    ///
    /// The loop body runs repeatedly (the paper's viruses are infinite
    /// loops; the measurement scripts run them "for a few seconds") until
    /// an iteration or cycle budget is reached.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyProgram`] when the body has no instructions.
    pub fn run(&self, program: &Program, config: &RunConfig) -> Result<RunResult, SimError> {
        self.run_one(program, config, false, &mut RunScratch::new())
            .map(|(result, _)| result)
    }

    /// Like [`run`](Simulator::run), additionally capturing the per-cycle
    /// power and die-voltage waveforms (what the paper reads off the
    /// oscilloscope).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Simulator::run).
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), gest_sim::SimError> {
    /// use gest_isa::{asm, Program};
    /// use gest_sim::{MachineConfig, RunConfig, Simulator};
    /// let body = asm::parse_block("FMUL v0, v1, v2").map_err(|_| gest_sim::SimError::EmptyProgram)?;
    /// let simulator = Simulator::new(MachineConfig::athlon_x4());
    /// let (result, traces) = simulator
    ///     .run_traced(&Program::from_body("t", body), &RunConfig::quick())?;
    /// assert_eq!(traces.power_w.len(), result.cycles as usize);
    /// assert_eq!(traces.voltage_v.len(), result.cycles as usize);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_traced(
        &self,
        program: &Program,
        config: &RunConfig,
    ) -> Result<(RunResult, Traces), SimError> {
        self.run_one(program, config, true, &mut RunScratch::new())
            .map(|(result, traces)| (result, traces.expect("traces requested")))
    }

    /// Like [`run`](Simulator::run), through the caller's scratch — the
    /// path for workers that measure many programs one after another.
    ///
    /// The scratch recycles the run buffers, and every run clears them
    /// first, so the result is byte-identical to [`run`](Simulator::run) on
    /// a fresh scratch (asserted by the sim property tests), whatever the
    /// scratch ran before.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Simulator::run); an erroring program leaves the
    /// scratch fit for the next one.
    pub fn run_with_scratch(
        &self,
        program: &Program,
        config: &RunConfig,
        scratch: &mut RunScratch,
    ) -> Result<RunResult, SimError> {
        self.run_one(program, config, false, scratch)
            .map(|(result, _)| result)
    }

    /// One program through `scratch`: set up, step until done, finalize.
    fn run_one(
        &self,
        program: &Program,
        config: &RunConfig,
        want_traces: bool,
        scratch: &mut RunScratch,
    ) -> Result<(RunResult, Option<Traces>), SimError> {
        self.validate(program)?;
        let reusable = match &scratch.thermal {
            Some(schedule) => schedule.matches(self.machine.thermal, config.thermal_hold_s),
            None => false,
        };
        if !reusable {
            scratch.thermal = Some(ThermalSchedule::new(
                self.machine.thermal,
                config.thermal_hold_s,
            ));
        }
        scratch.runs += 1;
        let energy_model = EnergyModel::new(&self.machine);
        let RunScratch {
            buffers,
            thermal,
            steady_hits,
            extrapolated_iterations,
            ..
        } = scratch;

        let mut state = ArchState::new(self.machine.mem_bytes);
        program.mem_init.apply(&mut state);
        program.apply_init_instrs(&mut state);
        let cache = DataCache::new(self.machine.l1d);

        let mut run = ProgramRun::new(
            &self.machine,
            program,
            config,
            &energy_model,
            buffers,
            state,
            cache,
        );
        while run.step_iteration() {}
        let schedule = thermal.as_ref().expect("schedule built above");
        let (result, traces, tally) = run.finalize(want_traces, schedule);
        *steady_hits += tally.steady_hit as u64;
        *extrapolated_iterations += tally.extrapolated;
        Ok((result, traces))
    }

    fn validate(&self, program: &Program) -> Result<(), SimError> {
        if program.body.is_empty() {
            return Err(SimError::EmptyProgram);
        }
        if !self.machine.mem_bytes.is_power_of_two() || self.machine.mem_bytes < 64 {
            return Err(SimError::BadMemSize {
                bytes: self.machine.mem_bytes,
            });
        }
        Ok(())
    }
}

/// Integer tallies of replayed echo records: per archived steady-state
/// iteration (what replaying it whole adds), and over the whole replay.
#[derive(Debug, Clone, Copy, Default)]
struct IterTally {
    class_counts: [u64; 6],
    retired: u64,
    l1_hits: u64,
    l1_misses: u64,
    bp_hits: u64,
    bp_misses: u64,
    /// Largest `rel_elapsed` of the iteration's records.
    max_rel_elapsed: i64,
}

impl IterTally {
    fn add(&mut self, rec: &EchoRec, op: &BodyOp) {
        self.class_counts[op.class_idx] += 1;
        self.retired += 1;
        if rec.effect.mem.is_some() {
            if rec.hit {
                self.l1_hits += 1;
            } else {
                self.l1_misses += 1;
            }
        }
        if op.timing.is_branch {
            if rec.correct {
                self.bp_hits += 1;
            } else {
                self.bp_misses += 1;
            }
        }
        self.max_rel_elapsed = self.max_rel_elapsed.max(rec.rel_elapsed);
    }

    fn merge(&mut self, other: &IterTally) {
        for (count, &add) in self.class_counts.iter_mut().zip(&other.class_counts) {
            *count += add;
        }
        self.retired += other.retired;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.bp_hits += other.bp_hits;
        self.bp_misses += other.bp_misses;
    }
}

/// Per-run fast-path statistics handed back by [`ProgramRun::finalize`].
struct RunTally {
    steady_hit: bool,
    extrapolated: u64,
}

/// One program's complete in-flight execution state, from setup through
/// [`step_iteration`](ProgramRun::step_iteration) to
/// [`finalize`](ProgramRun::finalize).
struct ProgramRun<'a> {
    machine: &'a MachineConfig,
    program: &'a Program,
    config: &'a RunConfig,
    energy_model: &'a EnergyModel,
    scratch: &'a mut RunBuffers,
    state: ArchState,
    pipeline: Pipeline,
    cache: DataCache,
    predictor: BranchPredictor,
    class_counts: [u64; 6],
    retired: u64,
    detector_on: bool,
    /// Echo records are archived only while a snapshot confirmation is
    /// pending; the steady majority of runs pays just the per-boundary
    /// fingerprint.
    recording: bool,
    /// A pending period-k comparison: `(k, boundary)` says a reference
    /// snapshot was captured at iteration `boundary` and the matching
    /// capture is due k iterations later.
    pending: Option<(usize, u64)>,
    snap_attempts: u32,
    steady: Option<(usize, u64)>,
    iterations: u64,
}

impl<'a> ProgramRun<'a> {
    /// Builds a run around prepared architectural state (memory init and
    /// init block already applied) and a fresh cache.
    fn new(
        machine: &'a MachineConfig,
        program: &'a Program,
        config: &'a RunConfig,
        energy_model: &'a EnergyModel,
        scratch: &'a mut RunBuffers,
        state: ArchState,
        cache: DataCache,
    ) -> ProgramRun<'a> {
        let pipeline = Pipeline::new(machine);
        let predictor = BranchPredictor::new(program.body.len());

        // Pair each static body instruction with its timing metadata and
        // class index once, so the per-iteration loop does no error
        // handling or class scans.
        scratch.ops.clear();
        scratch.ops.extend(program.body.iter().map(|instr| {
            let class = instr.opcode().class();
            BodyOp {
                instr: *instr,
                timing: Pipeline::decode(machine, instr),
                class_idx: InstrClass::ALL
                    .iter()
                    .position(|c| *c == class)
                    .expect("class in ALL"),
            }
        }));

        // Per-cycle dynamic energy, indexed by issue cycle. Reserve from
        // the cycle budget up front (capped for pathological budgets);
        // past the reservation, `ensure_slot` grows geometrically.
        scratch.cycle_energy_pj.clear();
        scratch
            .cycle_energy_pj
            .reserve((config.max_cycles as usize + 1).min(1 << 20));

        scratch.cur_echo.clear();
        scratch.fps.clear();
        while let Some(old) = scratch.history.pop_front() {
            scratch.spare.push(old.recs);
        }

        ProgramRun {
            machine,
            program,
            config,
            energy_model,
            detector_on: config.steady_detect,
            scratch,
            state,
            pipeline,
            cache,
            predictor,
            class_counts: [0u64; 6],
            retired: 0,
            recording: false,
            pending: None,
            snap_attempts: 0,
            steady: None,
            iterations: 0,
        }
    }

    /// Executes one loop-body iteration plus its boundary bookkeeping.
    /// Returns `false` once the run is over: the iteration budget was
    /// already spent, or this iteration hit the cycle budget or confirmed
    /// a steady-state period.
    fn step_iteration(&mut self) -> bool {
        if self.iterations >= self.config.max_iterations {
            return false;
        }
        self.iterations += 1;
        let iter_ref = self.pipeline.fetch_cycle();
        if self.recording {
            self.scratch.cur_echo.clear();
        }
        let RunBuffers {
            ops,
            cycle_energy_pj,
            cur_echo,
            ..
        } = &mut *self.scratch;
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            let effect = op.instr.apply(&mut self.state);

            // Branch prediction.
            let (branch, correct) = if op.timing.is_branch {
                let correct = self.predictor.update(pc, effect.branch_taken);
                (
                    Some(BranchResolution {
                        taken: effect.branch_taken,
                        correct,
                    }),
                    correct,
                )
            } else {
                (None, true)
            };

            // Cache.
            let mut extra_latency = 0u8;
            let mut missed = false;
            if let Some(access) = effect.mem {
                if !self.cache.access(access.addr) {
                    extra_latency = self.machine.miss_penalty;
                    missed = true;
                }
            }

            let issued = self.pipeline.issue(&op.timing, extra_latency, branch);

            // Energy attribution at the issue cycle.
            let latency = op.timing.latency + extra_latency;
            let energy =
                self.energy_model
                    .instruction_pj_indexed(op.class_idx, &effect, latency, missed);
            let slot = issued.issue_cycle as usize;
            ensure_slot(cycle_energy_pj, slot);
            cycle_energy_pj[slot] += energy;

            self.class_counts[op.class_idx] += 1;
            self.retired += 1;

            if self.recording {
                cur_echo.push(EchoRec {
                    pc: pc as u32,
                    effect,
                    hit: !missed,
                    correct,
                    energy_bits: energy.to_bits(),
                    rel_issue: issued.issue_cycle - iter_ref,
                    rel_elapsed: self.pipeline.elapsed_cycles() as i64 - iter_ref as i64,
                });
            }

            // Control flow within the body; skips past the end simply
            // finish the iteration.
            pc += 1;
            if let Flow::Skip(n) = effect.flow {
                pc += n as usize;
            }

            if self.pipeline.elapsed_cycles() >= self.config.max_cycles {
                return false;
            }
        }

        // Iteration boundary: fingerprint the finished iteration, pick
        // the smallest candidate period whose fingerprints repeat, and
        // confirm with full snapshots k iterations apart. Correctness
        // rests on the snapshot match alone (fingerprints only schedule
        // the captures), so a collision can at worst waste an attempt.
        // Echo records — the replay unit — are archived only between a
        // reference capture and its confirmation, exactly the k
        // iterations a successful match replays.
        if self.detector_on {
            if self.recording {
                let recycled = self.scratch.spare.pop().unwrap_or_default();
                let recs = std::mem::replace(&mut self.scratch.cur_echo, recycled);
                self.scratch.history.push_back(IterEcho {
                    recs,
                    start_ref: iter_ref,
                });
                if self.scratch.history.len() > STEADY_MAX_PERIOD {
                    if let Some(old) = self.scratch.history.pop_front() {
                        self.scratch.spare.push(old.recs);
                    }
                }
            }
            let fp = state_fingerprint(
                &self.state,
                self.pipeline.fetch_cycle() - iter_ref,
                self.pipeline.fetch_phase(),
            );
            self.scratch.fps.push_back(fp);
            if self.scratch.fps.len() > 2 * STEADY_MAX_PERIOD {
                self.scratch.fps.pop_front();
            }
            let fps = &self.scratch.fps;
            let n = fps.len();
            let armed = (1..=STEADY_MAX_PERIOD)
                .find(|&k| n >= 2 * k && (0..k).all(|i| fps[n - 1 - i] == fps[n - 1 - k - i]));
            if let Some(k) = armed {
                if self.pending == Some((k, self.iterations - k as u64)) {
                    self.scratch.cur_snap.capture(
                        &self.pipeline,
                        &self.state,
                        &self.cache,
                        &self.predictor,
                    );
                    if self.scratch.prev_snap.matches(&self.scratch.cur_snap) {
                        let d = self.scratch.cur_snap.ref_cycle - self.scratch.prev_snap.ref_cycle;
                        if d >= 1 {
                            self.steady = Some((k, d));
                            return false;
                        }
                    }
                    self.snap_attempts += 1;
                    if self.snap_attempts >= STEADY_MAX_ATTEMPTS {
                        self.detector_on = false;
                        self.recording = false;
                    }
                    std::mem::swap(&mut self.scratch.prev_snap, &mut self.scratch.cur_snap);
                    self.pending = Some((k, self.iterations));
                    // The failed block is stale relative to the new
                    // reference; the next k iterations re-record it.
                    while let Some(old) = self.scratch.history.pop_front() {
                        self.scratch.spare.push(old.recs);
                    }
                } else {
                    let waiting = match self.pending {
                        Some((pk, pb)) => pk == k && self.iterations < pb + k as u64,
                        None => false,
                    };
                    if !waiting {
                        self.scratch.prev_snap.capture(
                            &self.pipeline,
                            &self.state,
                            &self.cache,
                            &self.predictor,
                        );
                        self.pending = Some((k, self.iterations));
                        self.recording = true;
                        while let Some(old) = self.scratch.history.pop_front() {
                            self.scratch.spare.push(old.recs);
                        }
                    }
                }
            } else {
                self.pending = None;
                if self.recording {
                    self.recording = false;
                    while let Some(old) = self.scratch.history.pop_front() {
                        self.scratch.spare.push(old.recs);
                    }
                }
            }
        }
        true
    }

    /// Replays the confirmed steady block analytically, integrates power,
    /// thermal, and PDN, and assembles the [`RunResult`]. Consumes the
    /// run.
    fn finalize(
        self,
        want_traces: bool,
        schedule: &ThermalSchedule,
    ) -> (RunResult, Option<Traces>, RunTally) {
        let ProgramRun {
            machine,
            program,
            config,
            energy_model,
            scratch,
            pipeline,
            cache,
            predictor,
            mut class_counts,
            mut retired,
            steady,
            mut iterations,
            ..
        } = self;

        // Analytic replay: every remaining iteration is the recorded one
        // shifted by the period, so its effects can be applied without
        // re-execution — in the same order as real execution, keeping
        // every floating-point sum bit-identical.
        let mut extrapolated = 0u64;
        let mut elapsed_override: Option<u64> = None;
        let mut replayed = IterTally::default();
        if let Some((k, d)) = steady {
            // The last k archived iterations are the steady block (recorded
            // relative to the matched reference snapshot); every remaining
            // iteration replicates them shifted by multiples of d. Effects
            // are applied in real dynamic order — iteration-major,
            // record-major — keeping every floating-point sum bit-identical.
            let n = scratch.history.len();
            debug_assert_eq!(n, k, "recording covers exactly the confirmed period");
            let block = &scratch.history;
            let block_ref = scratch.prev_snap.ref_cycle;
            let base = scratch.cur_snap.ref_cycle;
            let mut final_elapsed = pipeline.elapsed_cycles() as i64;
            let mut block_shift = 0u64;
            // Each archived iteration's integer tallies, so a replayed
            // iteration that ends inside the cycle budget re-applies only
            // its energies record by record.
            let mut tallies = [IterTally {
                max_rel_elapsed: i64::MIN,
                ..IterTally::default()
            }; STEADY_MAX_PERIOD];
            for (tally, iter) in tallies.iter_mut().zip(block.iter().skip(n - k)) {
                for rec in &iter.recs {
                    tally.add(rec, &scratch.ops[rec.pc as usize]);
                }
            }
            'replay: loop {
                for j in 0..k {
                    if iterations >= config.max_iterations {
                        break 'replay;
                    }
                    iterations += 1;
                    extrapolated += 1;
                    let iter = &block[n - k + j];
                    let shift = base + block_shift + (iter.start_ref - block_ref);
                    let tally = &tallies[j];
                    let last_elapsed = shift as i64 + tally.max_rel_elapsed;
                    if last_elapsed < config.max_cycles as i64 {
                        for rec in &iter.recs {
                            let slot = (shift + rec.rel_issue) as usize;
                            ensure_slot(&mut scratch.cycle_energy_pj, slot);
                            scratch.cycle_energy_pj[slot] += f64::from_bits(rec.energy_bits);
                        }
                        replayed.merge(tally);
                        final_elapsed = final_elapsed.max(last_elapsed);
                        continue;
                    }
                    // The budget ends inside this iteration: replay record
                    // by record up to the one that crosses it.
                    for rec in &iter.recs {
                        let slot = (shift + rec.rel_issue) as usize;
                        ensure_slot(&mut scratch.cycle_energy_pj, slot);
                        scratch.cycle_energy_pj[slot] += f64::from_bits(rec.energy_bits);
                        replayed.add(rec, &scratch.ops[rec.pc as usize]);
                        let elapsed = shift as i64 + rec.rel_elapsed;
                        final_elapsed = final_elapsed.max(elapsed);
                        if elapsed >= config.max_cycles as i64 {
                            break 'replay;
                        }
                    }
                }
                block_shift += d;
            }
            elapsed_override = Some(final_elapsed.max(0) as u64);
            for (count, &add) in class_counts.iter_mut().zip(&replayed.class_counts) {
                *count += add;
            }
            retired += replayed.retired;
        }

        let cycles = elapsed_override
            .unwrap_or_else(|| pipeline.elapsed_cycles())
            .max(1);
        let cycle_energy_pj = &mut scratch.cycle_energy_pj;
        cycle_energy_pj.resize(cycles as usize, 0.0);

        // One pass over the waveform: add static energy to every cycle,
        // integrate the total, slide the smoothed-peak window and step the
        // PDN with the per-cycle current. Each accumulator sees exactly
        // the sequence of floating-point operations a separate pass would.
        let static_pj = energy_model.static_pj_per_cycle();
        let window = config.peak_window.max(1).min(cycle_energy_pj.len());
        let mut pdn = machine.pdn.map(|pdn_config| {
            let idle_current = machine.energy.static_w / pdn_config.vdd;
            Pdn::new(pdn_config, idle_current, 1.0 / machine.clock_hz)
        });
        let mut power_trace = Vec::new();
        let mut voltage_trace = Vec::new();
        if want_traces {
            power_trace.reserve(cycle_energy_pj.len());
            if pdn.is_some() {
                voltage_trace.reserve(cycle_energy_pj.len());
            }
        }
        let mut total_pj = 0.0;
        let mut window_sum = 0.0;
        let mut peak_sum = 0.0;
        for i in 0..cycle_energy_pj.len() {
            cycle_energy_pj[i] += static_pj;
            let pj = cycle_energy_pj[i];
            total_pj += pj;
            if i < window {
                window_sum += pj;
                peak_sum = window_sum;
            } else {
                window_sum += pj - cycle_energy_pj[i - window];
                peak_sum = f64::max(peak_sum, window_sum);
            }
            if let Some(pdn) = pdn.as_mut() {
                let v = pdn.step(energy_model.cycle_current_a(pj, pdn.config().vdd));
                if want_traces {
                    voltage_trace.push(v as f32);
                }
            }
            if want_traces {
                power_trace.push(energy_model.cycle_power_w(pj) as f32);
            }
        }
        let avg_power_w = energy_model.cycle_power_w(total_pj / cycles as f64);
        let chip_power_w = machine.cores as f64 * avg_power_w + machine.uncore_w;
        let peak_power_w = energy_model.cycle_power_w(peak_sum / window as f64);

        // Thermal: hold the measured whole-chip power on the RC model (the
        // paper's temperature experiments run a virus instance on every
        // core and read the chip sensor). The precomputed schedule replays
        // `ThermalModel::hold` bit-identically; runs through one scratch
        // share it because it depends only on the machine and the hold
        // duration.
        let temperature_c = schedule.hold_from_ambient(chip_power_w);
        let steady_temp_c = machine.thermal.steady_state_c(chip_power_w);
        let voltage = pdn.map(|pdn| pdn.stats());
        let traces = want_traces.then_some(Traces {
            power_w: power_trace,
            voltage_v: voltage_trace,
        });

        // Fold the replayed iterations' hit/miss outcomes into the
        // instrument counters. With no replay the extras are zero and the
        // formulas reduce to the instruments' own accessors bit-exactly.
        let mut l1 = cache.stats();
        l1.hits += replayed.l1_hits;
        l1.misses += replayed.l1_misses;
        let bp_hits = predictor.hits() + replayed.bp_hits;
        let bp_total = bp_hits + predictor.mispredicts() + replayed.bp_misses;
        let branch_accuracy = if bp_total == 0 {
            1.0
        } else {
            bp_hits as f64 / bp_total as f64
        };

        let result = RunResult {
            name: program.name.clone(),
            cycles,
            instructions: retired,
            ipc: retired as f64 / cycles as f64,
            energy_j: total_pj * 1e-12,
            avg_power_w,
            chip_power_w,
            peak_power_w,
            temperature_c,
            steady_temp_c,
            l1,
            branch_accuracy,
            voltage,
            class_counts,
        };

        (
            result,
            traces,
            RunTally {
                steady_hit: steady.is_some(),
                extrapolated,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_isa::{asm, Program, Template};

    fn run_on(machine: MachineConfig, body: &str) -> RunResult {
        let template = Template::default_stress();
        let program = template.materialize("test", asm::parse_block(body).unwrap());
        Simulator::new(machine)
            .run(&program, &RunConfig::default())
            .unwrap()
    }

    #[test]
    fn empty_body_is_error() {
        let simulator = Simulator::new(MachineConfig::cortex_a15());
        let program = Program::from_body("empty", vec![]);
        assert_eq!(
            simulator.run(&program, &RunConfig::default()).unwrap_err(),
            SimError::EmptyProgram
        );
    }

    #[test]
    fn independent_stream_reaches_high_ipc() {
        let result = run_on(
            MachineConfig::cortex_a15(),
            "ADD x1, x2, x3\nFMUL v1, v2, v3\nADD x4, x5, x6\nFMUL v4, v5, v6\nLDR x7, [x10, #0]\nADD x8, x2, x5",
        );
        assert!(
            result.ipc > 2.0,
            "3-wide OoO core should sustain > 2 IPC, got {}",
            result.ipc
        );
    }

    #[test]
    fn dependent_chain_has_low_ipc() {
        let result = run_on(
            MachineConfig::cortex_a15(),
            "MUL x1, x1, x2\nMUL x1, x1, x3",
        );
        assert!(
            result.ipc < 0.5,
            "serial multiply chain, got {}",
            result.ipc
        );
    }

    #[test]
    fn fp_heavy_draws_more_power_than_int_on_a15() {
        let fp = run_on(
            MachineConfig::cortex_a15(),
            "VFMUL v0, v1, v2\nVFMLA v3, v4, v5\nVFMUL v6, v7, v1\nVFMLA v2, v5, v7",
        );
        let int = run_on(
            MachineConfig::cortex_a15(),
            "ADD x1, x2, x3\nSUB x4, x5, x6\nEOR x7, x2, x5\nORR x8, x3, x6",
        );
        assert!(
            fp.avg_power_w > 1.3 * int.avg_power_w,
            "fp {} vs int {}",
            fp.avg_power_w,
            int.avg_power_w
        );
    }

    #[test]
    fn stress_loops_hit_in_l1() {
        let result = run_on(
            MachineConfig::cortex_a15(),
            "LDR x1, [x10, #0]\nLDR x2, [x10, #64]\nSTR x3, [x10, #128]\nADDI x10, x10, #8",
        );
        assert!(
            result.l1.hit_rate() > 0.95,
            "hit rate {}",
            result.l1.hit_rate()
        );
    }

    #[test]
    fn loop_branches_become_predictable() {
        let result = run_on(
            MachineConfig::cortex_a7(),
            "ADD x1, x2, x3\nCBNZ x0, #1\nADD x4, x5, x6\nB #1\nADD x7, x2, x5",
        );
        assert!(
            result.branch_accuracy > 0.9,
            "accuracy {}",
            result.branch_accuracy
        );
    }

    #[test]
    fn temperature_tracks_power() {
        let machine = MachineConfig::xgene2();
        let hot = run_on(
            machine.clone(),
            "VFMLA v0, v1, v2\nVFMLA v3, v4, v5\nLDR x1, [x10, #0]\nVFMUL v6, v7, v1",
        );
        let cold = run_on(machine, "NOP\nNOP\nNOP\nNOP");
        assert!(hot.temperature_c > cold.temperature_c);
        let ambient = MachineConfig::xgene2().thermal.ambient_c;
        assert!(hot.steady_temp_c > ambient);
    }

    #[test]
    fn voltage_stats_only_with_pdn() {
        let with = run_on(
            MachineConfig::athlon_x4(),
            "FMUL v0, v1, v2\nADD x1, x2, x3",
        );
        assert!(with.voltage.is_some());
        let without = run_on(MachineConfig::cortex_a15(), "FMUL v0, v1, v2");
        assert!(without.voltage.is_none());
    }

    #[test]
    fn phased_loop_causes_more_noise_than_flat() {
        let machine = MachineConfig::athlon_x4();
        // Resonant-ish phasing: a burst of expensive FP followed by a long
        // serial dependency stall approximates a square-wave current.
        let phased = run_on(
            machine.clone(),
            "VFMLA v0, v1, v2\nVFMLA v3, v4, v5\nVFMLA v6, v7, v1\nVFMUL v2, v4, v7\nSDIV x1, x1, x2\nSDIV x1, x1, x3",
        );
        let flat = run_on(
            machine,
            "VFMLA v0, v1, v2\nVFMLA v3, v4, v5\nVFMLA v6, v7, v1\nVFMUL v2, v4, v7\nVFMLA v0, v5, v3\nVFMUL v1, v6, v2",
        );
        let phased_noise = phased.voltage_peak_to_peak().unwrap();
        let flat_noise = flat.voltage_peak_to_peak().unwrap();
        assert!(
            phased_noise > flat_noise,
            "phased {phased_noise} should out-ring flat {flat_noise}"
        );
    }

    #[test]
    fn class_counts_track_dynamic_mix() {
        let result = run_on(
            MachineConfig::cortex_a15(),
            "ADD x1, x2, x3\nFMUL v0, v1, v2",
        );
        // Equal static counts → equal dynamic counts.
        assert_eq!(result.class_counts[0], result.class_counts[2]);
        assert!(result.class_counts[0] > 0);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_on(
            MachineConfig::cortex_a15(),
            "FMLA v0, v1, v2\nLDR x1, [x10, #8]",
        );
        let b = run_on(
            MachineConfig::cortex_a15(),
            "FMLA v0, v1, v2\nLDR x1, [x10, #8]",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced() {
        let template = Template::default_stress();
        let program = template.materialize(
            "t",
            asm::parse_block("VFMLA v8, v0, v1\nSDIV x1, x1, x2").unwrap(),
        );
        let simulator = Simulator::new(MachineConfig::athlon_x4());
        let config = RunConfig::quick();
        let plain = simulator.run(&program, &config).unwrap();
        let (traced, traces) = simulator.run_traced(&program, &config).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the measurement");
        assert_eq!(traces.power_w.len(), plain.cycles as usize);
        assert_eq!(traces.voltage_v.len(), plain.cycles as usize);
        // The waveforms must be consistent with the summary statistics.
        let mean_power: f64 =
            traces.power_w.iter().map(|&p| p as f64).sum::<f64>() / traces.power_w.len() as f64;
        assert!((mean_power - plain.avg_power_w).abs() < 0.01 * plain.avg_power_w);
        let min_v = traces
            .voltage_v
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        let stats = plain.voltage.unwrap();
        // Trace min can be lower than stats min (stats skip PDN warm-up).
        assert!(min_v as f64 <= stats.min_v + 1e-6);
    }

    #[test]
    fn traces_without_pdn_have_no_voltage() {
        let program = Template::default_stress()
            .materialize("t", asm::parse_block("ADD x1, x2, x3").unwrap());
        let simulator = Simulator::new(MachineConfig::cortex_a15());
        let (_, traces) = simulator.run_traced(&program, &RunConfig::quick()).unwrap();
        assert!(traces.voltage_v.is_empty());
        assert!(!traces.power_w.is_empty());
    }

    #[test]
    fn steady_state_fast_path_is_bit_identical() {
        // Representative bodies: straight-line FP, a dependent chain, a
        // branchy loop, and striding memory (misses keep firing in steady
        // state via the per-record hit flags).
        let bodies = [
            "FMUL v0, v1, v2\nADD x1, x2, x3",
            "MUL x1, x1, x2\nMUL x1, x1, x3",
            "ADD x1, x2, x3\nCBNZ x0, #1\nADD x4, x5, x6\nB #1\nADD x7, x2, x5",
            "LDR x11, [x10, #0]\nADDI x10, x10, #64",
        ];
        let mut scratch = RunScratch::new();
        for machine in MachineConfig::all_presets() {
            for body in bodies {
                let program = Template::default_stress()
                    .materialize("steady", asm::parse_block(body).unwrap());
                let simulator = Simulator::new(machine.clone());
                let fast_config = RunConfig::default();
                let full_config = RunConfig {
                    steady_detect: false,
                    ..RunConfig::default()
                };
                let fast = simulator
                    .run_with_scratch(&program, &fast_config, &mut scratch)
                    .unwrap();
                let full = simulator.run(&program, &full_config).unwrap();
                assert_eq!(fast, full, "{} / {body:?}", machine.name);
                let (fast_traced, fast_traces) =
                    simulator.run_traced(&program, &fast_config).unwrap();
                let (_, full_traces) = simulator.run_traced(&program, &full_config).unwrap();
                assert_eq!(fast_traced, full, "traced {} / {body:?}", machine.name);
                assert_eq!(fast_traces, full_traces, "{} / {body:?}", machine.name);
            }
        }
        assert!(
            scratch.steady_hits >= 8,
            "the detector must fire on most loop-invariant bodies, got {} of {}",
            scratch.steady_hits,
            scratch.runs
        );
    }

    #[test]
    fn steady_state_detector_fires_and_extrapolates() {
        let program = Template::default_stress().materialize(
            "t",
            asm::parse_block("FMUL v0, v1, v2\nADD x1, x2, x3").unwrap(),
        );
        let simulator = Simulator::new(MachineConfig::cortex_a15());
        let mut scratch = RunScratch::new();
        let result = simulator
            .run_with_scratch(&program, &RunConfig::default(), &mut scratch)
            .unwrap();
        assert_eq!(scratch.runs, 1);
        assert_eq!(
            scratch.steady_hits, 1,
            "a loop-invariant body must reach steady state"
        );
        assert!(
            scratch.extrapolated_iterations > 100,
            "most of the {} iterations should be synthesized, got {}",
            result.cycles,
            scratch.extrapolated_iterations
        );

        // Disabling detection runs everything the slow way.
        let mut off_scratch = RunScratch::new();
        let off = simulator
            .run_with_scratch(
                &program,
                &RunConfig {
                    steady_detect: false,
                    ..RunConfig::default()
                },
                &mut off_scratch,
            )
            .unwrap();
        assert_eq!(off_scratch.steady_hits, 0);
        assert_eq!(off_scratch.extrapolated_iterations, 0);
        assert_eq!(result, off);
    }

    #[test]
    fn scratch_reuse_across_programs_stays_clean() {
        let simulator = Simulator::new(MachineConfig::xgene2());
        let mut scratch = RunScratch::new();
        let bodies = ["ADD x1, x2, x3", "FMUL v0, v1, v2\nLDR x1, [x10, #8]"];
        for body in bodies {
            let program =
                Template::default_stress().materialize("r", asm::parse_block(body).unwrap());
            let reused = simulator
                .run_with_scratch(&program, &RunConfig::quick(), &mut scratch)
                .unwrap();
            let fresh = simulator.run(&program, &RunConfig::quick()).unwrap();
            assert_eq!(reused, fresh, "{body:?}");
        }
        assert_eq!(scratch.runs, 2);
    }

    #[test]
    fn batch_lanes_match_single_runs_and_errors_stay_per_lane() {
        let bodies = [
            "FMUL v0, v1, v2\nADD x1, x2, x3",
            "", // empty body: this program alone must error
            "MUL x1, x1, x2\nMUL x1, x1, x3",
            "LDR x11, [x10, #0]\nADDI x10, x10, #64",
        ];
        let programs: Vec<Program> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                Template::default_stress()
                    .materialize(format!("lane{i}"), asm::parse_block(body).unwrap())
            })
            .collect();
        let simulator = Simulator::new(MachineConfig::cortex_a15());
        let config = RunConfig::default();
        let mut scratch = RunScratch::new();
        // Two passes through the same scratch: the second reuses the run
        // buffers and the memoized thermal schedule.
        for pass in 0..2 {
            let reused: Vec<_> = programs
                .iter()
                .map(|program| simulator.run_with_scratch(program, &config, &mut scratch))
                .collect();
            for (program, lane) in programs.iter().zip(&reused) {
                assert_eq!(lane, &simulator.run(program, &config), "pass {pass}");
            }
            assert_eq!(reused[1], Err(SimError::EmptyProgram));
        }
        assert_eq!(scratch.runs, 6, "only programs past validation count");
        assert!(scratch.steady_hits >= 4, "steady programs must still fire");
    }

    #[test]
    fn branch_skip_shortens_iterations() {
        // B #2 skips both following ADDs: their class counts must be zero.
        let result = run_on(
            MachineConfig::cortex_a15(),
            "B #2\nADD x1, x2, x3\nADD x4, x5, x6",
        );
        assert_eq!(
            result.class_counts[0], 0,
            "skipped instructions never execute"
        );
        assert!(result.class_counts[4] > 0);
    }
}
