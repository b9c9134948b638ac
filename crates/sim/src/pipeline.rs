//! Scoreboard timing model for in-order and out-of-order cores.
//!
//! The model processes the *dynamic* instruction stream (the simulator
//! feeds instructions in executed order) and assigns each an issue cycle
//! honoring:
//!
//! * fetch bandwidth (`width` instructions per cycle),
//! * a reorder window: fetch stalls when `window` instructions are in
//!   flight (out-of-order cores) — in-order cores instead enforce program-
//!   order issue,
//! * register dependencies through per-register ready times,
//! * functional-unit structural hazards (unit count and initiation
//!   interval),
//! * issue bandwidth (`width` issues per cycle), and
//! * branch redirects: mispredicted branches restart fetch after the
//!   branch resolves plus the mispredict penalty; correctly-predicted
//!   taken branches cost the machine's taken-fetch bubble.
//!
//! This is an analytic scoreboard rather than a cycle-stepped pipeline: it
//! computes the same issue times orders of magnitude faster, which is what
//! makes GA searches over tens of thousands of individuals practical —
//! the same reason the paper's framework measures on real silicon rather
//! than RTL.

use crate::machine::{FuClass, MachineConfig};

/// Which scheduling discipline a machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// Issue strictly in program order.
    InOrder,
    /// Issue oldest-ready-first within a window.
    OutOfOrder,
}

/// Pre-decoded scheduling metadata for one static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Functional unit class.
    pub fu: FuClass,
    /// Result latency (cycles).
    pub latency: u8,
    /// FU initiation interval (cycles).
    pub interval: u8,
    /// Bitmask of integer source registers.
    pub int_srcs: u16,
    /// Bitmask of integer destination registers.
    pub int_dsts: u16,
    /// Bitmask of vector source registers.
    pub vec_srcs: u16,
    /// Bitmask of vector destination registers.
    pub vec_dsts: u16,
    /// Whether this is a control-flow instruction.
    pub is_branch: bool,
}

/// Branch outcome for a dynamic branch instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchResolution {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Whether the predictor got it right.
    pub correct: bool,
}

/// Issue/completion times assigned to a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    /// Cycle the instruction issued to its FU.
    pub issue_cycle: u64,
    /// Cycle its result becomes available.
    pub complete_cycle: u64,
}

/// Tracks per-cycle issue-slot usage over a sliding window: cycles
/// `base..base + len` live in a power-of-two ring starting at `head`,
/// which doubles on demand. Ring entries outside the live range are kept
/// zero, so extending the range needs no clearing.
#[derive(Debug, Clone)]
struct SlotTracker {
    base: u64,
    head: usize,
    len: usize,
    ring: Vec<u8>,
}

impl SlotTracker {
    fn new() -> SlotTracker {
        SlotTracker {
            base: 0,
            head: 0,
            len: 0,
            ring: vec![0; 64],
        }
    }

    #[inline]
    fn used(&self, cycle: u64) -> u8 {
        if cycle < self.base {
            return u8::MAX; // conservatively full for already-pruned cycles
        }
        let index = (cycle - self.base) as usize;
        if index < self.len {
            self.ring[(self.head + index) & (self.ring.len() - 1)]
        } else {
            0
        }
    }

    #[inline]
    fn claim(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.base);
        let index = (cycle - self.base) as usize;
        if index >= self.ring.len() {
            self.grow(index + 1);
        }
        self.len = self.len.max(index + 1);
        let mask = self.ring.len() - 1;
        self.ring[(self.head + index) & mask] += 1;
    }

    /// Re-lays the live range out from index 0 of a ring of at least
    /// `needed` entries.
    #[cold]
    fn grow(&mut self, needed: usize) {
        let mask = self.ring.len() - 1;
        let mut ring = vec![0; needed.next_power_of_two().max(2 * self.ring.len())];
        for (i, slot) in ring.iter_mut().take(self.len).enumerate() {
            *slot = self.ring[(self.head + i) & mask];
        }
        self.ring = ring;
        self.head = 0;
    }

    /// Drops accounting for cycles before `watermark` (no future issue can
    /// land there).
    #[inline]
    fn prune(&mut self, watermark: u64) {
        if self.base >= watermark {
            return;
        }
        let drop = ((watermark - self.base) as usize).min(self.len);
        let mask = self.ring.len() - 1;
        for i in 0..drop {
            self.ring[(self.head + i) & mask] = 0;
        }
        self.head = (self.head + drop) & mask;
        self.len -= drop;
        self.base += drop as u64;
        if self.len == 0 {
            self.base = self.base.max(watermark);
        }
    }
}

/// In-order retirement times of in-flight instructions (the ROB), oldest
/// first: a fixed power-of-two ring sized to hold the whole window, which
/// the scheduler never exceeds (it retires the oldest entry before
/// admitting one more once the window is full).
#[derive(Debug, Clone)]
struct RetireRing {
    ring: Vec<u64>,
    head: usize,
    len: usize,
}

impl RetireRing {
    fn new(window: usize) -> RetireRing {
        RetireRing {
            ring: vec![0; window.next_power_of_two()],
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn pop_front(&mut self) -> u64 {
        debug_assert!(self.len > 0);
        let value = self.ring[self.head];
        self.head = (self.head + 1) & (self.ring.len() - 1);
        self.len -= 1;
        value
    }

    fn push_back(&mut self, value: u64) {
        debug_assert!(self.len < self.ring.len(), "window overflow");
        let mask = self.ring.len() - 1;
        self.ring[(self.head + self.len) & mask] = value;
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mask = self.ring.len() - 1;
        (0..self.len).map(move |i| self.ring[(self.head + i) & mask])
    }
}

/// Scheduler state normalized to a reference cycle, produced by
/// [`Pipeline::capture_steady`]. Equal snapshots (captured at different
/// absolute times) guarantee identical future scheduling up to a time
/// shift — the pipeline half of the simulator's steady-state detector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PipelineSnapshot {
    fu_free: [Vec<u64>; 6],
    int_ready: [u64; 16],
    vec_ready: [u64; 16],
    issue_slots: Vec<u8>,
    fetched_this_cycle: u8,
    in_flight: Vec<u64>,
    last_retire: u64,
    last_issue: u64,
    max_complete: i64,
}

/// The scoreboard.
#[derive(Debug, Clone)]
pub struct Pipeline {
    kind: PipelineKind,
    width: u8,
    window: u16,
    mispredict_penalty: u8,
    taken_penalty: u8,
    /// Per FU class: next-free cycle of each unit.
    fu_free: [Vec<u64>; 6],
    fu_interval: [u8; 6],
    fu_latency: [u8; 6],
    int_ready: [u64; 16],
    vec_ready: [u64; 16],
    issue_slots: SlotTracker,
    /// Next fetch cycle and how many instructions were fetched in it.
    fetch_cycle: u64,
    fetched_this_cycle: u8,
    /// In-order retirement times of in-flight instructions (ROB).
    in_flight: RetireRing,
    last_retire: u64,
    /// Most recent issue cycle (program-order constraint for in-order).
    last_issue: u64,
    issued_count: u64,
    max_complete: u64,
}

impl Pipeline {
    /// Builds the scoreboard for a machine.
    pub fn new(machine: &MachineConfig) -> Pipeline {
        let mut fu_free: [Vec<u64>; 6] = Default::default();
        let mut fu_interval = [1u8; 6];
        let mut fu_latency = [1u8; 6];
        for (i, class) in FuClass::ALL.iter().enumerate() {
            let fu = machine.fu(*class);
            fu_free[i] = vec![0; fu.count as usize];
            fu_interval[i] = fu.interval;
            fu_latency[i] = fu.latency;
        }
        let window = machine.window.max(machine.width as u16);
        Pipeline {
            kind: if machine.out_of_order {
                PipelineKind::OutOfOrder
            } else {
                PipelineKind::InOrder
            },
            width: machine.width,
            window,
            mispredict_penalty: machine.mispredict_penalty,
            taken_penalty: machine.taken_penalty,
            fu_free,
            fu_interval,
            fu_latency,
            int_ready: [0; 16],
            vec_ready: [0; 16],
            issue_slots: SlotTracker::new(),
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            in_flight: RetireRing::new(window as usize),
            last_retire: 0,
            last_issue: 0,
            issued_count: 0,
            max_complete: 0,
        }
    }

    /// Decodes a machine-independent description into this machine's
    /// scheduling metadata.
    pub fn decode(machine: &MachineConfig, instr: &gest_isa::Instruction) -> Decoded {
        let fu = FuClass::for_opcode(instr.opcode());
        let cfg = machine.fu(fu);
        let mut int_srcs = 0u16;
        let mut int_dsts = 0u16;
        let mut vec_srcs = 0u16;
        let mut vec_dsts = 0u16;
        for r in instr.int_srcs() {
            int_srcs |= 1 << r.index();
        }
        for r in instr.int_dsts() {
            int_dsts |= 1 << r.index();
        }
        for v in instr.vec_srcs() {
            vec_srcs |= 1 << v.index();
        }
        for v in instr.vec_dsts() {
            vec_dsts |= 1 << v.index();
        }
        // Fused multiply-accumulate opcodes read their destination: the
        // accumulator is an implicit source, so chained FMLAs serialize
        // (this is what lets the GA build the low-activity phases of dI/dt
        // loops out of accumulator chains).
        if matches!(
            instr.opcode(),
            gest_isa::Opcode::Fmla | gest_isa::Opcode::Vmla | gest_isa::Opcode::Vfmla
        ) {
            vec_srcs |= vec_dsts;
        }
        Decoded {
            fu,
            latency: cfg.latency,
            interval: cfg.interval,
            int_srcs,
            int_dsts,
            vec_srcs,
            vec_dsts,
            is_branch: instr.opcode().is_branch(),
        }
    }

    /// Schedules the next dynamic instruction. `extra_latency` adds cache
    /// miss penalty; `branch` carries branch resolution when applicable.
    #[inline]
    pub fn issue(
        &mut self,
        d: &Decoded,
        extra_latency: u8,
        branch: Option<BranchResolution>,
    ) -> Issued {
        // -- fetch ------------------------------------------------------
        if self.fetched_this_cycle >= self.width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        // Window/ROB back-pressure: the oldest in-flight instruction must
        // retire before a new one can enter.
        if self.in_flight.len() >= self.window as usize {
            let retire = self.in_flight.pop_front();
            if retire > self.fetch_cycle {
                self.fetch_cycle = retire;
                self.fetched_this_cycle = 0;
            }
        }
        let fetch = self.fetch_cycle;
        self.fetched_this_cycle += 1;

        // -- dependencies ----------------------------------------------
        let mut ready = fetch;
        let mut srcs = d.int_srcs;
        while srcs != 0 {
            let r = srcs.trailing_zeros() as usize;
            ready = ready.max(self.int_ready[r]);
            srcs &= srcs - 1;
        }
        let mut vsrcs = d.vec_srcs;
        while vsrcs != 0 {
            let r = vsrcs.trailing_zeros() as usize;
            ready = ready.max(self.vec_ready[r]);
            vsrcs &= vsrcs - 1;
        }
        if self.kind == PipelineKind::InOrder {
            ready = ready.max(self.last_issue);
        }

        // -- structural hazards ------------------------------------------
        let fu = d.fu.index();
        let units = &mut self.fu_free[fu];
        let mut cycle = ready;
        loop {
            // Earliest cycle >= cycle at which some unit of this class is
            // free (the first such unit on ties).
            let mut unit = 0;
            let mut unit_cycle = units[0].max(cycle);
            for (u, &free) in units.iter().enumerate().skip(1) {
                if free.max(cycle) < unit_cycle {
                    unit = u;
                    unit_cycle = free.max(cycle);
                }
            }
            // Issue-bandwidth constraint.
            let mut c = unit_cycle;
            while self.issue_slots.used(c) >= self.width {
                c += 1;
            }
            if c == unit_cycle || units[unit] <= c {
                // Unit still free at c: commit.
                self.issue_slots.claim(c);
                units[unit] = c + self.fu_interval[fu] as u64;
                cycle = c;
                break;
            }
            // Slot search pushed past this unit's availability horizon;
            // retry from c.
            cycle = c;
        }

        let complete = cycle + self.fu_latency[fu] as u64 + extra_latency as u64;

        // -- write-back / retire -----------------------------------------
        let mut dsts = d.int_dsts;
        while dsts != 0 {
            let r = dsts.trailing_zeros() as usize;
            self.int_ready[r] = complete;
            dsts &= dsts - 1;
        }
        let mut vdsts = d.vec_dsts;
        while vdsts != 0 {
            let r = vdsts.trailing_zeros() as usize;
            self.vec_ready[r] = complete;
            vdsts &= vdsts - 1;
        }
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.in_flight.push_back(retire);
        self.last_issue = self.last_issue.max(cycle);
        self.issued_count += 1;
        self.max_complete = self.max_complete.max(complete);
        self.issue_slots
            .prune(self.fetch_cycle.saturating_sub(4 * self.window as u64));

        // -- branch redirect ----------------------------------------------
        if d.is_branch {
            if let Some(resolution) = branch {
                if !resolution.correct {
                    let restart = complete + self.mispredict_penalty as u64;
                    if restart > self.fetch_cycle {
                        self.fetch_cycle = restart;
                        self.fetched_this_cycle = 0;
                    }
                } else if resolution.taken && self.taken_penalty > 0 {
                    let restart = fetch + 1 + self.taken_penalty as u64;
                    if restart > self.fetch_cycle {
                        self.fetch_cycle = restart;
                        self.fetched_this_cycle = 0;
                    }
                }
            }
        }

        Issued {
            issue_cycle: cycle,
            complete_cycle: complete,
        }
    }

    /// How many instructions the current fetch cycle has already accepted —
    /// a cheap shift-invariant fetch-phase signature for the steady-state
    /// detector's arming fingerprint.
    pub(crate) fn fetch_phase(&self) -> u64 {
        u64::from(self.fetched_this_cycle)
    }

    /// Cycles elapsed so far (latest completion time).
    pub fn elapsed_cycles(&self) -> u64 {
        self.max_complete
    }

    /// The current fetch cycle — the reference point the simulator's
    /// steady-state detector normalizes iteration-relative times against.
    pub(crate) fn fetch_cycle(&self) -> u64 {
        self.fetch_cycle
    }

    /// Captures the scheduler state normalized to the current fetch cycle
    /// into `out` (buffers are reused). Two captures compare equal exactly
    /// when the pipeline will schedule any identical future instruction
    /// stream identically, shifted by the difference of their reference
    /// cycles.
    ///
    /// Normalization is sound because every stored time is consumed only
    /// through `max(·, x)` or `· > x` / `· <= x` comparisons against
    /// values `x >= fetch_cycle`, so times at or before the reference are
    /// interchangeable with the reference itself (clamped to 0 here).
    /// `max_complete` is kept as an exact signed offset — it can trail the
    /// fetch cycle after a mispredict redirect. `issued_count` is
    /// statistics-only and deliberately excluded.
    pub(crate) fn capture_steady(&self, out: &mut PipelineSnapshot) {
        let reference = self.fetch_cycle;
        let clamp = |v: u64| v.saturating_sub(reference);
        for (dst, src) in out.fu_free.iter_mut().zip(&self.fu_free) {
            dst.clear();
            dst.extend(src.iter().map(|&v| clamp(v)));
        }
        for (dst, &src) in out.int_ready.iter_mut().zip(&self.int_ready) {
            *dst = clamp(src);
        }
        for (dst, &src) in out.vec_ready.iter_mut().zip(&self.vec_ready) {
            *dst = clamp(src);
        }
        out.in_flight.clear();
        out.in_flight.extend(self.in_flight.iter().map(clamp));
        out.last_retire = clamp(self.last_retire);
        out.last_issue = clamp(self.last_issue);
        out.max_complete = self.max_complete as i64 - reference as i64;
        out.fetched_this_cycle = self.fetched_this_cycle;
        // Issue-slot usage from the reference cycle on; cycles before the
        // reference are never probed again (every probe cycle is at least
        // the instruction's fetch cycle, which is at least the reference).
        out.issue_slots.clear();
        let end = self.issue_slots.base + self.issue_slots.len as u64;
        let mut cycle = reference;
        while cycle < end {
            out.issue_slots.push(self.issue_slots.used(cycle));
            cycle += 1;
        }
        while out.issue_slots.last() == Some(&0) {
            out.issue_slots.pop();
        }
    }

    /// Instructions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued_count
    }

    /// The scheduling discipline.
    pub fn kind(&self) -> PipelineKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use gest_isa::asm;

    fn decode(machine: &MachineConfig, line: &str) -> Decoded {
        Pipeline::decode(machine, &asm::parse_line(line).unwrap().unwrap())
    }

    #[test]
    fn slot_tracker_matches_a_deque_model() {
        // The straightforward model: a deque of per-cycle counts from
        // `base`, extended with zeros on claim and popped on prune.
        let mut base = 0u64;
        let mut model = std::collections::VecDeque::<u8>::new();
        let mut tracker = SlotTracker::new();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut now = 0u64;
        for _ in 0..20_000 {
            now += next(3);
            let cycle = now + next(300);
            match next(3) {
                0 => {
                    let index = (cycle - base.min(cycle)) as usize;
                    if cycle >= base && model.get(index).copied().unwrap_or(0) < u8::MAX {
                        tracker.claim(cycle);
                        while model.len() <= index {
                            model.push_back(0);
                        }
                        model[index] += 1;
                    }
                }
                1 => {
                    let watermark = now.saturating_sub(next(200));
                    tracker.prune(watermark);
                    while base < watermark && !model.is_empty() {
                        model.pop_front();
                        base += 1;
                    }
                    if model.is_empty() {
                        base = base.max(watermark);
                    }
                }
                _ => {
                    let probe = cycle.saturating_sub(next(400));
                    let expected = if probe < base {
                        u8::MAX
                    } else {
                        model.get((probe - base) as usize).copied().unwrap_or(0)
                    };
                    assert_eq!(tracker.used(probe), expected, "cycle {probe}");
                }
            }
            assert_eq!((tracker.base, tracker.len), (base, model.len()));
        }
    }

    #[test]
    fn independent_adds_reach_full_width() {
        let machine = MachineConfig::cortex_a15(); // 3-wide, 2 ALUs
        let mut pipeline = Pipeline::new(&machine);
        let add1 = decode(&machine, "ADD x1, x2, x3");
        let add2 = decode(&machine, "ADD x4, x5, x6");
        // Two independent ALU ops per cycle (2 ALUs).
        let mut last = 0;
        for i in 0..100 {
            let issued = pipeline.issue(if i % 2 == 0 { &add1 } else { &add2 }, 0, None);
            last = issued.issue_cycle;
        }
        // 100 ops, 2 per cycle → about 50 cycles.
        assert!((45..=60).contains(&last), "last issue at {last}");
    }

    #[test]
    fn dependency_chain_serializes() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        let dependent = decode(&machine, "ADD x1, x1, x1");
        let mut prev_complete = 0;
        for _ in 0..20 {
            let issued = pipeline.issue(&dependent, 0, None);
            assert!(
                issued.issue_cycle >= prev_complete,
                "must wait for own result"
            );
            prev_complete = issued.complete_cycle;
        }
        // Latency-1 chain: ~1 instruction per cycle.
        assert!(pipeline.elapsed_cycles() >= 20);
    }

    #[test]
    fn long_latency_chain_costs_latency_each() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        let chain = decode(&machine, "MUL x1, x1, x2");
        for _ in 0..10 {
            pipeline.issue(&chain, 0, None);
        }
        let latency = machine.latency(gest_isa::Opcode::Mul) as u64;
        assert!(pipeline.elapsed_cycles() >= 10 * latency);
    }

    #[test]
    fn unpipelined_divider_blocks_reissue() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        // Independent divides (different registers) still serialize on the
        // single unpipelined divider.
        let div1 = decode(&machine, "SDIV x1, x2, x3");
        let div2 = decode(&machine, "SDIV x4, x5, x6");
        let a = pipeline.issue(&div1, 0, None);
        let b = pipeline.issue(&div2, 0, None);
        assert!(
            b.issue_cycle >= a.issue_cycle + machine.fu(FuClass::Div).interval as u64,
            "{a:?} then {b:?}"
        );
    }

    #[test]
    fn in_order_blocks_younger_behind_stall() {
        let machine = MachineConfig::cortex_a7();
        let mut pipeline = Pipeline::new(&machine);
        let mul_chain = decode(&machine, "MUL x1, x1, x2");
        let independent = decode(&machine, "ADD x5, x6, x7");
        pipeline.issue(&mul_chain, 0, None);
        let stalled = pipeline.issue(&mul_chain, 0, None); // waits on x1
        let younger = pipeline.issue(&independent, 0, None);
        assert!(
            younger.issue_cycle >= stalled.issue_cycle,
            "in-order core cannot issue younger ops early: {younger:?} vs {stalled:?}"
        );
    }

    #[test]
    fn out_of_order_lets_younger_pass() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        let div_chain = decode(&machine, "SDIV x1, x1, x2");
        let independent = decode(&machine, "ADD x5, x6, x7");
        pipeline.issue(&div_chain, 0, None);
        let stalled = pipeline.issue(&div_chain, 0, None);
        let younger = pipeline.issue(&independent, 0, None);
        assert!(
            younger.issue_cycle < stalled.issue_cycle,
            "OoO core should let the ADD pass the stalled divide"
        );
    }

    #[test]
    fn mispredict_redirects_fetch() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        let branch = decode(&machine, "CBNZ x1, #2");
        let add = decode(&machine, "ADD x2, x3, x4");
        let b = pipeline.issue(
            &branch,
            0,
            Some(BranchResolution {
                taken: true,
                correct: false,
            }),
        );
        let after = pipeline.issue(&add, 0, None);
        assert!(
            after.issue_cycle >= b.complete_cycle + machine.mispredict_penalty as u64,
            "fetch must restart after resolve + penalty: {after:?} vs {b:?}"
        );
    }

    #[test]
    fn correct_prediction_costs_nothing_at_zero_taken_penalty() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        let branch = decode(&machine, "CBNZ x1, #2");
        let add = decode(&machine, "ADD x2, x3, x4");
        pipeline.issue(
            &branch,
            0,
            Some(BranchResolution {
                taken: true,
                correct: true,
            }),
        );
        let after = pipeline.issue(&add, 0, None);
        assert!(
            after.issue_cycle <= 2,
            "no redirect bubble expected, got {after:?}"
        );
    }

    #[test]
    fn window_limits_runahead() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        let slow = decode(&machine, "SDIV x1, x1, x2"); // serial chain
        let fast = decode(&machine, "ADD x5, x6, x7");
        // One long chain head, then far more independent adds than the
        // window holds: fetch must eventually throttle on the window.
        pipeline.issue(&slow, 0, None);
        pipeline.issue(&slow, 0, None);
        let mut max_gap = 0i64;
        for _ in 0..500 {
            let issued = pipeline.issue(&fast, 0, None);
            let gap = issued.complete_cycle as i64 - issued.issue_cycle as i64;
            max_gap = max_gap.max(gap);
        }
        // The ROB models retirement order: total elapsed cycles must be at
        // least bounded below by the serial divide chain draining through
        // the window.
        assert!(
            pipeline.elapsed_cycles() >= 24,
            "{}",
            pipeline.elapsed_cycles()
        );
    }

    #[test]
    fn cache_miss_extends_completion() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        let load = decode(&machine, "LDR x1, [x10, #0]");
        let hit = pipeline.issue(&load, 0, None);
        let miss = pipeline.issue(&load, machine.miss_penalty, None);
        assert_eq!(
            miss.complete_cycle - miss.issue_cycle,
            (hit.complete_cycle - hit.issue_cycle) + machine.miss_penalty as u64
        );
    }

    #[test]
    fn issue_bandwidth_capped_at_width() {
        let machine = MachineConfig::cortex_a15();
        let mut pipeline = Pipeline::new(&machine);
        // Mix across FU classes so units are not the bottleneck: 2 ALU +
        // 2 FP + 1 Mem + 1 Branch available per cycle, but width is 3.
        let ops = [
            decode(&machine, "ADD x1, x2, x3"),
            decode(&machine, "FMUL v1, v2, v3"),
            decode(&machine, "LDR x4, [x10, #0]"),
            decode(&machine, "ADD x5, x6, x7"),
            decode(&machine, "FMUL v4, v5, v6"),
        ];
        let mut per_cycle = std::collections::HashMap::new();
        for i in 0..300 {
            let issued = pipeline.issue(&ops[i % ops.len()], 0, None);
            *per_cycle.entry(issued.issue_cycle).or_insert(0u8) += 1;
        }
        assert!(per_cycle.values().all(|&n| n <= machine.width));
        // And the machine should actually reach its width on some cycles.
        assert!(per_cycle.values().any(|&n| n == machine.width));
    }
}
