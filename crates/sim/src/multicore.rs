//! Multi-core simulation with a shared L2 and interconnect.
//!
//! The paper measures every virus "with all cores active with each core
//! running a separate virus instance" and notes that its viruses "do not
//! make use of shared resources (e.g. LLC), hence ... scale well with
//! multi-core execution", while citing MAMPO's finding that shared-memory
//! virus threads raise power further through the network-on-chip (§IV).
//! The paper leaves shared-memory stress as an "important extension ...
//! beyond the scope of this work" — this module builds it.
//!
//! Each core runs its own architectural state, L1, branch predictor, and
//! scoreboard pipeline. L1 misses travel over a shared bus (modelled as a
//! single server with a fixed service interval) into a shared L2; L2
//! misses pay DRAM latency. Cores are interleaved one loop-iteration at a
//! time, and each core's local pipeline clock doubles as the bus
//! timestamp — an approximation that is accurate when the co-running
//! instances progress at similar rates (exactly the homogeneous
//! virus-per-core scenario of the paper).

use crate::cache::{CacheConfig, CacheStats, DataCache};
use crate::machine::MachineConfig;
use crate::pipeline::{BranchResolution, Decoded, Pipeline};
use crate::power::EnergyModel;
use crate::predictor::BranchPredictor;
use crate::result::SimError;
use gest_isa::{ArchState, Flow, InstrClass, Program};

/// Whether co-running instances address private or shared data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSharing {
    /// Each core has a private buffer (the paper's virus setup): cores
    /// compete for L2 *capacity* but never share lines.
    Private,
    /// All cores address one shared buffer (the MAMPO-style setup): the
    /// first core's misses warm the L2 for the others.
    Shared,
}

/// Shared-uncore parameters: L2, bus, DRAM, and interconnect energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncoreConfig {
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// Added latency for an L1 miss that hits L2 (cycles).
    pub l2_latency: u8,
    /// Bus occupancy per L2 access (cycles); back-to-back misses from
    /// many cores queue behind each other.
    pub bus_interval: u8,
    /// Additional latency for an L2 miss (DRAM access, cycles).
    pub dram_latency: u8,
    /// Energy per L2 access (picojoules).
    pub l2_access_pj: f64,
    /// Energy per DRAM access (picojoules).
    pub dram_access_pj: f64,
    /// Network-on-chip energy per miss message (picojoules) — the
    /// component MAMPO found contributing up to a third of total power.
    pub noc_hop_pj: f64,
}

impl UncoreConfig {
    /// A server-class uncore: 1 MiB 16-way L2, 20-cycle L2, 120-cycle
    /// DRAM.
    pub fn server() -> UncoreConfig {
        UncoreConfig {
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                line_bytes: 64,
                ways: 16,
            },
            l2_latency: 20,
            bus_interval: 4,
            dram_latency: 120,
            l2_access_pj: 600.0,
            dram_access_pj: 6000.0,
            noc_hop_pj: 350.0,
        }
    }
}

/// Per-core outcome of a multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreResult {
    /// Cycles this core needed.
    pub cycles: u64,
    /// Instructions this core retired.
    pub instructions: u64,
    /// This core's IPC.
    pub ipc: f64,
    /// This core's average power (watts), excluding uncore.
    pub avg_power_w: f64,
    /// This core's L1 statistics.
    pub l1: CacheStats,
}

/// Outcome of a multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreResult {
    /// Number of cores that ran.
    pub cores: u8,
    /// Per-core results.
    pub per_core: Vec<CoreResult>,
    /// Shared L2 statistics.
    pub l2: CacheStats,
    /// Power drawn by the NoC + L2 + DRAM traffic (watts).
    pub uncore_traffic_w: f64,
    /// Whole-chip power: Σ core power + machine uncore static + traffic.
    pub chip_power_w: f64,
    /// Aggregate throughput relative to `cores` ideal copies of the
    /// single-core run: 1.0 = perfect scaling (the paper's virus claim).
    pub scaling_efficiency: f64,
}

/// Runs one program instance per core through private L1s and a shared
/// L2/bus.
#[derive(Debug, Clone)]
pub struct MultiCoreSimulator {
    machine: MachineConfig,
    uncore: UncoreConfig,
    sharing: MemSharing,
    /// Per-core data-buffer size (bytes); values beyond L1 capacity create
    /// the shared-memory traffic this model exists to study.
    buffer_bytes: usize,
}

struct Core {
    state: ArchState,
    pipeline: Pipeline,
    l1: DataCache,
    predictor: BranchPredictor,
    energy_pj: f64,
    retired: u64,
    done: bool,
}

impl MultiCoreSimulator {
    /// Creates a simulator with the machine's own scratch-buffer size
    /// (viruses: L1-resident, no sharing traffic).
    pub fn new(machine: MachineConfig, uncore: UncoreConfig) -> MultiCoreSimulator {
        let buffer_bytes = machine.mem_bytes;
        MultiCoreSimulator {
            machine,
            uncore,
            sharing: MemSharing::Private,
            buffer_bytes,
        }
    }

    /// Overrides the per-core buffer size (power of two), e.g. 256 KiB to
    /// spill out of L1.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two or is smaller than 64.
    pub fn with_buffer_bytes(mut self, bytes: usize) -> MultiCoreSimulator {
        assert!(
            bytes.is_power_of_two() && bytes >= 64,
            "bad buffer size {bytes}"
        );
        self.buffer_bytes = bytes;
        self
    }

    /// Selects private vs shared data buffers.
    pub fn with_sharing(mut self, sharing: MemSharing) -> MultiCoreSimulator {
        self.sharing = sharing;
        self
    }

    /// Runs `cores` instances of `program` for `iterations` loop
    /// iterations each and reports chip-level results.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyProgram`] for empty bodies.
    pub fn run_replicated(
        &self,
        program: &Program,
        cores: u8,
        iterations: u64,
    ) -> Result<MultiCoreResult, SimError> {
        if program.body.is_empty() {
            return Err(SimError::EmptyProgram);
        }
        let cores = cores.max(1);
        let energy_model = EnergyModel::new(&self.machine);
        let decoded: Vec<Decoded> = program
            .body
            .iter()
            .map(|i| Pipeline::decode(&self.machine, i))
            .collect();
        let classes: Vec<InstrClass> = program.body.iter().map(|i| i.opcode().class()).collect();

        let mut core_states: Vec<Core> = (0..cores)
            .map(|_| {
                let mut state = ArchState::new(self.buffer_bytes);
                program.apply_init(&mut state);
                Core {
                    state,
                    pipeline: Pipeline::new(&self.machine),
                    l1: DataCache::new(self.machine.l1d),
                    predictor: BranchPredictor::new(program.body.len()),
                    energy_pj: 0.0,
                    retired: 0,
                    done: false,
                }
            })
            .collect();

        let mut l2 = DataCache::new(self.uncore.l2);
        let mut bus_free: u64 = 0;
        let mut traffic_pj = 0.0f64;

        for _ in 0..iterations {
            for (core_index, core) in core_states.iter_mut().enumerate() {
                if core.done {
                    continue;
                }
                let mut pc = 0usize;
                while pc < program.body.len() {
                    let instr = &program.body[pc];
                    let effect = instr.apply(&mut core.state);
                    let branch = if decoded[pc].is_branch {
                        let correct = core.predictor.update(pc, effect.branch_taken);
                        Some(BranchResolution {
                            taken: effect.branch_taken,
                            correct,
                        })
                    } else {
                        None
                    };

                    let mut extra_latency = 0u8;
                    let mut l1_missed = false;
                    if let Some(access) = effect.mem {
                        if !core.l1.access(access.addr) {
                            l1_missed = true;
                            // L1 miss: cross the NoC into the shared L2.
                            let local_cycle = core.pipeline.elapsed_cycles();
                            let start = local_cycle.max(bus_free);
                            let queue_delay = (start - local_cycle).min(u8::MAX as u64) as u8;
                            bus_free = start + self.uncore.bus_interval as u64;
                            let l2_addr = match self.sharing {
                                MemSharing::Shared => access.addr,
                                // Tag private buffers apart so cores
                                // compete for capacity without sharing
                                // lines. The tag bits assume a 64-bit
                                // address space; guard the assumption.
                                MemSharing::Private => {
                                    const _: () = assert!(
                                        usize::BITS >= 64,
                                        "private-buffer L2 tagging needs 64-bit addresses"
                                    );
                                    access.addr | (core_index + 1) << 44
                                }
                            };
                            traffic_pj += self.uncore.noc_hop_pj + self.uncore.l2_access_pj;
                            let mut latency = self.uncore.l2_latency as u64 + queue_delay as u64;
                            if !l2.access(l2_addr) {
                                latency += self.uncore.dram_latency as u64;
                                traffic_pj += self.uncore.dram_access_pj;
                            }
                            extra_latency = latency.min(u8::MAX as u64) as u8;
                        }
                    }

                    let issued = core.pipeline.issue(&decoded[pc], extra_latency, branch);
                    let _ = issued;
                    let latency = decoded[pc].latency.saturating_add(extra_latency);
                    core.energy_pj +=
                        energy_model.instruction_pj(classes[pc], &effect, latency, l1_missed);
                    core.retired += 1;

                    pc += 1;
                    if let Flow::Skip(n) = effect.flow {
                        pc += n as usize;
                    }
                }
            }
        }

        let per_core: Vec<CoreResult> = core_states
            .iter()
            .map(|core| {
                let cycles = core.pipeline.elapsed_cycles().max(1);
                let static_pj = energy_model.static_pj_per_cycle() * cycles as f64;
                let avg_power_w =
                    energy_model.cycle_power_w((core.energy_pj + static_pj) / cycles as f64);
                CoreResult {
                    cycles,
                    instructions: core.retired,
                    ipc: core.retired as f64 / cycles as f64,
                    avg_power_w,
                    l1: core.l1.stats(),
                }
            })
            .collect();

        // Scaling efficiency: aggregate throughput vs `cores` ideal copies
        // of a solo run (one core, same uncore path).
        let solo_ipc = if cores == 1 {
            per_core[0].ipc
        } else {
            self.run_replicated(program, 1, iterations)?.per_core[0].ipc
        };
        let aggregate_ipc: f64 = per_core.iter().map(|c| c.ipc).sum();
        let scaling_efficiency = if solo_ipc > 0.0 {
            aggregate_ipc / (cores as f64 * solo_ipc)
        } else {
            0.0
        };

        let max_cycles = per_core.iter().map(|c| c.cycles).max().unwrap_or(1);
        let elapsed_s = max_cycles as f64 / self.machine.clock_hz;
        let uncore_traffic_w = traffic_pj * 1e-12 / elapsed_s;
        let chip_power_w = per_core.iter().map(|c| c.avg_power_w).sum::<f64>()
            + self.machine.uncore_w
            + uncore_traffic_w;

        Ok(MultiCoreResult {
            cores,
            per_core,
            l2: l2.stats(),
            uncore_traffic_w,
            chip_power_w,
            scaling_efficiency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_isa::{asm, Template};

    fn virus_like() -> Program {
        Template::default_stress().materialize(
            "virus",
            asm::parse_block(
                "VFMLA v8, v0, v1\nVFMUL v9, v2, v3\nLDR x11, [x10, #64]\nADD x1, x2, x3",
            )
            .unwrap(),
        )
    }

    /// A load loop striding a full line per access: with a large buffer it
    /// misses L1 constantly.
    fn streaming() -> Program {
        Template::default_stress().materialize(
            "streaming",
            asm::parse_block(
                "LDR x11, [x10, #0]\nLDR x12, [x10, #64]\nLDR x13, [x10, #128]\nADDI x10, x10, #192",
            )
            .unwrap(),
        )
    }

    fn simulator() -> MultiCoreSimulator {
        MultiCoreSimulator::new(MachineConfig::xgene2(), UncoreConfig::server())
    }

    #[test]
    fn l1_resident_virus_scales_linearly() {
        let result = simulator().run_replicated(&virus_like(), 8, 80).unwrap();
        assert!(
            result.scaling_efficiency > 0.95,
            "virus should scale: {}",
            result.scaling_efficiency
        );
        // Only cold-start L1 misses reach the L2.
        let l2_total = result.l2.hits + result.l2.misses;
        assert!(
            l2_total < 64,
            "virus must stay L1-resident, saw {l2_total} L2 accesses"
        );
        // Only the cold-start misses generate traffic; a streaming run
        // (below) generates an order of magnitude more.
        assert!(result.uncore_traffic_w < 0.5, "{}", result.uncore_traffic_w);
    }

    #[test]
    fn streaming_workload_contends() {
        let simulator = simulator().with_buffer_bytes(1 << 20);
        let result = simulator.run_replicated(&streaming(), 8, 80).unwrap();
        assert!(
            result.scaling_efficiency < 0.9,
            "8 streaming cores must contend: {}",
            result.scaling_efficiency
        );
        assert!(
            result.uncore_traffic_w > 0.5,
            "NoC/L2/DRAM power should be significant"
        );
    }

    #[test]
    fn shared_buffers_hit_in_l2_more() {
        let private = simulator()
            .with_buffer_bytes(1 << 19)
            .with_sharing(MemSharing::Private)
            .run_replicated(&streaming(), 4, 60)
            .unwrap();
        let shared = simulator()
            .with_buffer_bytes(1 << 19)
            .with_sharing(MemSharing::Shared)
            .run_replicated(&streaming(), 4, 60)
            .unwrap();
        assert!(
            shared.l2.hit_rate() > private.l2.hit_rate(),
            "shared data should warm the L2: {} vs {}",
            shared.l2.hit_rate(),
            private.l2.hit_rate()
        );
    }

    #[test]
    fn chip_power_includes_all_components() {
        let result = simulator().run_replicated(&virus_like(), 4, 40).unwrap();
        let core_sum: f64 = result.per_core.iter().map(|c| c.avg_power_w).sum();
        assert!(result.chip_power_w >= core_sum + MachineConfig::xgene2().uncore_w - 1e-9);
        assert_eq!(result.per_core.len(), 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = simulator().run_replicated(&virus_like(), 4, 40).unwrap();
        let b = simulator().run_replicated(&virus_like(), 4, 40).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_program_rejected() {
        let err = simulator()
            .run_replicated(&Program::from_body("e", vec![]), 2, 10)
            .unwrap_err();
        assert_eq!(err, SimError::EmptyProgram);
    }

    #[test]
    #[should_panic(expected = "bad buffer size")]
    fn bad_buffer_panics() {
        let _ = simulator().with_buffer_bytes(1000);
    }
}
