//! Property tests over the simulator: for arbitrary instruction mixes the
//! timing, power, and PDN models must uphold their physical invariants.

use gest_isa::{asm, Program, Template};
use gest_sim::{MachineConfig, Pdn, RunConfig, RunScratch, Simulator};
use proptest::prelude::*;

/// A strategy over small loop bodies drawn from a safe instruction menu.
fn body_strategy() -> impl Strategy<Value = Vec<String>> {
    let menu = prop::sample::select(vec![
        "ADD x1, x2, x3",
        "SUB x4, x5, x6",
        "EOR x7, x1, x2",
        "MUL x8, x2, x3",
        "SDIV x9, x2, x3",
        "FMUL v0, v1, v2",
        "FMLA v3, v4, v5",
        "VFMLA v6, v7, v1",
        "VEOR v2, v3, v4",
        "LDR x11, [x10, #8]",
        "STR x1, [x10, #16]",
        "LDP x12, x13, [x10, #32]",
        "VLDR v5, [x10, #64]",
        "CBNZ x1, #2",
        "B #1",
        "NOP",
    ]);
    prop::collection::vec(menu.prop_map(str::to_owned), 1..32)
}

fn run(machine: MachineConfig, lines: &[String]) -> gest_sim::RunResult {
    let body = asm::parse_block(&lines.join("\n")).unwrap();
    let program: Program = Template::default_stress().materialize("prop", body);
    Simulator::new(machine)
        .run(
            &program,
            &RunConfig {
                max_iterations: 40,
                max_cycles: 3000,
                ..RunConfig::default()
            },
        )
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn physical_invariants_hold(lines in body_strategy()) {
        for machine in [MachineConfig::cortex_a15(), MachineConfig::cortex_a7()] {
            let result = run(machine.clone(), &lines);
            // IPC can never exceed the machine width.
            prop_assert!(result.ipc <= machine.max_ipc() + 1e-9, "ipc {}", result.ipc);
            prop_assert!(result.ipc > 0.0);
            // Power is at least static, and finite.
            prop_assert!(result.avg_power_w >= machine.energy.static_w - 1e-9);
            prop_assert!(result.avg_power_w.is_finite());
            prop_assert!(result.peak_power_w >= result.avg_power_w - 1e-9);
            // Temperature between ambient and a physically silly bound.
            prop_assert!(result.temperature_c >= machine.thermal.ambient_c - 1e-6);
            prop_assert!(result.temperature_c < 500.0);
            // Energy = avg power × time.
            let time_s = result.cycles as f64 / machine.clock_hz;
            prop_assert!((result.energy_j - result.avg_power_w * time_s).abs()
                <= 1e-6 * result.energy_j.max(1e-12));
            // Branch accuracy is a probability.
            prop_assert!((0.0..=1.0).contains(&result.branch_accuracy));
        }
    }

    #[test]
    fn steady_fast_path_is_bit_identical_on_every_machine(lines in body_strategy()) {
        // The steady-state extrapolation must be invisible: whether or not
        // the detector fires, RunResult *and* the per-cycle Traces must be
        // bit-for-bit what full simulation produces, on all four machines.
        for machine in [
            MachineConfig::cortex_a15(),
            MachineConfig::cortex_a7(),
            MachineConfig::xgene2(),
            MachineConfig::athlon_x4(),
        ] {
            let body = asm::parse_block(&lines.join("\n")).unwrap();
            let program: Program = Template::default_stress().materialize("prop", body);
            let config = |steady| RunConfig {
                max_iterations: 40,
                max_cycles: 3000,
                steady_detect: steady,
                ..RunConfig::default()
            };
            let simulator = Simulator::new(machine);
            let (fast, fast_traces) = simulator.run_traced(&program, &config(true)).unwrap();
            let (full, full_traces) = simulator.run_traced(&program, &config(false)).unwrap();
            prop_assert_eq!(&fast, &full);
            prop_assert_eq!(
                fast_traces.power_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                full_traces.power_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                fast_traces.voltage_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                full_traces.voltage_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn reused_scratch_is_field_identical_to_fresh_scratch_per_program(
        bodies in prop::collection::vec(
            prop::collection::vec(
                prop::sample::select(vec![
                    "ADD x1, x2, x3",
                    "MUL x8, x2, x3",
                    "FMUL v0, v1, v2",
                    "VFMLA v6, v7, v1",
                    "LDR x11, [x10, #8]",
                    "STR x1, [x10, #16]",
                    "CBNZ x1, #2",
                    "NOP",
                ]).prop_map(str::to_owned),
                // Empty bodies are legal inputs here: they must surface as
                // their own `SimError::EmptyProgram` without disturbing
                // the programs after them.
                0..24,
            ),
            1..9,
        )
    ) {
        let config = RunConfig {
            max_iterations: 40,
            max_cycles: 3000,
            ..RunConfig::default()
        };
        // One scratch across both machines and every program exercises
        // buffer reuse under geometry changes, not just the first cold
        // run; each program also runs alone on a fresh scratch.
        let mut scratch = RunScratch::new();
        for machine in [MachineConfig::cortex_a15(), MachineConfig::athlon_x4()] {
            let programs: Vec<Program> = bodies
                .iter()
                .enumerate()
                .map(|(i, lines)| {
                    let body = asm::parse_block(&lines.join("\n")).unwrap();
                    Template::default_stress().materialize(format!("lane{i}"), body)
                })
                .collect();
            let simulator = Simulator::new(machine);

            let mut single_runs = 0u64;
            let mut single_steady = 0u64;
            let mut single_extrapolated = 0u64;
            for program in &programs {
                let reused = simulator.run_with_scratch(program, &config, &mut scratch);
                let mut single_scratch = RunScratch::new();
                let single = simulator.run_with_scratch(program, &config, &mut single_scratch);
                prop_assert_eq!(reused, single, "{}", program.name);
                single_runs += single_scratch.runs;
                single_steady += single_scratch.steady_hits;
                single_extrapolated += single_scratch.extrapolated_iterations;
            }
            prop_assert_eq!(scratch.runs, single_runs, "aggregate run count");
            prop_assert_eq!(scratch.steady_hits, single_steady, "aggregate steady hits");
            prop_assert_eq!(
                scratch.extrapolated_iterations, single_extrapolated,
                "aggregate extrapolated iterations"
            );
            scratch.runs = 0;
            scratch.steady_hits = 0;
            scratch.extrapolated_iterations = 0;
        }
    }

    #[test]
    fn determinism(lines in body_strategy()) {
        let a = run(MachineConfig::athlon_x4(), &lines);
        let b = run(MachineConfig::athlon_x4(), &lines);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn voltage_within_physical_bounds(lines in body_strategy()) {
        let result = run(MachineConfig::athlon_x4(), &lines);
        let config = MachineConfig::athlon_x4().pdn.unwrap();
        let stats = result.voltage.unwrap();
        prop_assert!(stats.min_v > 0.5 * config.vdd, "min_v {}", stats.min_v);
        prop_assert!(stats.max_v < 1.5 * config.vdd, "max_v {}", stats.max_v);
        prop_assert!(stats.min_v <= stats.max_v);
    }

    #[test]
    fn class_counts_sum_to_instructions(lines in body_strategy()) {
        let result = run(MachineConfig::xgene2(), &lines);
        let total: u64 = result.class_counts.iter().sum();
        prop_assert_eq!(total, result.instructions);
    }

    #[test]
    fn pdn_energy_conservation(currents in prop::collection::vec(0.0f64..50.0, 64..512)) {
        // For any bounded load-current sequence the die voltage stays
        // bounded (no numerical blow-up in the integrator).
        let config = MachineConfig::athlon_x4().pdn.unwrap();
        let dt = 1.0 / MachineConfig::athlon_x4().clock_hz;
        let mut pdn = Pdn::new(config, 0.0, dt);
        for &i in &currents {
            let v = pdn.step(i);
            prop_assert!(v.is_finite());
            prop_assert!(v.abs() < 10.0 * config.vdd, "runaway voltage {v}");
        }
    }
}
