//! One function per paper table/figure. Each returns a printable report;
//! the `src/bin` wrappers print them and `all_experiments` concatenates
//! everything into an EXPERIMENTS-style document.

use crate::{
    breakdown_header, breakdown_row, compare_run_config, evolve, measure, render_normalized,
    workload_bars, Bar, Budget,
};
use gest_core::GestError;
use gest_ga::GaConfig;
use gest_sim::{characterize_vmin, MachineConfig, VminConfig};
use gest_workloads as workloads;
use std::fmt::Write as _;

/// Table I: the GA parameter defaults.
pub fn table1() -> String {
    let config = GaConfig::default();
    let mut out = String::from("Table I — GA parameters (defaults)\n");
    let _ = writeln!(out, "{:<46} Default Values", "Parameter");
    let _ = writeln!(out, "{:<46} {}", "population_size", config.population_size);
    let _ = writeln!(
        out,
        "{:<46} 15-50",
        "Individual Size (number of loop instructions)"
    );
    let _ = writeln!(out, "{:<46} 0.02 - 0.08 (1/loop length)", "mutation_rate");
    let _ = writeln!(out, "{:<46} {:?}", "crossover_operator", config.crossover);
    let _ = writeln!(
        out,
        "{:<46} {}",
        "elitism (best promoted to next generation)", config.elitism
    );
    let _ = writeln!(
        out,
        "{:<46} {:?}",
        "parent_selection_method", config.selection
    );
    out
}

fn power_virus_bars(
    target: &MachineConfig,
    own_seed: u64,
    other_machine: &str,
    other_seed: u64,
    own_label: &str,
    other_label: &str,
) -> Result<Vec<Bar>, GestError> {
    let budget = Budget::paper();
    let own = evolve(&target.name, "power", "default", budget, own_seed)?;
    let other = evolve(other_machine, "power", "default", budget, other_seed)?;

    let mut bars = workload_bars(
        target,
        &[
            workloads::coremark(),
            workloads::fdct(),
            workloads::imdct(),
            if target.name == "cortex-a15" {
                workloads::a15_manual_stress()
            } else {
                workloads::a7_manual_stress()
            },
        ],
        |r| r.avg_power_w,
    )?;
    bars.push(Bar {
        label: other_label.to_owned(),
        value: measure(target, &other.best_program)?.avg_power_w,
    });
    bars.push(Bar {
        label: own_label.to_owned(),
        value: measure(target, &own.best_program)?.avg_power_w,
    });
    Ok(bars)
}

/// Figure 5: Cortex-A15 power results, normalized to coremark.
pub fn fig5() -> Result<String, GestError> {
    let machine = MachineConfig::cortex_a15();
    let bars = power_virus_bars(&machine, 15, "cortex-a7", 7, "A15_GA_virus", "A7_GA_virus")?;
    Ok(render_normalized(
        "Figure 5 — Cortex-A15 power results",
        "W",
        &bars,
        "coremark",
    ))
}

/// Figure 6: Cortex-A7 power results, normalized to coremark.
pub fn fig6() -> Result<String, GestError> {
    let machine = MachineConfig::cortex_a7();
    let bars = power_virus_bars(&machine, 7, "cortex-a15", 15, "A7_GA_virus", "A15_GA_virus")?;
    Ok(render_normalized(
        "Figure 6 — Cortex-A7 power results",
        "W",
        &bars,
        "coremark",
    ))
}

/// Table III: instruction breakdown of the Cortex-A15 and Cortex-A7 power
/// viruses.
pub fn table3() -> Result<String, GestError> {
    let budget = Budget::paper();
    let a15 = evolve("cortex-a15", "power", "default", budget, 15)?;
    let a7 = evolve("cortex-a7", "power", "default", budget, 7)?;
    let mut out = String::from("Table III — instruction breakdown of the A15/A7 power viruses\n");
    let _ = writeln!(out, "{}", breakdown_header(true));
    let _ = writeln!(
        out,
        "{}",
        breakdown_row("Cortex-A15", a15.best_breakdown(), true)
    );
    let _ = writeln!(
        out,
        "{}",
        breakdown_row("Cortex-A7", a7.best_breakdown(), true)
    );
    let _ = writeln!(
        out,
        "\n(paper: A15 virus dominated by Float/SIMD+Mem with 1 branch; A7 virus \
         uses many more branches — {} vs {} branches here)",
        a15.best_breakdown()[4],
        a7.best_breakdown()[4]
    );
    Ok(out)
}

/// Figure 7: X-Gene2 chip temperature, normalized to bodytrack.
pub fn fig7() -> Result<String, GestError> {
    let machine = MachineConfig::xgene2();
    let budget = Budget::paper();
    let power_virus = evolve("xgene2", "temperature", "default", budget, 2)?;
    let ipc_virus = evolve("xgene2", "ipc", "default", budget, 4)?;

    let mut suite = workloads::suite(workloads::Suite::Parsec);
    suite.extend(workloads::suite(workloads::Suite::Nas));
    let mut bars = workload_bars(&machine, &suite, |r| r.temperature_c)?;
    bars.push(Bar {
        label: "IPCvirus".into(),
        value: measure(&machine, &ipc_virus.best_program)?.temperature_c,
    });
    bars.push(Bar {
        label: "powerVirus".into(),
        value: measure(&machine, &power_virus.best_program)?.temperature_c,
    });
    Ok(render_normalized(
        "Figure 7 — X-Gene2 chip temperature results",
        "degC",
        &bars,
        "bodytrack",
    ))
}

/// Table IV: powerVirus vs powerVirusSimple vs IPCvirus comparison.
pub fn table4() -> Result<String, GestError> {
    let machine = MachineConfig::xgene2();
    let budget = Budget::paper();
    let power_virus = evolve("xgene2", "temperature", "default", budget, 2)?;
    // Equation 1 needs I_T and MAX_T; per the paper, "the maximum
    // temperature can be obtained ... from a previous GA run". The run
    // supplies I_T (the static-power steady state); the registered
    // constructor replaces the shipped TJMAX with the power virus's
    // measured temperature.
    let max_c = power_virus.best.measurements[0];
    let registry = gest_core::Registry::default().fitness("temp_simplicity", move |params| {
        Ok(std::sync::Arc::new(gest_core::TempSimplicityFitness::new(
            params.idle_c,
            max_c,
        )))
    });
    let simple_config = gest_core::GestConfig::builder("xgene2")
        .measurement("temperature")
        .fitness("temp_simplicity")
        .population_size(budget.population)
        .individual_size(budget.individual)
        .generations(budget.generations)
        .seed(2)
        .build()?;
    let simple_virus = gest_core::GestRun::builder()
        .config(simple_config)
        .registry(registry)
        .build()?
        .run()?;
    let ipc_virus = evolve("xgene2", "ipc", "default", budget, 4)?;

    let reference = measure(&machine, &power_virus.best_program)?;
    let mut out =
        String::from("Table IV — power virus, simple power virus and IPC virus comparison\n");
    let _ = writeln!(
        out,
        "{} {:>9} {:>10} {:>10} {:>9}",
        breakdown_header(false),
        "Rel.IPC",
        "Rel.Power",
        "Rel.Temp",
        "#Unique"
    );
    for (label, summary) in [
        ("powerVirus", &power_virus),
        ("powerVirusSimple", &simple_virus),
        ("IPCvirus", &ipc_virus),
    ] {
        let result = measure(&machine, &summary.best_program)?;
        let rel_temp = (result.temperature_c - machine.thermal.ambient_c)
            / (reference.temperature_c - machine.thermal.ambient_c);
        let _ = writeln!(
            out,
            "{} {:>9.2} {:>10.2} {:>10.2} {:>9}",
            breakdown_row(label, summary.best_breakdown(), false),
            result.ipc / reference.ipc,
            result.avg_power_w / reference.avg_power_w,
            rel_temp,
            summary.best_unique_defs()
        );
    }
    let _ = writeln!(
        out,
        "\n(paper: powerVirusSimple matches powerVirus power/temperature with 13 vs 21 \
         unique instructions; IPCvirus trades power for IPC)"
    );
    Ok(out)
}

fn didt_virus() -> Result<gest_core::RunSummary, GestError> {
    let machine = MachineConfig::athlon_x4();
    let pdn = machine.pdn.expect("athlon has a PDN");
    let loop_len =
        GaConfig::didt_loop_length(machine.clock_hz, pdn.resonance_hz(), machine.max_ipc());
    evolve(
        "athlon-x4",
        "voltage_noise",
        "default",
        Budget::paper_with_individual(loop_len),
        8,
    )
}

fn athlon_comparison_set() -> Vec<workloads::Workload> {
    vec![
        workloads::coremark(),
        workloads::linpack(),
        workloads::amd_stability(),
        workloads::prime95(),
    ]
}

/// Figure 8: max-min voltage noise on the AMD Athlon model.
pub fn fig8() -> Result<String, GestError> {
    let machine = MachineConfig::athlon_x4();
    let virus = didt_virus()?;
    let mut bars = workload_bars(&machine, &athlon_comparison_set(), |r| {
        r.voltage_peak_to_peak().expect("athlon has a PDN") * 1e3
    })?;
    bars.push(Bar {
        label: "GA_dIdt_virus".into(),
        value: measure(&machine, &virus.best_program)?
            .voltage_peak_to_peak()
            .expect("athlon has a PDN")
            * 1e3,
    });
    Ok(render_normalized(
        "Figure 8 — voltage-noise (max-min) results on the AMD Athlon model",
        "mV",
        &bars,
        "coremark",
    ))
}

/// Figure 9: V_MIN results on the AMD Athlon model (12.5 mV steps).
pub fn fig9() -> Result<String, GestError> {
    let machine = MachineConfig::athlon_x4();
    let virus = didt_virus()?;
    let run_config = compare_run_config();
    let vmin_config = VminConfig::default();
    let mut out =
        String::from("Figure 9 — V_MIN results on the AMD Athlon model (12.5 mV steps)\n");
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>14}",
        "workload", "vmin (V)", "margin (mV)"
    );
    let nominal = machine.pdn.expect("athlon has a PDN").vdd;
    let mut rows: Vec<(String, f64)> = Vec::new();
    for workload in athlon_comparison_set() {
        let vmin = characterize_vmin(&machine, &workload.program, &run_config, &vmin_config)?;
        rows.push((workload.name.to_owned(), vmin.vmin_v));
    }
    let virus_vmin = characterize_vmin(&machine, &virus.best_program, &run_config, &vmin_config)?;
    rows.push(("GA_dIdt_virus".into(), virus_vmin.vmin_v));
    for (label, vmin) in &rows {
        let _ = writeln!(
            out,
            "{:<24} {:>10.4} {:>14.1}",
            label,
            vmin,
            (nominal - vmin) * 1e3
        );
    }
    let _ = writeln!(
        out,
        "\n(the dI/dt virus fails at the highest supply voltage, making it the best \
         stability test — higher V_MIN = stricter test)"
    );
    Ok(out)
}

/// Table V: related-work comparison (qualitative; reprinted).
pub fn table5() -> String {
    let mut out = String::from("Table V — comparison of related work on GA frameworks\n");
    let rows = [
        (
            "Framework",
            "OptimizationType",
            "Language",
            "Evaluated-On",
            "Metrics",
            "Component",
        ),
        (
            "AUDIT",
            "Instruction-Level",
            "x86 ISA",
            "HW/Simulator",
            "dI/dt",
            "CPU",
        ),
        (
            "MAMPO",
            "Abstract-Workload",
            "SPARC ISA",
            "Simulator",
            "power",
            "CPU+DRAM",
        ),
        (
            "Joshi et al.",
            "Abstract-Workload",
            "Alpha ISA",
            "Simulator",
            "power",
            "CPU",
        ),
        (
            "Powermark",
            "Abstract-Workload",
            "C",
            "Real-Hardware",
            "power",
            "Full-System",
        ),
        (
            "GeST",
            "Instruction-Level",
            "ARM,x86",
            "Real-Hardware",
            "dI/dt,power",
            "CPU",
        ),
        (
            "gest-rs (this repo)",
            "Instruction-Level",
            "synthetic ISA",
            "Simulated-HW",
            "dI/dt,power,IPC,temp",
            "CPU",
        ),
    ];
    for (a, b, c, d, e, f) in rows {
        let _ = writeln!(out, "{a:<20} {b:<18} {c:<13} {d:<14} {e:<20} {f}");
    }
    out
}

/// Convergence curves (paper §IV runtime discussion: significant gains
/// within 70–100 generations).
pub fn convergence() -> Result<String, GestError> {
    let mut out = String::from("Convergence — best fitness per generation\n");
    for (machine, measurement, seed) in [
        ("cortex-a15", "power", 15u64),
        ("athlon-x4", "voltage_noise", 8),
    ] {
        let summary = evolve(machine, measurement, "default", Budget::paper(), seed)?;
        let series = summary.history.best_series();
        let _ = writeln!(out, "\n{machine} / {measurement}:");
        for (generation, value) in series.iter().enumerate() {
            if generation % 5 == 0 || generation + 1 == series.len() {
                let _ = writeln!(out, "  gen {generation:>3}: {value:.5}");
            }
        }
        let first = series.first().copied().unwrap_or(0.0);
        let last = series.last().copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  improvement over random seed: {:.1}%",
            100.0 * (last / first - 1.0)
        );
    }
    Ok(out)
}

/// Design-choice ablations called out in DESIGN.md.
pub fn ablations() -> Result<String, GestError> {
    let mut out = String::from("Ablations\n");

    // 1. One-point vs uniform crossover (paper §III.A prefers one-point,
    // "especially ... for maximum power and maximum dI/dt search" where
    // instruction order matters). Compare on both objectives, averaged
    // over several seeds.
    let _ = writeln!(
        out,
        "\n[1] crossover operator (mean best over seeds 33..36):"
    );
    for (machine, measurement, unit, scale) in [
        ("cortex-a15", "power", "W", 1.0),
        ("athlon-x4", "voltage_noise", "mV", 1e3),
    ] {
        for crossover in [
            gest_ga::CrossoverOp::OnePoint,
            gest_ga::CrossoverOp::Uniform,
        ] {
            let mut total = 0.0;
            let mut total_mid = 0.0;
            let seeds = [33u64, 34, 35, 36];
            for &seed in &seeds {
                let config = gest_core::GestConfig::builder(machine)
                    .measurement(measurement)
                    .population_size(30)
                    .individual_size(30)
                    .generations(30)
                    .crossover(crossover)
                    .seed(seed)
                    .build()?;
                let summary = gest_core::GestRun::builder()
                    .config(config)
                    .build()?
                    .run()?;
                total += summary.best.fitness;
                total_mid += summary
                    .history
                    .best_series()
                    .get(10)
                    .copied()
                    .unwrap_or(0.0);
            }
            let n = seeds.len() as f64;
            let _ = writeln!(
                out,
                "  {:<12} {:<10} best {:.4} {unit} (gen10 {:.4} {unit})",
                machine,
                format!("{crossover:?}"),
                scale * total / n,
                scale * total_mid / n,
            );
        }
    }

    // 2. Mutation-rate sweep around the 1-instruction rule of thumb.
    let _ = writeln!(
        out,
        "\n[2] mutation rate (loop length 30 => rule of thumb ~0.033):"
    );
    for rate in [0.0, 0.01, 0.033, 0.10, 0.30] {
        let config = gest_core::GestConfig::builder("cortex-a15")
            .measurement("power")
            .population_size(30)
            .individual_size(30)
            .mutation_rate(rate)
            .generations(30)
            .seed(33)
            .build()?;
        let summary = gest_core::GestRun::builder()
            .config(config)
            .build()?
            .run()?;
        let _ = writeln!(out, "  rate {rate:<5} best {:.4} W", summary.best.fitness);
    }

    // 3. Elitism on/off.
    let _ = writeln!(out, "\n[3] elitism:");
    for elitism in [true, false] {
        let config = gest_core::GestConfig::builder("cortex-a15")
            .measurement("power")
            .population_size(30)
            .individual_size(30)
            .elitism(elitism)
            .generations(30)
            .seed(33)
            .build()?;
        let summary = gest_core::GestRun::builder()
            .config(config)
            .build()?
            .run()?;
        let _ = writeln!(
            out,
            "  elitism={elitism:<5} best {:.4} W",
            summary.best.fitness
        );
    }

    // 4. Register initialization: checkerboard vs zero (paper §III.B.2:
    // values matter because of bit switching).
    let _ = writeln!(
        out,
        "\n[4] register/memory init (same A15 virus, measured):"
    );
    let summary = evolve(
        "cortex-a15",
        "power",
        "default",
        Budget {
            population: 30,
            individual: 30,
            generations: 30,
        },
        15,
    )?;
    let machine = MachineConfig::cortex_a15();
    let checkerboard = measure(&machine, &summary.best_program)?;
    let mut zero_program = summary.best_program.clone();
    zero_program.init.clear();
    zero_program.mem_init = gest_isa::MemInit::Zero;
    let zeroed = measure(&machine, &zero_program)?;
    let _ = writeln!(
        out,
        "  checkerboard init: {:.4} W",
        checkerboard.avg_power_w
    );
    let _ = writeln!(out, "  all-zero init:     {:.4} W", zeroed.avg_power_w);
    let _ = writeln!(
        out,
        "  switching-activity contribution: {:+.1}%",
        100.0 * (checkerboard.avg_power_w / zeroed.avg_power_w - 1.0)
    );

    // 5. dI/dt loop length vs the PDN-resonance rule of thumb.
    let machine = MachineConfig::athlon_x4();
    let pdn = machine.pdn.expect("athlon has a PDN");
    let rule = GaConfig::didt_loop_length(machine.clock_hz, pdn.resonance_hz(), machine.max_ipc());
    let _ = writeln!(
        out,
        "\n[5] dI/dt loop length (rule of thumb = {rule} for {:.0} MHz resonance):",
        pdn.resonance_hz() / 1e6
    );
    for length in [8usize, rule / 2, rule, rule * 2] {
        let summary = evolve(
            "athlon-x4",
            "voltage_noise",
            "default",
            Budget {
                population: 24,
                individual: length,
                generations: 24,
            },
            8,
        )?;
        let _ = writeln!(
            out,
            "  loop {length:>3}: best {:.2} mV peak-to-peak",
            summary.best.fitness * 1e3
        );
    }
    Ok(out)
}

/// Multi-core scaling (paper §IV discussion): L1-resident viruses scale
/// linearly across cores; shared-memory streaming workloads contend on
/// the L2/bus and add NoC power (the MAMPO effect the paper cites).
pub fn multicore() -> Result<String, GestError> {
    use gest_sim::{MemSharing, MultiCoreSimulator, UncoreConfig};
    let machine = MachineConfig::xgene2();
    let mut out = String::from("Multi-core scaling on the X-Gene2 model (8 cores)\n");

    // The evolved power virus (L1-resident, like the paper's viruses).
    let summary = evolve(
        "xgene2",
        "power",
        "default",
        Budget {
            population: 30,
            individual: 30,
            generations: 30,
        },
        2,
    )?;
    let virus = summary.best_program;
    let streaming = gest_workloads::streamcluster().program;

    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>11} {:>12} {:>10} {:>9}",
        "workload", "cores", "efficiency", "chip (W)", "NoC+L2 (W)", "L2 acc"
    );
    for (label, program, buffer) in [
        ("GA power virus (private)", &virus, machine.mem_bytes),
        ("streamcluster (shared)", &streaming, 1usize << 20),
    ] {
        for cores in [1u8, 2, 4, 8] {
            let simulator = MultiCoreSimulator::new(machine.clone(), UncoreConfig::server())
                .with_buffer_bytes(buffer)
                .with_sharing(if buffer > machine.mem_bytes {
                    MemSharing::Shared
                } else {
                    MemSharing::Private
                });
            let result = simulator.run_replicated(program, cores, 200)?;
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>11.3} {:>12.2} {:>10.2} {:>9}",
                label,
                cores,
                result.scaling_efficiency,
                result.chip_power_w,
                result.uncore_traffic_w,
                result.l2.hits + result.l2.misses
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(paper: 'the generated viruses scale well with multi-core execution because \
         running multiple virus instances is not causing performance interference')"
    );
    Ok(out)
}

/// LLC/DRAM stress search (paper §VII: "with GeST is possible to stress
/// LLC or DRAM by instructing the framework to optimize towards
/// cache-misses").
pub fn llc_stress() -> Result<String, GestError> {
    let mut machine = MachineConfig::xgene2();
    machine.mem_bytes = 1 << 20; // 1 MiB buffer: far larger than the 32 KiB L1
    let budget = Budget::paper();
    let config = gest_core::GestConfig::builder("xgene2")
        .measurement("cache_miss")
        .pool(gest_core::llc_pool())
        .population_size(budget.population)
        .individual_size(30)
        .generations(budget.generations.min(40))
        .seed(12)
        .build()?;
    // The widened machine is no preset, so the search measures through
    // an explicit instance rather than the registry's by-name lookup.
    let search_measurement =
        gest_core::CacheMissMeasurement::new(machine.clone(), config.run_config);
    let summary = run_with_measurement(config, std::sync::Arc::new(search_measurement))?;

    let mut out = String::from("LLC/DRAM stress search (cache-miss maximization)\n");
    let _ = writeln!(
        out,
        "evolved stressor: {:.1} L1 misses per kilo-instruction ({:.1}% miss rate)",
        summary.best.measurements[0],
        summary.best.measurements[1] * 100.0
    );
    let m = gest_core::CacheMissMeasurement::new(machine, compare_run_config());
    use gest_core::Measurement as _;
    let _ = writeln!(out, "\ncomparison (same 1 MiB buffer machine):");
    for workload in [gest_workloads::prime95(), gest_workloads::streamcluster()] {
        let values = m.measure(&workload.program)?;
        let _ = writeln!(
            out,
            "  {:<16} {:>8.1} misses/kinstr ({:>5.1}% miss rate)",
            workload.name,
            values[0],
            values[1] * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>8.1} misses/kinstr ({:>5.1}% miss rate)",
        "GA LLC stressor",
        summary.best.measurements[0],
        summary.best.measurements[1] * 100.0
    );
    Ok(out)
}

/// Measurement-noise ablation (paper §IV: single-core optimization is
/// preferred because "less measurement variability ... helps the GA
/// optimization to converge faster").
pub fn noise() -> Result<String, GestError> {
    use gest_core::{GestConfig, NoisyMeasurement, Registry};
    let mut out = String::from("Measurement-noise ablation (cortex-a15 power search)\n");
    let registry = Registry::default();
    let clean_measure =
        registry.build_measurement("power", MachineConfig::cortex_a15(), compare_run_config())?;
    for sigma in [0.0, 0.02, 0.10] {
        // Same seeds; only the measurement noise differs. The run uses a
        // noisy instrument, but the resulting best individual is re-scored
        // with a clean instrument to reveal the true quality.
        let config = GestConfig::builder("cortex-a15")
            .measurement("power")
            .population_size(30)
            .individual_size(30)
            .generations(30)
            .seed(44)
            .build()?;
        let noisy = NoisyMeasurement::wrap(
            registry.build_measurement("power", MachineConfig::cortex_a15(), config.run_config)?,
            sigma,
            44,
        );
        let summary = run_with_measurement(config, std::sync::Arc::new(noisy))?;
        let true_power = clean_measure.measure(&summary.best_program)?[0];
        let _ = writeln!(
            out,
            "  sigma {:>4.0}%: apparent best {:.4} W, true best {:.4} W",
            sigma * 100.0,
            summary.best.fitness,
            true_power
        );
    }
    let _ = writeln!(
        out,
        "\n(noise inflates apparent fitness and degrades the true quality of the \
         selected individual — the paper's motivation for low-variability, \
         single-core measurement)"
    );
    Ok(out)
}

/// Adaptive-clocking mitigation study (paper intro, use-case (e): "testing
/// the efficacy of energy-efficiency techniques such as voltage-noise
/// mitigation mechanisms"). At a supply where transient droops violate
/// timing, the dI/dt virus fires the mechanism hardest — it is the right
/// workload for characterizing mitigation cost.
pub fn mitigation() -> Result<String, GestError> {
    use gest_sim::{simulate_adaptive_clock, AdaptiveClockConfig};
    let virus = didt_virus()?;
    let mut machine = MachineConfig::athlon_x4();
    let pdn = machine.pdn.as_mut().expect("athlon has a PDN");
    // Undervolted operating point: DC level safe, droops violate.
    pdn.vdd *= 0.87;
    let clock = AdaptiveClockConfig {
        threshold_v: 1.19,
        stretch: 4,
    };
    let run_config = compare_run_config();

    let mut out = String::from(
        "Adaptive-clocking mitigation efficacy at an undervolted operating point
",
    );
    let _ = writeln!(
        out,
        "(vdd {:.3} V, v_crit {:.2} V, stretch threshold {:.2} V, stretch 4x)
",
        machine.pdn.expect("athlon has a PDN").vdd,
        machine.pdn.expect("athlon has a PDN").v_crit,
        clock.threshold_v
    );
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>12} {:>10} {:>10}",
        "workload", "viol. (off)", "viol. (on)", "stretches", "slowdown"
    );
    let mut rows: Vec<(String, gest_isa::Program)> = vec![
        ("prime95".into(), gest_workloads::prime95().program),
        ("linpack".into(), gest_workloads::linpack().program),
        ("GA_dIdt_virus".into(), virus.best_program),
    ];
    for (label, program) in rows.drain(..) {
        let result = simulate_adaptive_clock(&machine, &program, &run_config, &clock)?;
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>12} {:>10} {:>10.3}",
            label,
            result.violations_unmitigated,
            result.violations_mitigated,
            result.stretched_cycles,
            result.slowdown
        );
    }
    let _ = writeln!(
        out,
        "\n(the dI/dt virus exposes the mechanism's worst-case cost; steady power workloads barely trigger it)"
    );
    Ok(out)
}

/// Runs a search with an explicit measurement instance (used by the noise
/// ablation and the LLC stress search).
fn run_with_measurement(
    config: gest_core::GestConfig,
    measurement: std::sync::Arc<dyn gest_core::Measurement>,
) -> Result<gest_core::RunSummary, GestError> {
    gest_core::GestRun::builder()
        .config(config)
        .measurement(measurement)
        .build()?
        .run()
}

/// Uniform `Result`-returning wrappers so every experiment binary has the
/// same shape (and `all_experiments` can iterate them).
macro_rules! wrap {
    ($(($runner:ident, $inner:ident, $fallible:tt)),+ $(,)?) => {
        $(wrap!(@one $runner, $inner, $fallible);)+

        /// Every experiment as `(id, runner)` pairs, in paper order.
        pub fn all() -> Vec<(&'static str, fn() -> Result<String, GestError>)> {
            vec![$((stringify!($inner), $runner as fn() -> Result<String, GestError>)),+]
        }
    };
    (@one $runner:ident, $inner:ident, true) => {
        #[doc = concat!("Runs the `", stringify!($inner), "` experiment.")]
        ///
        /// # Errors
        ///
        /// Propagates framework/simulator errors.
        pub fn $runner() -> Result<String, GestError> {
            $inner()
        }
    };
    (@one $runner:ident, $inner:ident, false) => {
        #[doc = concat!("Runs the `", stringify!($inner), "` experiment.")]
        ///
        /// # Errors
        ///
        /// Infallible; `Result` for uniformity.
        pub fn $runner() -> Result<String, GestError> {
            Ok($inner())
        }
    };
}

wrap!(
    (run_table1, table1, false),
    (run_fig5, fig5, true),
    (run_fig6, fig6, true),
    (run_table3, table3, true),
    (run_fig7, fig7, true),
    (run_table4, table4, true),
    (run_fig8, fig8, true),
    (run_fig9, fig9, true),
    (run_table5, table5, false),
    (run_convergence, convergence, true),
    (run_ablations, ablations, true),
    (run_multicore, multicore, true),
    (run_llc_stress, llc_stress, true),
    (run_noise, noise, true),
    (run_mitigation, mitigation, true),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("population_size"));
        assert!(t1.contains("50"));
        let t5 = table5();
        assert!(t5.contains("GeST"));
        assert!(t5.contains("MAMPO"));
    }
}
