//! Run configuration, results, and errors.

use crate::cache::CacheStats;
use crate::pdn::VoltageStats;
use std::error::Error;
use std::fmt;

/// Parameters of one simulated measurement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Stop after this many loop-body iterations (whichever of the limits
    /// hits first).
    pub max_iterations: u64,
    /// Stop once the pipeline clock passes this many cycles.
    pub max_cycles: u64,
    /// How long the workload is "held" for the thermal sensor reading, in
    /// seconds. The power trace of a few thousand cycles is far shorter
    /// than thermal time constants, so — like the paper's measurement
    /// scripts, which run each binary for a few seconds — the measured
    /// average power is applied to the RC model for this duration.
    pub thermal_hold_s: f64,
    /// Window (cycles) for the smoothed peak-power statistic.
    pub peak_window: usize,
    /// Detect steady-state loop iterations and synthesize the remainder
    /// analytically instead of re-executing them. The fast path is
    /// bit-identical to full simulation (asserted by the sim property
    /// tests); disable it only to measure its speedup or to debug the
    /// detector itself.
    pub steady_detect: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_iterations: 400,
            max_cycles: 20_000,
            thermal_hold_s: 30.0,
            peak_window: 8,
            steady_detect: true,
        }
    }
}

impl RunConfig {
    /// A faster configuration for GA inner loops (fewer iterations).
    pub fn quick() -> RunConfig {
        RunConfig {
            max_iterations: 120,
            max_cycles: 6_000,
            ..RunConfig::default()
        }
    }
}

/// Everything a simulated run measures. This is the substrate equivalent of
/// the paper's measurement instruments: energy probe (power), i2c sensor
/// (temperature), perf (IPC), oscilloscope (voltage).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Program name.
    pub name: String,
    /// Elapsed clock cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Retired instructions per cycle.
    pub ipc: f64,
    /// Total energy in joules (dynamic + static).
    pub energy_j: f64,
    /// Average per-core power in watts.
    pub avg_power_w: f64,
    /// Whole-chip power: `cores × avg_power_w + uncore_w` (the paper runs
    /// one virus instance per core; the viruses share nothing and scale
    /// linearly).
    pub chip_power_w: f64,
    /// Peak power in watts (smoothed over [`RunConfig::peak_window`]).
    pub peak_power_w: f64,
    /// Junction temperature (°C) after the thermal hold.
    pub temperature_c: f64,
    /// Steady-state temperature (°C) implied by the average power.
    pub steady_temp_c: f64,
    /// L1 data-cache statistics.
    pub l1: CacheStats,
    /// Branch-predictor accuracy over the run.
    pub branch_accuracy: f64,
    /// Die-voltage statistics when the machine models a PDN.
    pub voltage: Option<VoltageStats>,
    /// Dynamic instruction counts by class, in
    /// [`gest_isa::InstrClass::ALL`] order.
    pub class_counts: [u64; 6],
}

impl RunResult {
    /// Peak-to-peak voltage noise, if the machine models a PDN — the
    /// dI/dt fitness metric.
    pub fn voltage_peak_to_peak(&self) -> Option<f64> {
        self.voltage.map(|v| v.peak_to_peak())
    }

    /// Every scalar in the result, in [`METRIC_NAMES`] order, as one
    /// fixed-size value — the export surface for metric sinks. The
    /// simulator stays telemetry-free; observers turn these into whatever
    /// metric shape they need.
    ///
    /// The PDN stats (`voltage_*`) are present only when the machine
    /// models one: 13 values without a PDN, 16 with it.
    pub fn metrics(&self) -> RunMetrics {
        let mut metrics = RunMetrics::from_values(&[
            self.cycles as f64,
            self.instructions as f64,
            self.ipc,
            self.energy_j,
            self.avg_power_w,
            self.chip_power_w,
            self.peak_power_w,
            self.temperature_c,
            self.steady_temp_c,
            self.l1.hits as f64,
            self.l1.misses as f64,
            self.l1.hit_rate(),
            self.branch_accuracy,
        ]);
        if let Some(voltage) = self.voltage {
            metrics.values[13] = voltage.peak_to_peak();
            metrics.values[14] = voltage.max_droop();
            metrics.values[15] = voltage.min_v;
            metrics.len = 16;
        }
        metrics
    }

    /// [`metrics`](RunResult::metrics) as `(name, value)` pairs.
    pub fn metric_kv(&self) -> Vec<(&'static str, f64)> {
        self.metrics().iter().collect()
    }
}

/// Names of the stats [`RunResult::metrics`] exports, in order.
pub const METRIC_NAMES: [&str; RunMetrics::CAPACITY] = [
    "cycles",
    "instructions",
    "ipc",
    "energy_j",
    "avg_power_w",
    "chip_power_w",
    "peak_power_w",
    "temperature_c",
    "steady_temp_c",
    "l1_hits",
    "l1_misses",
    "l1_hit_rate",
    "branch_accuracy",
    "voltage_p2p_v",
    "voltage_droop_v",
    "voltage_min_v",
];

/// A run's exported stats: the first [`len`](RunMetrics::len) of
/// [`METRIC_NAMES`] with their values, held inline so that keeping one
/// (the eval cache keeps one per entry) costs no heap block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    values: [f64; RunMetrics::CAPACITY],
    len: u8,
}

impl RunMetrics {
    /// The most stats a run exports (every [`METRIC_NAMES`] entry).
    pub const CAPACITY: usize = 16;

    /// The stats named by the first `values.len()` of [`METRIC_NAMES`].
    ///
    /// # Panics
    ///
    /// If `values` holds more than [`RunMetrics::CAPACITY`] values.
    pub fn from_values(values: &[f64]) -> RunMetrics {
        let mut metrics = RunMetrics {
            values: [0.0; RunMetrics::CAPACITY],
            len: values.len() as u8,
        };
        metrics.values[..values.len()].copy_from_slice(values);
        metrics
    }

    /// The values, in [`METRIC_NAMES`] order.
    pub fn values(&self) -> &[f64] {
        &self.values[..usize::from(self.len)]
    }

    /// How many stats are present.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no stat is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(name, value)` pairs, in [`METRIC_NAMES`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        METRIC_NAMES.into_iter().zip(self.values().iter().copied())
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} IPC, {:.3} W avg, {:.3} W peak, {:.1} °C",
            self.name, self.ipc, self.avg_power_w, self.peak_power_w, self.temperature_c
        )?;
        if let Some(v) = self.voltage {
            write!(f, ", {:.1} mV p2p", v.peak_to_peak() * 1e3)?;
        }
        Ok(())
    }
}

/// Errors from running a program on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program's loop body is empty: nothing to measure.
    EmptyProgram,
    /// The program's scratch-memory expectations exceed the machine's
    /// buffer (must be a power of two within L1).
    BadMemSize {
        /// Configured buffer size.
        bytes: usize,
    },
    /// The requested analysis needs a PDN model but the machine has none
    /// (no voltage sense points, like the paper's Versatile Express
    /// boards).
    NoPdn {
        /// Name of the machine lacking the PDN.
        machine: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyProgram => write!(f, "program has an empty loop body"),
            SimError::BadMemSize { bytes } => {
                write!(f, "machine scratch-memory size {bytes} is invalid")
            }
            SimError::NoPdn { machine } => {
                write!(
                    f,
                    "machine {machine:?} has no PDN model (no voltage sense points)"
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = RunConfig::default();
        assert!(config.max_iterations > 0);
        assert!(config.max_cycles > 1000);
        assert!(config.peak_window >= 1);
        let quick = RunConfig::quick();
        assert!(quick.max_cycles < config.max_cycles);
    }

    #[test]
    fn display_includes_voltage_when_present() {
        let result = RunResult {
            name: "x".into(),
            cycles: 100,
            instructions: 200,
            ipc: 2.0,
            energy_j: 1e-6,
            avg_power_w: 1.0,
            chip_power_w: 4.0,
            peak_power_w: 2.0,
            temperature_c: 50.0,
            steady_temp_c: 51.0,
            l1: CacheStats::default(),
            branch_accuracy: 1.0,
            voltage: Some(VoltageStats {
                nominal_v: 1.4,
                min_v: 1.3,
                max_v: 1.45,
            }),
            class_counts: [0; 6],
        };
        let text = result.to_string();
        assert!(text.contains("mV p2p"), "{text}");
        assert!((result.voltage_peak_to_peak().unwrap() - 0.15).abs() < 1e-9);

        let kv = result.metric_kv();
        let lookup = |name: &str| kv.iter().find(|(k, _)| *k == name).map(|(_, v)| *v);
        assert_eq!(lookup("ipc"), Some(2.0));
        assert_eq!(lookup("cycles"), Some(100.0));
        assert!((lookup("voltage_p2p_v").unwrap() - 0.15).abs() < 1e-9);

        let mut no_pdn = result.clone();
        no_pdn.voltage = None;
        assert!(no_pdn
            .metric_kv()
            .iter()
            .all(|(k, _)| !k.starts_with("voltage_")));
    }

    #[test]
    fn sim_error_display_and_source() {
        let err = SimError::BadMemSize { bytes: 3 };
        assert!(err.to_string().contains("size 3"));
        assert!(err.source().is_none());
        assert!(SimError::EmptyProgram.source().is_none());
    }
}
