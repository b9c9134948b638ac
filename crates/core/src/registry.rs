//! Typed plug-in registry: configuration names to plug-in constructors.
//!
//! The paper loads measurement and fitness classes dynamically by name
//! from the configuration file. This module keeps the by-name indirection
//! (configuration files still say `measurement="power"`) but makes the
//! name → constructor mapping a first-class, extensible value instead of
//! a hard-coded `match`: callers register their own plug-ins next to the
//! shipped ones and hand the registry to [`crate::GestRun::builder`].
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), gest_core::GestError> {
//! use gest_core::{PowerMeasurement, Registry};
//! use gest_sim::{MachineConfig, RunConfig};
//! use std::sync::Arc;
//!
//! // Shipped names resolve out of the box…
//! let registry = Registry::default();
//! let power = registry.build_measurement(
//!     "power",
//!     MachineConfig::cortex_a15(),
//!     RunConfig::quick(),
//! )?;
//! assert_eq!(power.name(), "power");
//!
//! // …and custom plug-ins register under any name.
//! let registry = Registry::default().measurement("lab_probe", |machine, run| {
//!     Ok(Arc::new(PowerMeasurement::new(machine, run)))
//! });
//! assert!(registry.has_measurement("lab_probe"));
//! # Ok(())
//! # }
//! ```

use crate::error::GestError;
use crate::fitness::{DefaultFitness, Fitness, IpcPowerFitness, TempSimplicityFitness};
use crate::measurement::{
    CacheMissMeasurement, IpcMeasurement, Measurement, PowerMeasurement, TemperatureMeasurement,
    VoltageNoiseMeasurement,
};
use gest_sim::{MachineConfig, RunConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Thermal parameters a fitness constructor may need (the paper's
/// Equation 1 uses the machine's idle and maximum temperatures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessParams {
    /// Idle temperature `I_T` (°C).
    pub idle_c: f64,
    /// Maximum temperature `MAX_T` (°C).
    pub max_c: f64,
}

type MeasurementCtor =
    Arc<dyn Fn(MachineConfig, RunConfig) -> Result<Arc<dyn Measurement>, GestError> + Send + Sync>;
type FitnessCtor = Arc<dyn Fn(FitnessParams) -> Result<Arc<dyn Fitness>, GestError> + Send + Sync>;

/// Maps configuration names to measurement and fitness constructors.
///
/// [`Registry::default`] ships the paper's plug-ins; [`Registry::empty`]
/// starts blank (e.g. to forbid everything but an approved set).
/// Registration methods consume and return `self`, so registries are
/// built as chains.
#[derive(Clone)]
pub struct Registry {
    measurements: BTreeMap<String, MeasurementCtor>,
    fitnesses: BTreeMap<String, FitnessCtor>,
}

impl Default for Registry {
    /// The shipped plug-ins: measurements `power`, `temperature`, `ipc`,
    /// `voltage_noise`, `cache_miss`; fitnesses `default`,
    /// `temp_simplicity`, `primary_minus_secondary`.
    fn default() -> Registry {
        Registry::empty()
            .measurement("power", |machine, run| {
                Ok(Arc::new(PowerMeasurement::new(machine, run)))
            })
            .measurement("temperature", |machine, run| {
                Ok(Arc::new(TemperatureMeasurement::new(machine, run)))
            })
            .measurement("ipc", |machine, run| {
                Ok(Arc::new(IpcMeasurement::new(machine, run)))
            })
            .measurement("voltage_noise", |machine, run| {
                Ok(Arc::new(VoltageNoiseMeasurement::new(machine, run)?))
            })
            .measurement("cache_miss", |machine, run| {
                Ok(Arc::new(CacheMissMeasurement::new(machine, run)))
            })
            .fitness("default", |_| Ok(Arc::new(DefaultFitness)))
            .fitness("temp_simplicity", |params| {
                Ok(Arc::new(TempSimplicityFitness::new(
                    params.idle_c,
                    params.max_c,
                )))
            })
            .fitness("primary_minus_secondary", |_| {
                Ok(Arc::new(IpcPowerFitness::default()))
            })
    }
}

impl Registry {
    /// A registry with nothing registered.
    pub fn empty() -> Registry {
        Registry {
            measurements: BTreeMap::new(),
            fitnesses: BTreeMap::new(),
        }
    }

    /// Registers (or overrides) a measurement constructor under `name`.
    pub fn measurement(
        mut self,
        name: &str,
        ctor: impl Fn(MachineConfig, RunConfig) -> Result<Arc<dyn Measurement>, GestError>
            + Send
            + Sync
            + 'static,
    ) -> Registry {
        self.measurements.insert(name.to_owned(), Arc::new(ctor));
        self
    }

    /// Registers (or overrides) a fitness constructor under `name`.
    pub fn fitness(
        mut self,
        name: &str,
        ctor: impl Fn(FitnessParams) -> Result<Arc<dyn Fitness>, GestError> + Send + Sync + 'static,
    ) -> Registry {
        self.fitnesses.insert(name.to_owned(), Arc::new(ctor));
        self
    }

    /// Whether a measurement is registered under `name`.
    pub fn has_measurement(&self, name: &str) -> bool {
        self.measurements.contains_key(name)
    }

    /// Whether a fitness is registered under `name`.
    pub fn has_fitness(&self, name: &str) -> bool {
        self.fitnesses.contains_key(name)
    }

    /// Registered measurement names, sorted.
    pub fn measurement_names(&self) -> Vec<&str> {
        self.measurements.keys().map(String::as_str).collect()
    }

    /// Registered fitness names, sorted.
    pub fn fitness_names(&self) -> Vec<&str> {
        self.fitnesses.keys().map(String::as_str).collect()
    }

    /// Instantiates the measurement registered under `name`.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] for unknown names (the message lists what is
    /// registered); whatever the constructor returns for invalid
    /// machine/measurement combinations.
    pub fn build_measurement(
        &self,
        name: &str,
        machine: MachineConfig,
        run_config: RunConfig,
    ) -> Result<Arc<dyn Measurement>, GestError> {
        let ctor = self.measurements.get(name).ok_or_else(|| {
            GestError::Config(format!(
                "unknown measurement {name:?} (registered: {})",
                self.measurement_names().join(", ")
            ))
        })?;
        ctor(machine, run_config)
    }

    /// Instantiates the fitness registered under `name`.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] for unknown names; whatever the constructor
    /// returns.
    pub fn build_fitness(
        &self,
        name: &str,
        params: FitnessParams,
    ) -> Result<Arc<dyn Fitness>, GestError> {
        let ctor = self.fitnesses.get(name).ok_or_else(|| {
            GestError::Config(format!(
                "unknown fitness {name:?} (registered: {})",
                self.fitness_names().join(", ")
            ))
        })?;
        ctor(params)
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("measurements", &self.measurement_names())
            .field("fitnesses", &self.fitness_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_resolves_shipped_names() {
        let registry = Registry::default();
        for name in ["power", "temperature", "ipc", "cache_miss"] {
            let m = registry
                .build_measurement(name, MachineConfig::xgene2(), RunConfig::quick())
                .unwrap();
            assert_eq!(m.name(), name);
        }
        let noise = registry
            .build_measurement(
                "voltage_noise",
                MachineConfig::athlon_x4(),
                RunConfig::quick(),
            )
            .unwrap();
        assert_eq!(noise.name(), "voltage_noise");
        let params = FitnessParams {
            idle_c: 30.0,
            max_c: 105.0,
        };
        for name in ["default", "temp_simplicity", "primary_minus_secondary"] {
            assert_eq!(registry.build_fitness(name, params).unwrap().name(), name);
        }
    }

    #[test]
    fn unknown_names_list_registered_options() {
        let registry = Registry::default();
        let err = registry
            .build_measurement(
                "oscilloscope",
                MachineConfig::athlon_x4(),
                RunConfig::quick(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("voltage_noise"), "{err}");
        let err = registry
            .build_fitness(
                "nope",
                FitnessParams {
                    idle_c: 0.0,
                    max_c: 1.0,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("temp_simplicity"), "{err}");
    }

    #[test]
    fn custom_registrations_extend_and_override() {
        let registry = Registry::default()
            .measurement("probe", |machine, run| {
                Ok(Arc::new(PowerMeasurement::new(machine, run)))
            })
            // Overriding a shipped name wins.
            .measurement("ipc", |machine, run| {
                Ok(Arc::new(PowerMeasurement::new(machine, run)))
            });
        assert!(registry.has_measurement("probe"));
        let overridden = registry
            .build_measurement("ipc", MachineConfig::cortex_a7(), RunConfig::quick())
            .unwrap();
        assert_eq!(overridden.name(), "power", "override replaced the ctor");
        assert!(Registry::empty().measurement_names().is_empty());
        let debug = format!("{registry:?}");
        assert!(debug.contains("probe"), "{debug}");
    }
}
