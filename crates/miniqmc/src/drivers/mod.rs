//! Execution drivers: per-category profiling and the VMC
//! particle-by-particle loop.

pub mod dmc;
pub mod observables;
pub mod profile;
pub mod vmc;

pub use dmc::{DmcConfig, DmcPopulation, DmcSnapshot, DmcStepStats, DmcWalker};
pub use observables::kinetic_energy;
pub use profile::{Category, ProfileReport, Timers};
pub use vmc::{run_vmc, VmcConfig, VmcResult};
