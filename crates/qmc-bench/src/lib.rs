//! `qmc-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p qmc-bench --bin fig7c`). Host measurements
//! come from the real engines; the four paper platforms (Table I) are
//! reproduced through the `cachesim` models.
//!
//! | experiment | binary |
//! |---|---|
//! | Table I platform configs | `table1` |
//! | Table II baseline profile | `table2` |
//! | Table III optimized profile | `table3` |
//! | Fig 7a AoS→SoA throughput | `fig7a` |
//! | Fig 7b SoA→AoSoA throughput | `fig7b` |
//! | Fig 7c tile-size sweep | `fig7c` |
//! | Fig 8 normalized kernel speedups | `fig8` |
//! | Fig 9 nested-threading scaling | `fig9` |
//! | Table IV step speedups | `table4` |
//! | Fig 10 roofline | `fig10` |
//!
//! # What gates, what prints
//!
//! The layer ledger under `bench/` (declared in `BENCHMARK.json`) is the
//! only gate: a performance claim is one of its metric names, and a
//! regression is judged there; the service's latency and overhead are
//! on record in its `service_mixed` workload. The binaries above
//! reproduce a paper table or figure on the host and *print* it; none of
//! them records a baseline, compares against one, or fails on a timing.
//! The one example, `service_chaos`, is a correctness smoke: it exits
//! non-zero only on a lost ticket or a bit mismatch.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod measure;
pub mod modelled;
pub mod profile_suite;
pub mod report;
pub mod workload;

pub use measure::{measure_kernel, measure_kernel_batched, MeasureConfig};
pub use modelled::{model_prediction, sim_threads, ModelScenario};
pub use profile_suite::{run_profile, ProfileConfig, Suite};
pub use report::Table;
pub use workload::{coefficients, coefficients_in, is_quick, pos_block_in, positions_in, N_SWEEP};
