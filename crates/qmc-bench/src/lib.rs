//! `qmc-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p qmc-bench --bin fig7c`), plus Criterion
//! benches (`cargo bench`) exercising the same machinery at reduced
//! scale. Host measurements come from the real engines; the four paper
//! platforms (Table I) are reproduced through the `cachesim` models.
//!
//! | experiment | binary | bench |
//! |---|---|---|
//! | Table I platform configs | `table1` | `table1_platforms` |
//! | Table II baseline profile | `table2` | `table2_profile` |
//! | Table III optimized profile | `table3` | `table3_profile` |
//! | Fig 7a AoS→SoA throughput | `fig7a` | `fig7a` |
//! | Fig 7b SoA→AoSoA throughput | `fig7b` | `fig7b` |
//! | Fig 7c tile-size sweep | `fig7c` | `fig7c` |
//! | Fig 8 normalized kernel speedups | `fig8` | `fig8` |
//! | Fig 9 nested-threading scaling | `fig9` | `fig9` |
//! | Table IV step speedups | `table4` | `table4_steps` |
//! | Fig 10 roofline | `fig10` | `fig10` |
//!
//! # What gates, what prints
//!
//! The layer ledger under `bench/` (declared in `BENCHMARK.json`) is the
//! only gate: a performance claim is one of its metric names, and a
//! regression is judged there. Everything in this crate — the binaries
//! above, the Criterion benches and the `examples/` load drivers —
//! reproduces a paper table or figure on the host and *prints* it; none
//! of them records a baseline, compares against one, or fails on a
//! timing (`service_chaos` exits non-zero only on a lost ticket or a
//! bit mismatch, which is a correctness check).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod measure;
pub mod modelled;
pub mod profile_suite;
pub mod report;
pub mod workload;

pub use measure::{
    measure_kernel, measure_kernel_batched, measure_routed_ablation, measure_service,
    MeasureConfig, RoutedAblation, ServiceLoad, ServiceLoadConfig,
};
pub use modelled::{model_prediction, sim_threads, ModelScenario};
pub use profile_suite::{run_profile, ProfileConfig, Suite};
pub use report::Table;
pub use workload::{
    coefficients, coefficients_in, is_quick, pos_block, pos_block_in, positions,
    positions_in, N_SWEEP,
};
