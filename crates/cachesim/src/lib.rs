//! `cachesim` — trace-driven cache-hierarchy simulation of the paper's
//! four evaluation platforms.
//!
//! The paper measures on BDW, KNC, KNL and BG/Q hardware (Table I). None
//! of those machines is at hand, so this crate substitutes for them: it
//! replays the exact memory-access streams of the B-spline kernels
//! through set-associative LRU models of each platform's cache hierarchy
//! and predicts node throughput with a cache-aware roofline. The capacity
//! crossovers the paper reports — optimal tile size 64 on shared-LLC
//! machines vs 512 on private-L2 Xeon Phi, output arrays spilling at
//! large N — are emergent properties of the replay, not inputs.
//!
//! # Quick example
//!
//! ```
//! use cachesim::{simulate, predict, Platform, TraceConfig};
//! use bspline::Layout;
//!
//! let knl = Platform::knl();
//! let mut cfg = TraceConfig::vgh(Layout::AoSoA, 512, 64);
//! cfg.grid = (16, 16, 16);       // small grid keeps the doctest fast
//! cfg.n_positions = 8;
//! cfg.warmup = 4;
//! let stats = simulate(&cfg, &knl);
//! let flops = (16 * 44 * 512) as f64; // SoA-canonical VGH work
//! let pred = predict(&knl, Layout::AoSoA, &stats, flops, 512, 8, 1.0);
//! assert!(pred.throughput > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// The 4-point tensor-product kernels use fixed-trip indexed loops on
// purpose (mirrors the paper's loop structure and vectorizes cleanly).
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod hierarchy;
pub mod model;
pub mod platform;
pub mod trace;

pub use cache::{Cache, CacheConfig, Outcome};
pub use hierarchy::{Hierarchy, LevelSpec, LevelStats, Scope};
pub use model::{predict, Bound, Prediction, TILE_OVERHEAD_FLOPS};
pub use platform::Platform;
pub use trace::{simulate, SimStats, TraceConfig};
