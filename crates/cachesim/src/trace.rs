//! Kernel access-pattern replay.
//!
//! Generates the exact byte-address stream the V/VGL/VGH kernels issue —
//! coefficient line reads and output-stream accumulations, in kernel
//! order — and drives it through a platform's cache hierarchy. This is
//! the substitute for running on the paper's four machines: every
//! capacity effect the paper reasons about (outputs falling out of
//! L1/L2, a coefficient tile fitting a shared LLC, hyperthreads
//! competing for one cache) emerges from LRU simulation of the same
//! addresses.
//!
//! Fidelity choices:
//!
//! * loop order matches the implementations — AoS touches all its output
//!   streams per coefficient *point* (64× per eval), SoA per (i,j)
//!   *plane* (16× per eval), AoSoA runs tile-major (paper Fig. 6);
//! * concurrently running walkers are interleaved at plane granularity,
//!   approximating simultaneous execution on shared caches;
//! * before measuring, each tile's region is pre-touched and a warm-up
//!   batch of positions runs, so the statistics describe the steady
//!   state (a random-access region held at LRU equilibrium).

use crate::hierarchy::{Hierarchy, LevelStats};
use crate::platform::Platform;
use bspline::parallel::partition_tiles;
use bspline::{Kernel, Layout};
use einspline::TableLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scenario to replay.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Kernel.
    pub kernel: Kernel,
    /// Layout.
    pub layout: Layout,
    /// Total splines N.
    pub n_splines: usize,
    /// Tile size Nb (ignored unless layout is AoSoA).
    pub nb: usize,
    /// Grid dimensions (nx, ny, nz).
    pub grid: (usize, usize, usize),
    /// Measured positions per walker (after warm-up).
    pub n_positions: usize,
    /// Warm-up positions per tile (cache state settles; not measured).
    pub warmup: usize,
    /// Concurrently simulated hardware threads.
    pub n_threads: usize,
    /// Threads cooperating on one walker (Opt C); 1 = walker
    /// parallelism.
    pub threads_per_walker: usize,
    /// Seed.
    pub seed: u64,
}

impl TraceConfig {
    /// A single-walker VGH scenario with paper-like defaults.
    pub fn vgh(layout: Layout, n_splines: usize, nb: usize) -> Self {
        Self {
            kernel: Kernel::Vgh,
            layout,
            n_splines,
            nb,
            grid: (48, 48, 48),
            n_positions: 32,
            warmup: 8,
            n_threads: 1,
            threads_per_walker: 1,
            seed: 0xbead,
        }
    }
}

/// Simulation result (measured phase only).
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written back to DRAM.
    pub dram_write_bytes: u64,
    /// Walker-position evaluations measured (each covers all N splines).
    pub evals: u64,
    /// Demand accesses issued.
    pub accesses: u64,
    /// Per-level stats.
    pub levels: Vec<(&'static str, LevelStats)>,
}

impl SimStats {
    /// DRAM traffic per evaluation (read + write), bytes.
    pub fn bytes_per_eval(&self) -> f64 {
        (self.dram_read_bytes + self.dram_write_bytes) as f64 / self.evals.max(1) as f64
    }

    /// DRAM read traffic per evaluation, bytes.
    pub fn read_bytes_per_eval(&self) -> f64 {
        self.dram_read_bytes as f64 / self.evals.max(1) as f64
    }

    /// DRAM write traffic per evaluation, bytes.
    pub fn write_bytes_per_eval(&self) -> f64 {
        self.dram_write_bytes as f64 / self.evals.max(1) as f64
    }

    fn absorb(&mut self, h: &Hierarchy) {
        self.dram_read_bytes += h.dram_read_bytes();
        self.dram_write_bytes += h.dram_write_bytes();
        self.accesses += h.accesses;
        let stats = h.level_stats();
        if self.levels.is_empty() {
            self.levels = stats;
        } else {
            for (acc, (_, s)) in self.levels.iter_mut().zip(stats) {
                acc.1.hits += s.hits;
                acc.1.misses += s.misses;
                acc.1.writebacks += s.writebacks;
            }
        }
    }
}

/// Virtual memory map of one scenario (f32 precision, 64 B lines).
struct AddressMap {
    tile_base: Vec<u64>,
    /// The layout of one tile: the einspline table layout, row pads
    /// included, so the replay reads the addresses the kernels read (a
    /// ragged last tile is modelled at the full tile width).
    layout: TableLayout,
    /// Coefficient line stride in bytes (padded Nb × 4).
    line_bytes: usize,
    out_base: u64,
    out_stream_bytes: usize,
    out_tile_bytes: usize,
    out_walker_bytes: usize,
    n_tiles: usize,
}

impl AddressMap {
    fn new(cfg: &TraceConfig) -> Self {
        let (nb, n_tiles) = match cfg.layout {
            Layout::AoSoA => (cfg.nb.min(cfg.n_splines), cfg.n_splines.div_ceil(cfg.nb)),
            _ => (cfg.n_splines, 1),
        };
        let layout = TableLayout::new::<f32>(cfg.grid, nb);
        let line_bytes = layout.stride_n() * 4;
        let tile_bytes = layout.bytes() as u64;
        let tile_base: Vec<u64> = (0..n_tiles).map(|t| t as u64 * tile_bytes).collect();
        let coef_total = tile_bytes * n_tiles as u64;

        // 16 stream slots reserved per (walker, tile): enough for the 13
        // AoS VGH components.
        let out_stream_bytes = line_bytes;
        let out_tile_bytes = 16 * out_stream_bytes;
        let out_walker_bytes = n_tiles * out_tile_bytes;
        Self {
            tile_base,
            layout,
            line_bytes,
            out_base: (coef_total + 4096) & !63u64,
            out_stream_bytes,
            out_tile_bytes,
            out_walker_bytes,
            n_tiles,
        }
    }

    #[inline]
    fn coef_line(&self, tile: usize, ix: usize, iy: usize, iz: usize) -> u64 {
        self.tile_base[tile] + (self.layout.offset(ix, iy, iz) * 4) as u64
    }

    #[inline]
    fn out_stream(&self, walker: usize, tile: usize, stream: usize) -> u64 {
        self.out_base
            + (walker * self.out_walker_bytes
                + tile * self.out_tile_bytes
                + stream * self.out_stream_bytes) as u64
    }
}

/// Output streams accumulated per kernel/layout.
fn output_streams(kernel: Kernel, layout: Layout) -> usize {
    match (kernel, layout) {
        (Kernel::V, _) => 1,
        (Kernel::Vgl, Layout::Aos) => 6, // v, g×3, l, per-call tmp
        (Kernel::Vgl, _) => 5,
        (Kernel::Vgh, Layout::Aos) => 13,
        (Kernel::Vgh, _) => 10,
    }
}

/// One plane-group of accesses: the interleaving quantum.
#[allow(clippy::too_many_arguments)]
fn emit_group(
    h: &mut Hierarchy,
    map: &AddressMap,
    cfg: &TraceConfig,
    thread: usize,
    walker: usize,
    tile: usize,
    corner: (usize, usize, usize),
    group: usize,
) {
    let n_streams = output_streams(cfg.kernel, cfg.layout);
    let (i0, j0, k0) = corner;
    let nline = map.line_bytes.div_ceil(64);
    let touch_outputs = |h: &mut Hierarchy| {
        for s in 0..n_streams {
            let sb = map.out_stream(walker, tile, s);
            for l in 0..nline {
                h.access(thread, sb + (l * 64) as u64, true);
            }
        }
    };
    match cfg.layout {
        Layout::Aos => {
            // group = coefficient point index 0..64.
            let (i, rem) = (group / 16, group % 16);
            let (j, k) = (rem / 4, rem % 4);
            let base = map.coef_line(tile, i0 + i, j0 + j, k0 + k);
            for l in 0..nline {
                h.access(thread, base + (l * 64) as u64, false);
            }
            touch_outputs(h);
        }
        Layout::Soa | Layout::AoSoA => {
            // group = (i,j) plane index 0..16; 4 fused z-lines then the
            // output streams.
            let (i, j) = (group / 4, group % 4);
            for k in 0..4 {
                let base = map.coef_line(tile, i0 + i, j0 + j, k0 + k);
                for l in 0..nline {
                    h.access(thread, base + (l * 64) as u64, false);
                }
            }
            touch_outputs(h);
        }
    }
}

fn groups_per_eval(layout: Layout) -> usize {
    match layout {
        Layout::Aos => 64,
        Layout::Soa | Layout::AoSoA => 16,
    }
}

/// Sequentially touch a tile's coefficient region plus the involved
/// walkers' output regions — establishes the LRU steady state for a
/// random-access region far faster than replaying thousands of warm-up
/// evaluations.
fn pretouch(
    h: &mut Hierarchy,
    map: &AddressMap,
    tile: usize,
    users: &[(usize, usize)], // (thread, walker)
) {
    for &(thread, walker) in users {
        for s in 0..16 {
            let sb = map.out_stream(walker, tile, s);
            for l in 0..map.out_stream_bytes.div_ceil(64) {
                h.access(thread, sb + (l * 64) as u64, true);
            }
        }
    }
    // The shared coefficient region, spread across its users round-robin
    // (it is read by everyone).
    let lines = map.layout.bytes() / 64;
    for l in 0..lines {
        let (thread, _) = users[l % users.len()];
        h.access(thread, map.tile_base[tile] + (l * 64) as u64, false);
    }
}

/// Replay the scenario on a platform; returns measured-phase statistics.
pub fn simulate(cfg: &TraceConfig, platform: &Platform) -> SimStats {
    assert!(cfg.n_threads >= 1);
    assert!(
        cfg.threads_per_walker >= 1 && cfg.n_threads.is_multiple_of(cfg.threads_per_walker),
        "thread count must be a multiple of threads_per_walker"
    );
    let map = AddressMap::new(cfg);
    let mut h = platform.hierarchy(cfg.n_threads);
    let n_walkers = cfg.n_threads / cfg.threads_per_walker;
    let (nx, ny, nz) = cfg.grid;
    let total_pos = cfg.warmup + cfg.n_positions;

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let corners: Vec<Vec<(usize, usize, usize)>> = (0..n_walkers)
        .map(|_| {
            (0..total_pos)
                .map(|_| {
                    (
                        rng.random_range(0..nx),
                        rng.random_range(0..ny),
                        rng.random_range(0..nz),
                    )
                })
                .collect()
        })
        .collect();

    let nth = cfg.threads_per_walker;
    let groups = groups_per_eval(cfg.layout);
    let mut stats = SimStats::default();

    if nth == 1 {
        // Walker parallelism, tile-major (Fig. 6): tiles outer, positions
        // inner, walkers interleaved at plane granularity.
        let users: Vec<(usize, usize)> = (0..n_walkers).map(|w| (w, w)).collect();
        for tile in 0..map.n_tiles {
            pretouch(&mut h, &map, tile, &users);
            let run = |h: &mut Hierarchy, lo: usize, hi: usize| {
                for s in lo..hi {
                    for g in 0..groups {
                        for w in 0..n_walkers {
                            emit_group(h, &map, cfg, w, w, tile, corners[w][s], g);
                        }
                    }
                }
            };
            run(&mut h, 0, cfg.warmup);
            h.reset_stats();
            run(&mut h, cfg.warmup, total_pos);
            stats.absorb(&h);
            h.reset_stats();
        }
        stats.evals += (n_walkers * cfg.n_positions * map.n_tiles) as u64;
        // An "eval" spans all tiles: normalize from tile-evals.
        stats.evals /= map.n_tiles as u64;
    } else {
        // Nested threading: each walker's tiles split into nth chunks;
        // chunk c of every walker runs on its own thread. Threads advance
        // through their chunks tile-step by tile-step.
        let ranges = partition_tiles(map.n_tiles, nth);
        let max_chunk = ranges.iter().map(|(a, b)| b - a).max().unwrap_or(0);
        for step in 0..max_chunk {
            // All (walker, chunk) pairs whose chunk still has a tile at
            // this step.
            let mut active: Vec<(usize, usize, usize)> = Vec::new(); // (thread, walker, tile)
            for w in 0..n_walkers {
                for (c, &(lo, hi)) in ranges.iter().enumerate() {
                    let tile = lo + step;
                    if tile < hi {
                        active.push((w * nth + c, w, tile));
                    }
                }
            }
            for &(thread, walker, tile) in &active {
                pretouch(&mut h, &map, tile, &[(thread, walker)]);
            }
            let run = |h: &mut Hierarchy, lo: usize, hi: usize| {
                for s in lo..hi {
                    for g in 0..groups {
                        for &(thread, walker, tile) in &active {
                            emit_group(h, &map, cfg, thread, walker, tile, corners[walker][s], g);
                        }
                    }
                }
            };
            run(&mut h, 0, cfg.warmup);
            h.reset_stats();
            run(&mut h, cfg.warmup, total_pos);
            stats.absorb(&h);
            h.reset_stats();
        }
        // Each position is one eval per walker (its threads cover all
        // tiles once per position across the chunk steps).
        stats.evals = (n_walkers * cfg.n_positions) as u64;
    }

    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg(layout: Layout, n: usize, nb: usize) -> TraceConfig {
        TraceConfig {
            kernel: Kernel::Vgh,
            layout,
            n_splines: n,
            nb,
            grid: (16, 16, 16),
            n_positions: 12,
            warmup: 4,
            n_threads: 1,
            threads_per_walker: 1,
            seed: 7,
        }
    }

    /// The replay's coefficient addresses are the real table's: every
    /// line of every tile sits at the byte offset `MultiCoefs` gives it,
    /// row pads included, and a tile spans the table's bytes.
    #[test]
    fn coef_lines_follow_the_table_layout() {
        use einspline::{Grid1, MultiCoefs};
        for (layout, n, nb, grid) in [
            (Layout::Soa, 256, 256, (6, 6, 6)),
            (Layout::Soa, 100, 100, (17, 9, 11)),
            (Layout::Soa, 64, 64, (6, 6, 8)),
            (Layout::AoSoA, 256, 64, (6, 6, 6)),
            (Layout::AoSoA, 96, 32, (17, 9, 11)),
        ] {
            let mut cfg = base_cfg(layout, n, nb);
            cfg.grid = grid;
            let map = AddressMap::new(&cfg);
            let g = |k| Grid1::periodic(0.0, 1.0, k);
            let table = MultiCoefs::<f32>::new(g(grid.0), g(grid.1), g(grid.2), n);
            let tiles = match layout {
                Layout::AoSoA => table.split_tiles(nb),
                _ => vec![table],
            };
            assert_eq!(map.n_tiles, tiles.len());
            let (px, py, pz) = tiles[0].layout().dims();
            for (t, tile) in tiles.iter().enumerate() {
                assert_eq!(map.layout.bytes(), tile.bytes(), "{layout:?} N={n} nb={nb}");
                for (ix, iy, iz) in [
                    (0, 0, 0),
                    (0, 0, 1),
                    (0, 1, 0),
                    (1, 0, 0),
                    (px - 1, py - 1, pz - 1),
                ] {
                    assert_eq!(
                        map.coef_line(t, ix, iy, iz) - map.tile_base[t],
                        (tile.line_offset(ix, iy, iz) * std::mem::size_of::<f32>()) as u64,
                        "{layout:?} N={n} nb={nb} grid {grid:?} tile {t} ({ix}, {iy}, {iz})"
                    );
                }
            }
        }
    }

    #[test]
    fn soa_issues_fewer_output_accesses_than_aos() {
        let p = Platform::knl();
        let aos = simulate(&base_cfg(Layout::Aos, 256, 256), &p);
        let soa = simulate(&base_cfg(Layout::Soa, 256, 256), &p);
        assert_eq!(aos.evals, soa.evals);
        assert!(
            aos.accesses > 2 * soa.accesses,
            "AoS touches outputs 64× vs 16×: {} vs {}",
            aos.accesses,
            soa.accesses
        );
    }

    #[test]
    fn large_n_writes_spill_and_tiling_recovers() {
        // The Fig 7b mechanism on KNL: 8 hyperthread walkers share one
        // 1 MB L2 tile; untiled N=4096 outputs (8 × 160 KB) thrash it,
        // Nb=512 tiles stay resident.
        let p = Platform::knl();
        let mut untiled_cfg = base_cfg(Layout::Soa, 4096, 4096);
        untiled_cfg.n_threads = 8;
        let mut tiled_cfg = base_cfg(Layout::AoSoA, 4096, 512);
        tiled_cfg.n_threads = 8;
        let untiled = simulate(&untiled_cfg, &p);
        let tiled = simulate(&tiled_cfg, &p);
        assert!(
            untiled.write_bytes_per_eval() > 2.0 * tiled.write_bytes_per_eval(),
            "untiled {} B/eval vs tiled {} B/eval",
            untiled.write_bytes_per_eval(),
            tiled.write_bytes_per_eval()
        );
    }

    #[test]
    fn small_n_outputs_stay_in_cache() {
        let p = Platform::knl();
        let mut cfg = base_cfg(Layout::Soa, 256, 256);
        cfg.n_threads = 8;
        let s = simulate(&cfg, &p);
        // 8 walkers × 10 KB outputs fit the 1 MB L2: negligible write
        // traffic per eval compared to the coefficient reads.
        assert!(
            s.write_bytes_per_eval() < 0.2 * s.read_bytes_per_eval(),
            "w {} vs r {}",
            s.write_bytes_per_eval(),
            s.read_bytes_per_eval()
        );
    }

    #[test]
    fn coefficient_reads_dominate_reads() {
        let p = Platform::knl();
        let s = simulate(&base_cfg(Layout::Soa, 512, 512), &p);
        assert!(s.read_bytes_per_eval() > 1000.0);
    }

    #[test]
    fn nested_threads_partition_tiles() {
        let p = Platform::knl();
        let mut cfg = base_cfg(Layout::AoSoA, 512, 64); // 8 tiles
        cfg.n_threads = 4;
        cfg.threads_per_walker = 4;
        let s = simulate(&cfg, &p);
        assert_eq!(s.evals, 12); // 1 walker × 12 positions
        assert!(s.accesses > 0);
    }

    #[test]
    fn multi_walker_scales_evals() {
        let p = Platform::bdw();
        let mut cfg = base_cfg(Layout::AoSoA, 256, 64);
        cfg.n_threads = 4;
        let s = simulate(&cfg, &p);
        assert_eq!(s.evals, 4 * 12);
    }

    #[test]
    fn kernel_v_touches_one_output_stream() {
        let p = Platform::knl();
        let mut cfg_v = base_cfg(Layout::Soa, 256, 256);
        cfg_v.kernel = Kernel::V;
        let v = simulate(&cfg_v, &p);
        let vgh = simulate(&base_cfg(Layout::Soa, 256, 256), &p);
        assert!(v.accesses < vgh.accesses / 2);
    }

    #[test]
    fn stats_bytes_are_line_multiples() {
        let p = Platform::bgq();
        let s = simulate(&base_cfg(Layout::Soa, 128, 128), &p);
        assert_eq!(s.dram_read_bytes % 64, 0);
        assert_eq!(s.dram_write_bytes % 64, 0);
    }

    #[test]
    fn llc_keeps_small_tiles_resident_on_bdw() {
        // Fig 7c mechanism on BDW: with a 48³ grid, a Nb=64 tile region
        // (28 MB) fits the 44 MB LLC → coefficient reads mostly hit; a
        // Nb=256 tile region (113 MB) cannot → reads stream from DRAM.
        let p = Platform::bdw();
        let mut small = TraceConfig::vgh(Layout::AoSoA, 512, 64);
        small.n_positions = 16;
        small.warmup = 4;
        small.n_threads = 2;
        let mut large = TraceConfig::vgh(Layout::AoSoA, 512, 256);
        large.n_positions = 16;
        large.warmup = 4;
        large.n_threads = 2;
        let s = simulate(&small, &p);
        let l = simulate(&large, &p);
        // Same total work; per-eval read traffic should be far lower for
        // the resident tile.
        assert!(
            s.read_bytes_per_eval() < 0.5 * l.read_bytes_per_eval(),
            "Nb=64 {} B/eval vs Nb=256 {} B/eval",
            s.read_bytes_per_eval(),
            l.read_bytes_per_eval()
        );
    }
}
