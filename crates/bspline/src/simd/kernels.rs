//! Generic micro-kernel bodies, written once against [`SimdReal`] and
//! instantiated per (scalar type, lane pack) by the dispatch tables.
//!
//! # Loop structure
//!
//! V, VGL and VGH are one chunk loop ([`chunks`]) that differs in a
//! constant table: which output stream and which z-sum each accumulate
//! step feeds ([`V_TERMS`], [`VGL_TERMS`], [`VGH_TERMS`]). The orbital
//! chunk is the *outer* loop and the 16 (i,j) planes the inner one, so
//! every accumulator lives in a register across the whole evaluation
//! and each output stream is written exactly once per chunk. The ragged
//! `m % LANES` tail is the same loop at one lane ([`Lane1`]).
//!
//! **Hoisted per position** ([`Hoisted`]), because the disassembly of
//! the 512-bit instantiation showed all of it redone per plane *and per
//! chunk*:
//!
//! * the x/y weight products, one table entry per accumulate step
//!   (16 × {1, 6, 10} values). Splats come **from memory**: an entry
//!   used once folds into its FMA as a load-port broadcast operand,
//!   where a product computed in the loop costs a scalar multiply and a
//!   register broadcast, both on the two ports the 512-bit FMAs need.
//!   Entries are not shared between steps that use the same product —
//!   a shared one is broadcast into a register, and VGH already needs
//!   10 accumulators + 12 z-weight splats + 4 loads + temporaries of
//!   the 32 (sharing read `bspline.blocked.vgh_batch_mevals` 3 % lower
//!   in every one of three alternating pairs);
//! * the 16 plane bases, each plane's four z-lines as one run
//!   (`MultiCoefs::z_run`: one bounds check instead of four per plane
//!   per chunk).
//!
//! The table is cache-line aligned, which also makes the compiler
//! realign the frame, so no spilled pack straddles a line. The 512-bit
//! loops do not spill and do not care; under `QMC_SIMD=avx2` (16
//! registers, VGH spills) the same ledger row read 96 with and 90.5
//! without, three pairs of three.
//!
//! **Packs per step** ([`unroll`]): as many accumulators as the register
//! file holds — 4 / 2 / 1 packs for V / VGL / VGH on 32 registers,
//! 4 / 1 / 1 on 16. V reads 4 KiB per chunk for 80 FMAs and is bound by
//! the L2, not by arithmetic; four packs a step read every z-line 128–
//! 256 B at a time, which the hardware prefetchers follow
//! (`bspline.blocked.v_batch_mevals` 299 / 365 / 437 at 1 / 2 / 4 packs;
//! `vgl_batch_mevals` 230 / 283 at 1 / 2).
//!
//! **Software prefetch** ([`ahead`] planes ahead): where a pack is a
//! whole cache line, every load is the only access to its line and the
//! L1 next-line prefetcher never fires, so steps shorter than
//! [`STREAMED_UNROLL`] hint the lines they will read some planes later
//! (four planes: VGL 262 → 283, VGH 184 → 200, on unpadded rows).
//! Narrower packs touch each line twice or more and read slower with
//! the hints (AVX2 VGH 85 vs 97), so they take none.
//!
//! How far ahead was swept again once the table padded its z-rows (see
//! `einspline::multi`: at N = 256 a chunk's 64 lines now cover 52 L1
//! sets, not 4). Traced `spline_batch`, 8 s runs, three alternating runs
//! per distance, `bspline.blocked.*_batch_mevals`:
//!
//! | planes ahead | 4 | 6 | 8 | 12 | 16 |
//! |---|---|---|---|---|---|
//! | VGH (one pack a step) | 252–255 | | 252–254 | **258–268** | 260–265 |
//! | VGL (two packs a step) | **312–320** | 312–320 | 314–318 | 306–317 | 301–307 |
//!
//! VGH at 12 won all nine pairs against 4 (three sweeps, two seeds); no
//! distance moved VGL beyond the spread of 4, so it keeps 4.
//!
//! Measured and **not kept**: hinting the output lines ahead of the
//! stores (no change); a fully unrolled plane loop (the compiler
//! hoists 160 splats to the stack; −12 %); hinting V's four-pack walk a
//! whole chunk ahead (V 466–481 → 341–344). That loss was put down to
//! the four shared L1 sets, but it survives the row pad: four packs a
//! step already stream every z-line for the hardware prefetchers. Nor
//! for a lone position (a slice of 1, tables of 8 MiB and up): see the
//! rows under [`eval_soa`].
//!
//! Per element the operation chain is unchanged by all of this (same
//! products, same accumulation order, same fused ops), so results are
//! bit-identical to the reference on every backend.

use super::lanes::SimdReal;
use crate::batch::Located;
use crate::layout::Kernel;
use crate::output::SoAStreamsMut;
use einspline::basis::BasisWeights;
use einspline::multi::MultiCoefs;
use einspline::{Real, CACHE_LINE};

/// The one-lane pack: the ragged `m % LANES` tail is the chunk loop
/// instantiated at `LANES = 1`, with the fused `mul_add` of the scalar
/// reference.
#[derive(Clone, Copy)]
struct Lane1<T>(T);

impl<T: Real> SimdReal<T> for Lane1<T> {
    const LANES: usize = 1;
    const REGISTERS: usize = 16;

    #[inline(always)]
    fn splat(x: T) -> Self {
        Self(x)
    }

    #[inline(always)]
    fn load(s: &[T], at: usize) -> Self {
        Self(s[at])
    }

    #[inline(always)]
    fn store(self, s: &mut [T], at: usize) {
        s[at] = self.0;
    }

    #[inline(always)]
    fn mul(self, a: Self) -> Self {
        Self(self.0 * a.0)
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Self(self.0.mul_add(a.0, b.0))
    }
}

/// (i,j) planes of one tricubic evaluation cell.
const PLANES: usize = 16;

/// What one position contributes to every orbital chunk, resolved once
/// per evaluation: per (i,j) plane the x/y weight product of each of
/// its kernel's `Q` accumulate steps, and the plane's four z-lines as
/// one bounds-checked run. Cache-line aligned: see the module docs.
#[repr(align(64))]
struct Hoisted<'a, T, const Q: usize> {
    pre: [[T; Q]; PLANES],
    runs: [&'a [T]; PLANES],
    /// Offset of z-line `k` inside a run: `k · stride`.
    stride: usize,
}

impl<'a, T: Real, const Q: usize> Hoisted<'a, T, Q> {
    #[inline(always)]
    fn new(
        coefs: &'a MultiCoefs<T>,
        loc: &Located<T>,
        products: impl Fn(usize, usize) -> [T; Q],
    ) -> Self {
        let mut pre = [[T::ZERO; Q]; PLANES];
        let mut runs: [&[T]; PLANES] = [&[]; PLANES];
        for i in 0..4 {
            for j in 0..4 {
                pre[4 * i + j] = products(i, j);
                runs[4 * i + j] = coefs.z_run(loc.i0 + i, loc.j0 + j, loc.k0);
            }
        }
        Self {
            pre,
            runs,
            stride: coefs.stride_n(),
        }
    }
}

/// Hint the cache line holding `s[at]` into L1 (`_MM_HINT_T0`).
/// Compiles to nothing outside x86-64.
#[inline(always)]
fn prefetch_line<T>(s: &[T], at: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: prefetch reads no data and has no architectural
        // effects, whatever the address.
        unsafe { _mm_prefetch(s.as_ptr().wrapping_add(at).cast::<i8>(), _MM_HINT_T0) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (s, at);
    }
}

/// Planes a chunk loop of `unroll` packs per step prefetches ahead of
/// the one it computes: 12 at one pack a step (VGH), 4 at two (VGL).
/// See the module docs for the sweep.
const fn ahead(unroll: usize) -> usize {
    if unroll == 1 {
        12
    } else {
        4
    }
}

/// Hint the four z-lines of the plane `ahead` planes after plane `p`
/// at orbital `at` into L1, wrapping into the planes of the pack `step`
/// orbitals on (an address past the table is only a hint).
#[inline(always)]
fn prefetch_ahead<T: Real, const Q: usize>(
    h: &Hoisted<'_, T, Q>,
    p: usize,
    at: usize,
    step: usize,
    ahead: usize,
) {
    let (q, at) = if p + ahead < PLANES {
        (p + ahead, at)
    } else {
        (p + ahead - PLANES, at + step)
    };
    for k in 0..4 {
        prefetch_line(h.runs[q], k * h.stride + at);
    }
}

/// The four z-lines of one plane at orbitals `[at, at + LANES)`.
#[inline(always)]
fn z_loads<T: Real, L: SimdReal<T>>(run: &[T], stride: usize, at: usize) -> [L; 4] {
    [
        L::load(run, at),
        L::load(run, stride + at),
        L::load(run, 2 * stride + at),
        L::load(run, 3 * stride + at),
    ]
}

/// `Σ_k w[k]·a[k]` in the reference's order (`k = 0` first, innermost).
#[inline(always)]
fn z_sum<T: Real, L: SimdReal<T>>(w: &[L; 4], a: &[L; 4]) -> L {
    w[3].mul_add(a[3], w[2].mul_add(a[2], w[1].mul_add(a[1], w[0].mul(a[0]))))
}

/// One accumulate step of a kernel: `acc[stream] += pre·s[z]`, where
/// `s[z]` is the plane's z-sum with the value (0), first-derivative (1)
/// or second-derivative (2) z-weights and `pre` the step's own entry of
/// the hoisted product table.
type Term = (usize, usize);

/// V: `v += a_i b_j · s0`.
const V_TERMS: [Term; 1] = [(0, 0)];
/// VGL over streams `v gx gy gz l`; the Laplacian takes its `s2` term
/// first: `l = pre_lap·s0 + (pre00·s2 + l)`.
const VGL_TERMS: [Term; 6] = [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (4, 0)];
/// VGH over streams `v gx gy gz hxx hxy hxz hyy hyz hzz`, grouped by
/// z-sum so that only one is live at a time.
const VGH_TERMS: [Term; 10] = [
    (0, 0),
    (1, 0),
    (2, 0),
    (4, 0),
    (5, 0),
    (7, 0),
    (3, 1),
    (6, 1),
    (8, 1),
    (9, 2),
];

/// The chunk loop of every kernel: the `A` streams of `out` overwritten
/// over `[from, to)` in steps of `U` packs for as long as a whole step
/// fits below `to`; returns where it stopped. `terms[k]` says which
/// stream and z-sum entry `k` of the product table accumulates into.
/// Every accumulator is lane-private, so any split of `[from, to)` at
/// lane multiples — over `U`, over packs, over sub-ranges — is
/// bit-identical to no split.
#[inline(always)]
fn chunks<T: Real, L: SimdReal<T>, const U: usize, const Q: usize, const A: usize>(
    h: &Hoisted<'_, T, Q>,
    terms: &[Term; Q],
    wc: &BasisWeights<T>,
    out: &mut [&mut [T]; A],
    from: usize,
    to: usize,
) -> usize {
    let zw = [
        wc.a.map(L::splat),
        wc.da.map(L::splat),
        wc.d2a.map(L::splat),
    ];
    let step = U * L::LANES;
    let mut base = from;
    while base + step <= to {
        let mut acc = [[L::splat(T::ZERO); A]; U];
        for p in 0..PLANES {
            for (u, acc) in acc.iter_mut().enumerate() {
                let at = base + u * L::LANES;
                if U < STREAMED_UNROLL && std::mem::size_of::<L>() >= CACHE_LINE {
                    prefetch_ahead(h, p, at, step, ahead(U));
                }
                let a = z_loads::<T, L>(h.runs[p], h.stride, at);
                let s = [z_sum(&zw[0], &a), z_sum(&zw[1], &a), z_sum(&zw[2], &a)];
                for (pre, &(stream, z)) in h.pre[p].iter().zip(terms) {
                    acc[stream] = L::splat(*pre).mul_add(s[z], acc[stream]);
                }
            }
        }
        for (u, acc) in acc.into_iter().enumerate() {
            for (acc, stream) in acc.into_iter().zip(out.iter_mut()) {
                acc.store(stream, base + u * L::LANES);
            }
        }
        base += step;
    }
    base
}

/// Packs per step from which a walk reads every z-line in runs long
/// enough for the hardware prefetchers to follow; shorter steps of
/// cache-line-wide packs prefetch [`ahead`] planes ahead in software.
/// Also the largest step [`range`] takes.
const STREAMED_UNROLL: usize = 4;

/// Packs per step of a kernel with `streams` accumulators per pack and
/// `z_sums` sets of z-weights on a register file of `registers`: as many
/// as fit beside the `4·z_sums` weight splats, one plane's four loads
/// and two temporaries, at most [`STREAMED_UNROLL`]. With 32 registers
/// that is 4 / 2 / 1 for V / VGL / VGH, with 16 it is 4 / 1 / 1.
const fn unroll(registers: usize, streams: usize, z_sums: usize) -> usize {
    let fit = registers.saturating_sub(4 * z_sums + 6) / streams;
    if fit >= STREAMED_UNROLL {
        STREAMED_UNROLL
    } else if fit >= 2 {
        2
    } else {
        1
    }
}

/// A kernel over orbitals `[from, to)`: [`unroll`] packs a step, then
/// the smaller steps down to single packs, then single lanes.
#[inline(always)]
fn range<T: Real, L: SimdReal<T>, const Q: usize, const A: usize>(
    h: &Hoisted<'_, T, Q>,
    terms: &[Term; Q],
    wc: &BasisWeights<T>,
    mut out: [&mut [T]; A],
    from: usize,
    to: usize,
) {
    // What the packs' unchecked loads and stores rely on: every z-line
    // and every stream holds orbitals `[from, to)`.
    assert!(
        to <= h.stride && out.iter().all(|s| to <= s.len()),
        "orbital range [{from}, {to}) exceeds a coefficient line or an output stream"
    );
    let mut z_sums = 0;
    for &(_, z) in terms {
        z_sums = z_sums.max(z + 1);
    }
    let u = unroll(L::REGISTERS, A, z_sums);
    let mut at = from;
    if u >= 4 {
        at = chunks::<T, L, 4, Q, A>(h, terms, wc, &mut out, at, to);
    }
    if u >= 2 {
        at = chunks::<T, L, 2, Q, A>(h, terms, wc, &mut out, at, to);
    }
    at = chunks::<T, L, 1, Q, A>(h, terms, wc, &mut out, at, to);
    chunks::<T, Lane1<T>, 1, Q, A>(h, terms, wc, &mut out, at, to);
}

/// The SoA evaluation kernel: V, VGL or VGH over one pre-located
/// position, the streams `kernel` produces fully overwritten for all
/// `out.len()` orbitals.
///
/// Every kernel takes one walk, [`range`], whether the position is
/// evaluated alone (a scalar call, a one-move call, a batch of one) or
/// as one of a batch. A lone V on a table of 8 MiB or more takes no
/// look-ahead walk (64-orbital chunks, each prefetching the next one's
/// coefficient segments): on padded rows that walk pays only on
/// cell-wide positions, by about 5 %, and at confined positions it
/// makes V slower than VGL over the same lines. Traced `spline_onemove`
/// (N = 256, AVX-512, 2 MiB L2, reference clock), four alternating
/// pairs, median and range:
///
/// | row | look-ahead | one walk |
/// |---|---|---|
/// | `bspline.onemove.v_one_ns` | 1065 (995–1290) | 634 (593–719) |
/// | `bspline.soa.v_scalar_ns` | 1016 (952–1278) | 574 (550–713) |
/// | `bspline.onemove.vgl_one_hit_ns` | 927 (844–1142) | 934 (862–1102) |
/// | `bspline.onemove.pair_cellwide_ns` | 6302 (5738–6647) | 6904 (6454–7047) |
///
/// The cell-wide pair reads ≈ 10 % slower, about its per-run spread
/// (0.09–0.16); the untraced `spline_onemove` rate went 627 k → 950 k
/// pairs/s (median of ten pairs).
#[inline(always)]
pub(crate) fn eval_soa<T: Real, L: SimdReal<T>>(
    kernel: Kernel,
    coefs: &MultiCoefs<T>,
    loc: &Located<T>,
    out: SoAStreamsMut<'_, T>,
) {
    let m = out.len();
    debug_assert!(m <= coefs.stride_n());
    let (wa, wb, wc) = (&loc.wa, &loc.wb, &loc.wc);
    match kernel {
        Kernel::V => {
            let h = Hoisted::new(coefs, loc, |i, j| [wa.a[i] * wb.a[j]]);
            range::<T, L, 1, 1>(&h, &V_TERMS, wc, [out.v], 0, m);
        }
        Kernel::Vgl => {
            let h = Hoisted::new(coefs, loc, |i, j| {
                let pre00 = wa.a[i] * wb.a[j];
                let pre_lap = wa.d2a[i] * wb.a[j] + wa.a[i] * wb.d2a[j];
                [
                    pre00,
                    wa.da[i] * wb.a[j],
                    wa.a[i] * wb.da[j],
                    pre00,
                    pre00,
                    pre_lap,
                ]
            });
            let streams = [out.v, out.gx, out.gy, out.gz, out.l];
            range::<T, L, 6, 5>(&h, &VGL_TERMS, wc, streams, 0, m);
        }
        Kernel::Vgh => {
            let h = Hoisted::new(coefs, loc, |i, j| {
                let (pre00, pre10, pre01) =
                    (wa.a[i] * wb.a[j], wa.da[i] * wb.a[j], wa.a[i] * wb.da[j]);
                let (pre20, pre11, pre02) = (
                    wa.d2a[i] * wb.a[j],
                    wa.da[i] * wb.da[j],
                    wa.a[i] * wb.d2a[j],
                );
                [
                    pre00, pre10, pre01, pre20, pre11, pre02, pre00, pre10, pre01, pre00,
                ]
            });
            let streams = [
                out.v, out.gx, out.gy, out.gz, out.hxx, out.hxy, out.hxz, out.hyy, out.hyz, out.hzz,
            ];
            range::<T, L, 10, 10>(&h, &VGH_TERMS, wc, streams, 0, m);
        }
    }
}
