//! Generic micro-kernel bodies, written once against [`SimdReal`] and
//! instantiated per (scalar type, lane pack) by the dispatch tables.
//!
//! Loop structure (the tentpole restructuring): the orbital chunk is the
//! *outer* loop and the 4×4 (i,j) basis unroll the inner one, so all
//! output accumulators live in registers across the whole evaluation and
//! each output stream is written exactly once per chunk — the scalar
//! reference read-modified-wrote every stream once per plane (16×).
//! Per element the operation chain is unchanged (same accumulation
//! order, same fused ops), so results are bit-identical to the
//! reference wherever the pack has FMA.

use super::lanes::SimdReal;
use crate::batch::Located;
use crate::layout::Kernel;
use crate::output::SoAStreamsMut;
use einspline::multi::MultiCoefs;
use einspline::Real;

/// The four z-lines of one (i,j) plane, starting at `k0`.
#[inline(always)]
fn plane_lines<'a, T: Real>(
    coefs: &'a MultiCoefs<T>,
    loc: &Located<T>,
    i: usize,
    j: usize,
) -> [&'a [T]; 4] {
    [
        coefs.line(loc.i0 + i, loc.j0 + j, loc.k0),
        coefs.line(loc.i0 + i, loc.j0 + j, loc.k0 + 1),
        coefs.line(loc.i0 + i, loc.j0 + j, loc.k0 + 2),
        coefs.line(loc.i0 + i, loc.j0 + j, loc.k0 + 3),
    ]
}

/// V kernel body: the view's `v` stream overwritten over orbital
/// sub-range `[from, to)`, evaluated against the same coefficient-line
/// elements. Both the per-orbital operation chain and the lane
/// partition are identical to a full-range call, because every
/// accumulator is lane-private: any split at a lane-multiple boundary
/// is bit-identical to no split.
#[inline(always)]
fn v_soa_range<T: Real, L: SimdReal<T>>(
    coefs: &MultiCoefs<T>,
    loc: &Located<T>,
    out: &mut SoAStreamsMut<'_, T>,
    from: usize,
    to: usize,
) {
    let m = to;
    debug_assert!(m <= coefs.stride_n());
    let (wa, wb, wc) = (&loc.wa, &loc.wb, &loc.wc);
    let v = &mut *out.v;
    let c = wc.a;
    let cv = [L::splat(c[0]), L::splat(c[1]), L::splat(c[2]), L::splat(c[3])];

    let mut base = from;
    while base + L::LANES <= m {
        let mut acc = L::splat(T::ZERO);
        for i in 0..4 {
            for j in 0..4 {
                let ab = wa.a[i] * wb.a[j];
                let p = plane_lines(coefs, loc, i, j);
                let a0 = L::load(p[0], base);
                let a1 = L::load(p[1], base);
                let a2 = L::load(p[2], base);
                let a3 = L::load(p[3], base);
                let s0 = cv[3].mul_add(a3, cv[2].mul_add(a2, cv[1].mul_add(a1, cv[0].mul(a0))));
                acc = L::splat(ab).mul_add(s0, acc);
            }
        }
        acc.store(v, base);
        base += L::LANES;
    }
    for idx in base..m {
        let mut acc = T::ZERO;
        for i in 0..4 {
            for j in 0..4 {
                let ab = wa.a[i] * wb.a[j];
                let p = plane_lines(coefs, loc, i, j);
                let s0 = c[3].mul_add(
                    p[3][idx],
                    c[2].mul_add(p[2][idx], c[1].mul_add(p[1][idx], c[0] * p[0][idx])),
                );
                acc = ab.mul_add(s0, acc);
            }
        }
        v[idx] = acc;
    }
}

/// VGL kernel body: the view's five `v/gx/gy/gz/l` streams overwritten
/// (all `out.len()` orbitals, evaluated against coefficient-line
/// elements `0..len`).
#[inline(always)]
fn vgl_soa<T: Real, L: SimdReal<T>>(
    coefs: &MultiCoefs<T>,
    loc: &Located<T>,
    out: &mut SoAStreamsMut<'_, T>,
) {
    let m = out.len();
    debug_assert!(m <= coefs.stride_n());
    let (wa, wb, wc) = (&loc.wa, &loc.wb, &loc.wc);
    let SoAStreamsMut {
        ref mut v,
        ref mut gx,
        ref mut gy,
        ref mut gz,
        ref mut l,
        ..
    } = *out;
    let (c, dc, d2c) = (wc.a, wc.da, wc.d2a);
    let cv = [L::splat(c[0]), L::splat(c[1]), L::splat(c[2]), L::splat(c[3])];
    let dcv = [L::splat(dc[0]), L::splat(dc[1]), L::splat(dc[2]), L::splat(dc[3])];
    let d2cv = [
        L::splat(d2c[0]),
        L::splat(d2c[1]),
        L::splat(d2c[2]),
        L::splat(d2c[3]),
    ];

    let mut base = 0;
    while base + L::LANES <= m {
        let mut av = L::splat(T::ZERO);
        let mut agx = L::splat(T::ZERO);
        let mut agy = L::splat(T::ZERO);
        let mut agz = L::splat(T::ZERO);
        let mut al = L::splat(T::ZERO);
        for i in 0..4 {
            for j in 0..4 {
                let pre00 = wa.a[i] * wb.a[j];
                let pre10 = wa.da[i] * wb.a[j];
                let pre01 = wa.a[i] * wb.da[j];
                let pre_lap = wa.d2a[i] * wb.a[j] + wa.a[i] * wb.d2a[j];
                let p = plane_lines(coefs, loc, i, j);
                let a0 = L::load(p[0], base);
                let a1 = L::load(p[1], base);
                let a2 = L::load(p[2], base);
                let a3 = L::load(p[3], base);
                let s0 = cv[3].mul_add(a3, cv[2].mul_add(a2, cv[1].mul_add(a1, cv[0].mul(a0))));
                let s1 =
                    dcv[3].mul_add(a3, dcv[2].mul_add(a2, dcv[1].mul_add(a1, dcv[0].mul(a0))));
                let s2 = d2cv[3]
                    .mul_add(a3, d2cv[2].mul_add(a2, d2cv[1].mul_add(a1, d2cv[0].mul(a0))));
                av = L::splat(pre00).mul_add(s0, av);
                agx = L::splat(pre10).mul_add(s0, agx);
                agy = L::splat(pre01).mul_add(s0, agy);
                agz = L::splat(pre00).mul_add(s1, agz);
                // lap = (pre20 + pre02)·s0 + pre00·s2
                al = L::splat(pre_lap).mul_add(s0, L::splat(pre00).mul_add(s2, al));
            }
        }
        av.store(v, base);
        agx.store(gx, base);
        agy.store(gy, base);
        agz.store(gz, base);
        al.store(l, base);
        base += L::LANES;
    }
    for idx in base..m {
        let mut av = T::ZERO;
        let mut agx = T::ZERO;
        let mut agy = T::ZERO;
        let mut agz = T::ZERO;
        let mut al = T::ZERO;
        for i in 0..4 {
            for j in 0..4 {
                let pre00 = wa.a[i] * wb.a[j];
                let pre10 = wa.da[i] * wb.a[j];
                let pre01 = wa.a[i] * wb.da[j];
                let pre_lap = wa.d2a[i] * wb.a[j] + wa.a[i] * wb.d2a[j];
                let p = plane_lines(coefs, loc, i, j);
                let (a0, a1, a2, a3) = (p[0][idx], p[1][idx], p[2][idx], p[3][idx]);
                let s0 = c[3].mul_add(a3, c[2].mul_add(a2, c[1].mul_add(a1, c[0] * a0)));
                let s1 = dc[3].mul_add(a3, dc[2].mul_add(a2, dc[1].mul_add(a1, dc[0] * a0)));
                let s2 =
                    d2c[3].mul_add(a3, d2c[2].mul_add(a2, d2c[1].mul_add(a1, d2c[0] * a0)));
                av = pre00.mul_add(s0, av);
                agx = pre10.mul_add(s0, agx);
                agy = pre01.mul_add(s0, agy);
                agz = pre00.mul_add(s1, agz);
                al = pre_lap.mul_add(s0, pre00.mul_add(s2, al));
            }
        }
        v[idx] = av;
        gx[idx] = agx;
        gy[idx] = agy;
        gz[idx] = agz;
        l[idx] = al;
    }
}

/// VGH kernel body: the view's ten `v/gx/gy/gz/h**` streams
/// overwritten (all `out.len()` orbitals).
#[inline(always)]
fn vgh_soa<T: Real, L: SimdReal<T>>(
    coefs: &MultiCoefs<T>,
    loc: &Located<T>,
    out: &mut SoAStreamsMut<'_, T>,
) {
    let m = out.len();
    debug_assert!(m <= coefs.stride_n());
    let (wa, wb, wc) = (&loc.wa, &loc.wb, &loc.wc);
    let SoAStreamsMut {
        ref mut v,
        ref mut gx,
        ref mut gy,
        ref mut gz,
        ref mut hxx,
        ref mut hxy,
        ref mut hxz,
        ref mut hyy,
        ref mut hyz,
        ref mut hzz,
        ..
    } = *out;
    let (c, dc, d2c) = (wc.a, wc.da, wc.d2a);
    let cv = [L::splat(c[0]), L::splat(c[1]), L::splat(c[2]), L::splat(c[3])];
    let dcv = [L::splat(dc[0]), L::splat(dc[1]), L::splat(dc[2]), L::splat(dc[3])];
    let d2cv = [
        L::splat(d2c[0]),
        L::splat(d2c[1]),
        L::splat(d2c[2]),
        L::splat(d2c[3]),
    ];

    let mut base = 0;
    while base + L::LANES <= m {
        let mut av = L::splat(T::ZERO);
        let mut agx = L::splat(T::ZERO);
        let mut agy = L::splat(T::ZERO);
        let mut agz = L::splat(T::ZERO);
        let mut ahxx = L::splat(T::ZERO);
        let mut ahxy = L::splat(T::ZERO);
        let mut ahxz = L::splat(T::ZERO);
        let mut ahyy = L::splat(T::ZERO);
        let mut ahyz = L::splat(T::ZERO);
        let mut ahzz = L::splat(T::ZERO);
        for i in 0..4 {
            for j in 0..4 {
                let pre00 = wa.a[i] * wb.a[j];
                let pre10 = wa.da[i] * wb.a[j];
                let pre01 = wa.a[i] * wb.da[j];
                let pre20 = wa.d2a[i] * wb.a[j];
                let pre11 = wa.da[i] * wb.da[j];
                let pre02 = wa.a[i] * wb.d2a[j];
                let p = plane_lines(coefs, loc, i, j);
                let a0 = L::load(p[0], base);
                let a1 = L::load(p[1], base);
                let a2 = L::load(p[2], base);
                let a3 = L::load(p[3], base);
                let s0 = cv[3].mul_add(a3, cv[2].mul_add(a2, cv[1].mul_add(a1, cv[0].mul(a0))));
                let s1 =
                    dcv[3].mul_add(a3, dcv[2].mul_add(a2, dcv[1].mul_add(a1, dcv[0].mul(a0))));
                let s2 = d2cv[3]
                    .mul_add(a3, d2cv[2].mul_add(a2, d2cv[1].mul_add(a1, d2cv[0].mul(a0))));
                av = L::splat(pre00).mul_add(s0, av);
                agx = L::splat(pre10).mul_add(s0, agx);
                agy = L::splat(pre01).mul_add(s0, agy);
                agz = L::splat(pre00).mul_add(s1, agz);
                ahxx = L::splat(pre20).mul_add(s0, ahxx);
                ahxy = L::splat(pre11).mul_add(s0, ahxy);
                ahxz = L::splat(pre10).mul_add(s1, ahxz);
                ahyy = L::splat(pre02).mul_add(s0, ahyy);
                ahyz = L::splat(pre01).mul_add(s1, ahyz);
                ahzz = L::splat(pre00).mul_add(s2, ahzz);
            }
        }
        av.store(v, base);
        agx.store(gx, base);
        agy.store(gy, base);
        agz.store(gz, base);
        ahxx.store(hxx, base);
        ahxy.store(hxy, base);
        ahxz.store(hxz, base);
        ahyy.store(hyy, base);
        ahyz.store(hyz, base);
        ahzz.store(hzz, base);
        base += L::LANES;
    }
    for idx in base..m {
        let mut av = T::ZERO;
        let mut agx = T::ZERO;
        let mut agy = T::ZERO;
        let mut agz = T::ZERO;
        let mut ahxx = T::ZERO;
        let mut ahxy = T::ZERO;
        let mut ahxz = T::ZERO;
        let mut ahyy = T::ZERO;
        let mut ahyz = T::ZERO;
        let mut ahzz = T::ZERO;
        for i in 0..4 {
            for j in 0..4 {
                let pre00 = wa.a[i] * wb.a[j];
                let pre10 = wa.da[i] * wb.a[j];
                let pre01 = wa.a[i] * wb.da[j];
                let pre20 = wa.d2a[i] * wb.a[j];
                let pre11 = wa.da[i] * wb.da[j];
                let pre02 = wa.a[i] * wb.d2a[j];
                let p = plane_lines(coefs, loc, i, j);
                let (a0, a1, a2, a3) = (p[0][idx], p[1][idx], p[2][idx], p[3][idx]);
                let s0 = c[3].mul_add(a3, c[2].mul_add(a2, c[1].mul_add(a1, c[0] * a0)));
                let s1 = dc[3].mul_add(a3, dc[2].mul_add(a2, dc[1].mul_add(a1, dc[0] * a0)));
                let s2 =
                    d2c[3].mul_add(a3, d2c[2].mul_add(a2, d2c[1].mul_add(a1, d2c[0] * a0)));
                av = pre00.mul_add(s0, av);
                agx = pre10.mul_add(s0, agx);
                agy = pre01.mul_add(s0, agy);
                agz = pre00.mul_add(s1, agz);
                ahxx = pre20.mul_add(s0, ahxx);
                ahxy = pre11.mul_add(s0, ahxy);
                ahxz = pre10.mul_add(s1, ahxz);
                ahyy = pre02.mul_add(s0, ahyy);
                ahyz = pre01.mul_add(s1, ahyz);
                ahzz = pre00.mul_add(s2, ahzz);
            }
        }
        v[idx] = av;
        gx[idx] = agx;
        gy[idx] = agy;
        gz[idx] = agz;
        hxx[idx] = ahxx;
        hxy[idx] = ahxy;
        hxz[idx] = ahxz;
        hyy[idx] = ahyy;
        hyz[idx] = ahyz;
        hzz[idx] = ahzz;
    }
}

/// Prefetch the byte span covering orbitals `[from, to)` of all 64
/// coefficient z-lines of `loc`'s evaluation cell into L1
/// (`_MM_HINT_T0`). Compiles to nothing outside x86-64 / without the
/// `simd` feature.
#[inline(always)]
fn prefetch_span<T: Real>(coefs: &MultiCoefs<T>, loc: &Located<T>, from: usize, to: usize) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        if from >= to {
            return;
        }
        const CACHE_LINE: usize = 64;
        let lo = from * std::mem::size_of::<T>();
        let hi = to * std::mem::size_of::<T>();
        for i in 0..4 {
            for j in 0..4 {
                for line in plane_lines(coefs, loc, i, j) {
                    let base = line.as_ptr().cast::<i8>();
                    let mut off = lo;
                    while off < hi {
                        // SAFETY: `off < hi ≤ line byte length`; prefetch
                        // reads no data and has no architectural effects.
                        unsafe { _mm_prefetch(base.add(off), _MM_HINT_T0) };
                        off += CACHE_LINE;
                    }
                }
            }
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (coefs, loc, from, to);
    }
}

/// Orbitals per look-ahead chunk of [`eval_soa`]'s streaming V walk:
/// 64·4 B = one 256 B segment per z-line in f32 (512 B in f64) — small
/// enough that the prefetched next chunk displaces little of L1, large
/// enough that one chunk's compute covers the 64 outstanding DRAM
/// round-trips. Always a multiple of every pack's lane count, so the
/// chunked lane partition equals the monolithic one.
const LOOKAHEAD_CHUNK: usize = 64;

/// Coefficient tables at least this large are treated as streaming
/// (not cache-resident) by [`eval_soa`].
const STREAMING_BYTES: usize = 8 << 20;

/// The SoA evaluation kernel: V, VGL or VGH over one pre-located
/// position, the streams `kernel` produces fully overwritten for all
/// `out.len()` orbitals.
///
/// One case walks differently, selected from what this body observes —
/// the kernel is V, the table is at least [`STREAMING_BYTES`], and the
/// evaluation covers this position only (`single`: a slice of 1 has no
/// neighbour position to overlap memory latency with, and V's 64
/// concurrent z-line streams exceed the hardware prefetcher's stream
/// capacity). It then walks the orbitals in [`LOOKAHEAD_CHUNK`]s with
/// the *next* chunk's 64 coefficient segments software-prefetched while
/// the current one computes. Results are bit-identical either way (the
/// per-orbital accumulators are lane-private, so any lane-aligned range
/// partition reproduces the monolithic walk). The mechanism was
/// measured on the traced `spline_onemove` workload against the same
/// code with the look-ahead disabled (3 alternating pairs, every pair
/// the same sign):
///
/// * `bspline.onemove.pair_cellwide_ns` (positions drawn cell-wide, the
///   table streams): 7019/7017/6850 with it vs 10228/10095/9520
///   without — it saves ~30 %, which is why it stays;
/// * `bspline.onemove.v_one_ns` (confined positions, hot set resident
///   in L2 although the table is above the threshold): 1579/1660/1684
///   with it vs 1460/1414/1452 without — every prefetch is then a hit
///   and the µops cost ~13 %, which is why tables below the threshold,
///   and VGL/VGH (3–6× the arithmetic per coefficient already covers
///   the latency), take the plain walk.
#[inline(always)]
pub(crate) fn eval_soa<T: Real, L: SimdReal<T>>(
    kernel: Kernel,
    coefs: &MultiCoefs<T>,
    loc: &Located<T>,
    mut out: SoAStreamsMut<'_, T>,
    single: bool,
) {
    let m = out.len();
    match kernel {
        Kernel::V if single && coefs.bytes() >= STREAMING_BYTES => {
            let mut cs = 0usize;
            prefetch_span(coefs, loc, 0, LOOKAHEAD_CHUNK.min(m));
            while cs < m {
                let ce = (cs + LOOKAHEAD_CHUNK).min(m);
                prefetch_span(coefs, loc, ce, (ce + LOOKAHEAD_CHUNK).min(m));
                v_soa_range::<T, L>(coefs, loc, &mut out, cs, ce);
                cs = ce;
            }
        }
        Kernel::V => v_soa_range::<T, L>(coefs, loc, &mut out, 0, m),
        Kernel::Vgl => vgl_soa::<T, L>(coefs, loc, &mut out),
        Kernel::Vgh => vgh_soa::<T, L>(coefs, loc, &mut out),
    }
}

/// `y[..n] += a · x[..n]` (read-modify-write, one coefficient point of
/// the AoS baseline's V accumulation).
#[inline(always)]
pub(crate) fn axpy<T: Real, L: SimdReal<T>>(a: T, x: &[T], y: &mut [T], n: usize) {
    let x = &x[..n];
    let y = &mut y[..n];
    let av = L::splat(a);
    let mut i = 0;
    while i + L::LANES <= n {
        av.mul_add(L::load(x, i), L::load(y, i)).store(y, i);
        i += L::LANES;
    }
    while i < n {
        y[i] = a.mul_add(x[i], y[i]);
        i += 1;
    }
}

/// `v[..n] += pv·x[..n]` and `l[..n] += pl·x[..n]` in one pass over `x`
/// (the unit-stride streams of one AoS VGL coefficient point).
#[inline(always)]
pub(crate) fn vl_point<T: Real, L: SimdReal<T>>(
    pv: T,
    pl: T,
    x: &[T],
    v: &mut [T],
    l: &mut [T],
    n: usize,
) {
    let x = &x[..n];
    let v = &mut v[..n];
    let l = &mut l[..n];
    let pvv = L::splat(pv);
    let plv = L::splat(pl);
    let mut i = 0;
    while i + L::LANES <= n {
        let xv = L::load(x, i);
        pvv.mul_add(xv, L::load(v, i)).store(v, i);
        plv.mul_add(xv, L::load(l, i)).store(l, i);
        i += L::LANES;
    }
    while i < n {
        v[i] = pv.mul_add(x[i], v[i]);
        l[i] = pl.mul_add(x[i], l[i]);
        i += 1;
    }
}
