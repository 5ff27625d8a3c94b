//! What the harness does about the machine it runs on: reading the core
//! clock and choosing the stack alignment around a timed interval, and
//! choosing the CPU a construction runs on. Each is there because taking
//! it out, alone, moved a ten-run spread (REPEATABILITY.md, "One
//! mechanism at a time"): without the clock reading `spline_batch`
//! spreads 2.1 % instead of 0.5 % and single runs read up to 24 % slow;
//! without both stack classes it spreads 4.1–4.8 %; without one CPU for
//! its two threads `service_mixed` spreads 19.0 % instead of 2.9 %. None
//! of the three is the program's doing.

use crate::estimator::{Sample, CHAIN_CYCLES, CLASSES, REFERENCE_CHAIN_S};
use std::hint::black_box;
use std::time::Instant;

/// Links in the clock chain, 4 cycles each: ~8 µs.
const CHAIN_LINKS: usize = CHAIN_CYCLES as usize / 4;

/// Seconds one pass over a chain of [`CHAIN_LINKS`] dependent FMAs
/// takes: each link waits the FMA latency (4 cycles on every x86 core
/// since 2015) for the one before, so the time is a fixed count of core
/// cycles whatever else the core could do meanwhile. 256-bit FMAs,
/// because the clock a core grants depends on the instructions it
/// sees: a scalar chain after an AVX2 kernel reads a clock the kernel
/// never ran at. The chain runs twice and the second pass is timed
/// (the first absorbs the transition from the code before it).
///
/// Without AVX2+FMA the reading is the reference itself: every sample
/// is steady and its time is left as measured.
pub fn chain_seconds() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the two features the function is compiled for were
        // just detected on this CPU.
        return unsafe { fma_chain_seconds() };
    }
    REFERENCE_CHAIN_S
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chain_seconds() -> f64 {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps};
    let k = _mm256_set1_ps(black_box(0.999_999_9f32));
    let c = _mm256_set1_ps(black_box(1e-9f32));
    let mut x = _mm256_set1_ps(black_box(1.0f32));
    let mut secs = 0.0;
    for _ in 0..2 {
        let t0 = Instant::now();
        for _ in 0..CHAIN_LINKS {
            x = _mm256_fmadd_ps(x, k, c);
        }
        x = black_box(x);
        secs = t0.elapsed().as_secs_f64();
    }
    secs
}

/// Run `f` on a stack `PAD` bytes deeper. The System V stack is 16-byte
/// aligned at every call and frames are whole multiples of 16 bytes, so
/// the 16-byte local moves everything below it from one 32-byte
/// alignment class to the other.
#[inline(never)]
fn deeper<const PAD: usize>(f: &mut dyn FnMut()) {
    let pad = [0u8; PAD];
    black_box(&pad);
    f();
    black_box(&pad);
}

/// Run `f` in stack class `class`.
///
/// The library's kernels keep 256-bit temporaries on the stack without
/// asking for 32-byte alignment, so whether a process's stack pointer
/// is 0 or 16 modulo 32 — which address-space randomisation draws anew
/// for every process — moves `spline_batch` by 5 %. Every series is
/// therefore measured in both classes, alternating, and reported as
/// their mean: what a caller gets on average, whichever class this
/// process drew.
pub fn in_class(class: usize, f: &mut dyn FnMut()) {
    match class % CLASSES {
        0 => deeper::<0>(f),
        _ => deeper::<16>(f),
    }
}

/// Address of a local of a function called from here, modulo 32: which
/// class the caller's stack is in.
#[inline(never)]
fn stack_residue() -> usize {
    let mark = 0u64;
    black_box(&mark) as *const u64 as usize % 32
}

/// Whether the two classes really are 16 bytes apart modulo 32 in this
/// build (a frame layout the compiler may change under us).
pub fn classes_differ() -> bool {
    let mut seen = [0usize; CLASSES];
    for (class, slot) in seen.iter_mut().enumerate() {
        in_class(class, &mut || *slot = stack_residue());
    }
    seen[0].abs_diff(seen[1]) == 16
}

/// Words in an affinity mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // glibc's wrappers; pid 0 is the calling thread.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on (CPU 0 where the kernel will
/// not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    #[cfg(target_os = "linux")]
    // SAFETY: the pointer and the byte count describe `mask`, which the
    // call only writes into.
    let known = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    #[cfg(not(target_os = "linux"))]
    let known = false;
    let cpus: Vec<usize> = (0..64 * MASK_WORDS)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if known && !cpus.is_empty() {
        cpus
    } else {
        vec![0]
    }
}

/// Restrict the calling thread, and the threads it spawns from now on,
/// to `cpus` (`harness::measure` says why). Returns whether the kernel
/// agreed.
pub fn run_on(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < 64 * MASK_WORDS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    #[cfg(target_os = "linux")]
    // SAFETY: the pointer and the byte count describe `mask`, which the
    // call only reads.
    return unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) } == 0;
    #[cfg(not(target_os = "linux"))]
    false
}

/// Time `f` in stack class `class`, between two clock readings.
pub fn sample(class: usize, f: &mut dyn FnMut()) -> Sample {
    let chain_before = chain_seconds();
    let t0 = Instant::now();
    in_class(class, f);
    let secs = t0.elapsed().as_secs_f64();
    let chain_after = chain_seconds();
    Sample {
        secs,
        chain_before,
        chain_after,
        class: (class % CLASSES) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_reads_a_plausible_clock() {
        let readings: Vec<f64> = (0..50).map(|_| chain_seconds()).collect();
        let best = readings.iter().copied().fold(f64::INFINITY, f64::min);
        // 32 000 cycles: no faster than 8 GHz; an unoptimised build
        // spends several times that around the FMAs.
        assert!((4e-6..=1e-3).contains(&best), "chain {best}");
    }

    #[test]
    fn the_two_classes_are_sixteen_bytes_apart() {
        assert!(classes_differ());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_thread_moves_to_the_cpu_it_is_sent_to() {
        let all = allowed_cpus();
        assert!(!all.is_empty());
        for &cpu in &all {
            assert!(run_on(&[cpu]));
            assert_eq!(allowed_cpus(), vec![cpu]);
            // A thread spawned now inherits the restriction.
            assert_eq!(std::thread::spawn(allowed_cpus).join().unwrap(), vec![cpu]);
        }
        assert!(run_on(&all));
        assert_eq!(allowed_cpus(), all);
    }

    #[test]
    fn a_sample_times_the_closure_in_its_class() {
        let mut ran = 0;
        let s = sample(3, &mut || {
            ran += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!((ran, s.class), (1, 1));
        assert!(s.secs >= 0.002 && s.chain_before > 0.0 && s.chain_after > 0.0);
    }
}
