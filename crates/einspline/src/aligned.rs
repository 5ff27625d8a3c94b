//! Cache-line aligned, padded storage for spline tables and SoA outputs.
//!
//! The paper aligns every coefficient line `P[i][j][k]` and every output
//! stream to a 512-bit boundary so vector loads/stores never split cache
//! lines, and pads the spline dimension so the innermost loop has an exact
//! vector trip count. [`AlignedVec`] provides both: a `Vec`-like buffer
//! whose base pointer is 64-byte aligned.
//!
//! # Huge pages for large tables
//!
//! The kernels make random reads into one large table (136 MB for 48³
//! grid points and 256 `f32` orbitals), and its construction is dominated
//! by first-touch page faults: zeroing it at 4 KiB pages takes about 33 k
//! faults. On Linux (x86-64 and aarch64) an allocation of at least
//! [`HUGE_ADVICE_MIN_BYTES`] is advised with `madvise(MADV_HUGEPAGE)` on
//! its 2 MiB-aligned interior *before* it is first written, so a kernel
//! whose transparent huge pages are in `madvise` mode backs it with 2 MiB
//! pages (about 68 faults for that table). 32 MiB is glibc's ceiling on
//! its dynamic mmap threshold on 64-bit targets: an allocation that large
//! is always its own mapping and is unmapped on free, so the advice dies
//! with the allocation and never marks pages of the shared heap. The
//! advice changes no contents and its result is ignored (a kernel without
//! transparent huge pages answers `EINVAL`); below the threshold and on
//! other targets an allocation is a plain `posix_memalign` and a `memset`,
//! which is what std's `alloc_zeroed` does at 64-byte alignment.
//!
//! # Debug canary
//!
//! In builds with debug assertions every non-empty allocation carries one
//! extra cache line after its `len` elements, filled with a fixed byte;
//! dropping the buffer checks it and panics if a write ran past the end.
//! Release builds allocate exactly `len` elements.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::ptr::{self, NonNull};
use std::slice;

/// Alignment (bytes) of every allocation: one x86 cache line / 512-bit
/// vector register.
pub const CACHE_LINE: usize = 64;

/// Allocations of at least this many bytes are advised for transparent
/// huge pages (see the module docs): glibc's ceiling on its mmap
/// threshold on 64-bit targets, so such an allocation is its own mapping.
pub const HUGE_ADVICE_MIN_BYTES: usize = 32 << 20;

/// The transparent huge page size the advice is aligned to (x86-64, and
/// aarch64 with 4 KiB base pages).
const HUGE_PAGE: usize = 2 << 20;

/// Bytes of the debug canary after the last element: one cache line.
#[cfg(debug_assertions)]
const CANARY_LEN: usize = CACHE_LINE;

/// The byte the debug canary is filled with.
#[cfg(debug_assertions)]
const CANARY_BYTE: u8 = 0xA5;

/// The 2 MiB-aligned interior `(start, len)` of the allocation
/// `[addr, addr + bytes)` that is advised for huge pages, or `None` when
/// the allocation is under [`HUGE_ADVICE_MIN_BYTES`] or holds no whole
/// huge page. The range always lies inside the allocation.
fn huge_advice_range(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    if bytes < HUGE_ADVICE_MIN_BYTES {
        return None;
    }
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(bytes)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then(|| (start, end - start))
}

/// Ask the kernel to back `[addr, addr + len)` with transparent huge
/// pages. Advice only: the return value is ignored.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages(addr: *mut u8, len: usize) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // The generic Linux value; parisc numbers it differently, which is
    // why the declaration is limited to these two architectures.
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `[addr, addr + len)` lies inside a live allocation that the
    // calling `AlignedVec` owns, and `MADV_HUGEPAGE` only flags the
    // mapping: it changes no contents.
    unsafe {
        madvise(addr.cast(), len, MADV_HUGEPAGE);
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages(_addr: *mut u8, _len: usize) {}

/// Round `n` elements of `T` up so the byte size is a multiple of the
/// cache line, i.e. the padded element count used for the innermost
/// (spline) dimension of SoA layouts. Panics if the rounded count
/// overflows `usize`.
#[inline]
pub fn padded_len<T>(n: usize) -> usize {
    let per_line = CACHE_LINE / std::mem::size_of::<T>().max(1);
    if per_line <= 1 {
        return n;
    }
    n.checked_next_multiple_of(per_line)
        .expect("AlignedVec layout overflow")
}

/// A fixed-size, zero-initialized, 64-byte aligned buffer.
///
/// Unlike `Vec<T>`, the allocation is guaranteed to start on a cache-line
/// boundary, so a slice of it can be handed to vectorized kernels that
/// assume aligned streams. The length is fixed at construction (spline
/// tables never grow), which keeps the type trivially `Send + Sync` for
/// `T: Send + Sync`.
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
    _marker: PhantomData<T>,
}

// SAFETY: AlignedVec owns its buffer exclusively; it is a plain container.
unsafe impl<T: Send> Send for AlignedVec<T> {}
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

impl<T: Copy + Default> AlignedVec<T> {
    /// Allocate `len` zero-initialized elements aligned to [`CACHE_LINE`].
    /// An allocation of at least [`HUGE_ADVICE_MIN_BYTES`] is advised
    /// for 2 MiB pages before it is zeroed, so zeroing faults it in at
    /// huge pages where the kernel grants them (see the module docs).
    /// Panics if `len` elements of `T` are more bytes than an allocation
    /// can hold.
    pub fn zeroed(len: usize) -> Self {
        let ptr = Self::allocate(len);
        // SAFETY: `allocate` returned room for `len` elements (or a
        // dangling pointer when `len == 0`, where zero bytes are written).
        unsafe { ptr.as_ptr().write_bytes(0, len) };
        Self {
            ptr,
            len,
            _marker: PhantomData,
        }
    }

    /// Allocate with the length rounded up via [`padded_len`]; the logical
    /// prefix is `n`, the tail stays zero forever (harmless in reductions).
    pub fn zeroed_padded(n: usize) -> Self {
        Self::zeroed(padded_len::<T>(n))
    }

    /// Reset every element to `T::default()` (zero for floats).
    pub fn fill_default(&mut self) {
        self.as_mut_slice().fill(T::default());
    }
}

impl<T> AlignedVec<T> {
    /// The allocation of `len` elements, plus the canary line in debug
    /// builds. The byte count is checked: a wrapped product would back a
    /// huge `len` with a tiny allocation.
    fn layout(len: usize) -> Layout {
        len.checked_mul(std::mem::size_of::<T>())
            .and_then(|bytes| {
                #[cfg(debug_assertions)]
                let bytes = bytes.checked_add(CANARY_LEN)?;
                Layout::from_size_align(bytes, CACHE_LINE).ok()
            })
            .expect("AlignedVec layout overflow")
    }

    /// Uninitialized room for `len` elements: a dangling pointer when
    /// `len == 0`; otherwise advised for huge pages when large and, in
    /// debug builds, followed by a filled canary line.
    fn allocate(len: usize) -> NonNull<T> {
        if len == 0 {
            return NonNull::dangling();
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, T sized) and valid
        // power-of-two alignment.
        let Some(ptr) = NonNull::new(unsafe { alloc(layout) }) else {
            handle_alloc_error(layout)
        };
        let raw = ptr.as_ptr();
        if let Some((start, bytes)) = huge_advice_range(raw as usize, layout.size()) {
            advise_huge_pages(raw.wrapping_add(start - raw as usize), bytes);
        }
        #[cfg(debug_assertions)]
        // SAFETY: the layout ends with `CANARY_LEN` bytes after the
        // `len` elements, all inside the allocation just made.
        unsafe {
            raw.add(layout.size() - CANARY_LEN)
                .write_bytes(CANARY_BYTE, CANARY_LEN)
        };
        ptr.cast()
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    /// As slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements for the life of self.
        unsafe { slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    #[inline]
    /// As mut slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len elements; &mut self gives unique
        // access.
        unsafe { slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Base pointer; guaranteed 64-byte aligned when non-empty.
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let layout = Self::layout(self.len);
        #[cfg(debug_assertions)]
        // SAFETY: the last `CANARY_LEN` bytes of the layout lie inside
        // the allocation this value owns, written in `allocate`.
        let canary_intact = unsafe {
            slice::from_raw_parts(
                self.ptr
                    .as_ptr()
                    .cast::<u8>()
                    .add(layout.size() - CANARY_LEN),
                CANARY_LEN,
            )
        }
        .iter()
        .all(|&b| b == CANARY_BYTE);
        // SAFETY: allocated in `allocate` with the identical layout.
        unsafe { dealloc(self.ptr.as_ptr().cast(), layout) }
        // A panic during another unwind would abort: skip the report then.
        #[cfg(debug_assertions)]
        assert!(
            canary_intact || std::thread::panicking(),
            "AlignedVec canary overwritten: a write ran past the last of {} elements",
            self.len
        );
    }
}

/// Copies into a fresh allocation made the way [`AlignedVec::zeroed`]
/// makes one (huge-page advice included) but without zeroing it first,
/// so a large copy, such as copy-on-write of a shared coefficient table,
/// writes each byte once.
impl<T: Copy> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        let ptr = Self::allocate(self.len);
        // SAFETY: both buffers hold `len` elements, `T: Copy`, and a
        // fresh allocation cannot overlap `self`'s.
        unsafe { ptr::copy_nonoverlapping(self.ptr.as_ptr(), ptr.as_ptr(), self.len) };
        Self {
            ptr,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T> Index<usize> for AlignedVec<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }
}

impl<T> IndexMut<usize> for AlignedVec<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.as_mut_slice()[i]
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedVec")
            .field("len", &self.len)
            .field("data", &self.as_slice())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_pointer_is_cache_line_aligned() {
        for len in [1usize, 7, 64, 1000, 4096] {
            let v = AlignedVec::<f32>::zeroed(len);
            assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0, "len={len}");
        }
    }

    #[test]
    fn starts_zeroed_and_is_writable() {
        let mut v = AlignedVec::<f32>::zeroed(130);
        assert!(v.iter().all(|&x| x == 0.0));
        v[129] = 3.5;
        assert_eq!(v[129], 3.5);
        v.fill_default();
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_vec_is_safe() {
        let v = AlignedVec::<f64>::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice().len(), 0);
    }

    #[test]
    fn padded_len_rounds_to_cache_line() {
        // 16 f32 per 64-byte line.
        assert_eq!(padded_len::<f32>(1), 16);
        assert_eq!(padded_len::<f32>(16), 16);
        assert_eq!(padded_len::<f32>(17), 32);
        assert_eq!(padded_len::<f32>(0), 0);
        // 8 f64 per line.
        assert_eq!(padded_len::<f64>(9), 16);
    }

    #[test]
    fn zeroed_padded_pads() {
        let v = AlignedVec::<f32>::zeroed_padded(100);
        assert_eq!(v.len(), 112); // 100 -> 7 lines of 16
    }

    /// `usize::MAX / 4 + 2` f32s are `2^64 + 4` bytes: an unchecked
    /// product wraps to a 4-byte allocation behind a huge length.
    #[test]
    #[should_panic(expected = "AlignedVec layout overflow")]
    fn zeroed_rejects_a_byte_count_past_usize() {
        let _ = AlignedVec::<f32>::zeroed(usize::MAX / 4 + 2);
    }

    #[test]
    #[should_panic(expected = "AlignedVec layout overflow")]
    fn padded_len_rejects_a_count_past_usize() {
        let _ = padded_len::<f32>(usize::MAX - 3);
    }

    #[test]
    fn clone_copies_contents() {
        let mut v = AlignedVec::<f32>::zeroed(32);
        v[3] = 9.0;
        let w = v.clone();
        assert_eq!(w[3], 9.0);
        assert_eq!(w.len(), 32);
        assert_eq!(w.as_ptr() as usize % CACHE_LINE, 0);
    }

    const MIB: usize = 1 << 20;

    #[test]
    fn huge_advice_skips_allocations_under_the_threshold() {
        assert_eq!(huge_advice_range(0, HUGE_ADVICE_MIN_BYTES - 1), None);
        assert_eq!(huge_advice_range(64 * MIB, 31 * MIB), None);
        assert_eq!(huge_advice_range(64 * MIB, 0), None);
    }

    #[test]
    fn huge_advice_covers_an_aligned_allocation_whole() {
        assert_eq!(
            huge_advice_range(64 * MIB, 32 * MIB),
            Some((64 * MIB, 32 * MIB))
        );
        // A ragged tail is left out: only whole huge pages are advised.
        assert_eq!(
            huge_advice_range(64 * MIB, 33 * MIB + 4096),
            Some((64 * MIB, 32 * MIB))
        );
    }

    #[test]
    fn huge_advice_rounds_an_unaligned_start_up() {
        // An mmap'd glibc chunk starts just past a page boundary.
        let addr = 64 * MIB + 4096 + 16;
        let (start, len) = huge_advice_range(addr, 40 * MIB).expect("advised");
        assert_eq!(start, 66 * MIB);
        assert_eq!(len, 38 * MIB);
    }

    #[test]
    fn huge_advice_stays_inside_the_allocation() {
        for addr in [
            0,
            16,
            4096 + 16,
            2 * MIB - 64,
            2 * MIB,
            3 * MIB + 7,
            1 << 40,
        ] {
            for bytes in [32 * MIB, 32 * MIB + 1, 34 * MIB - 1, 136_000_000] {
                let (start, len) = huge_advice_range(addr, bytes).expect("advised");
                assert!(start >= addr, "addr={addr} bytes={bytes}");
                assert!(start + len <= addr + bytes, "addr={addr} bytes={bytes}");
                assert_eq!(start % HUGE_PAGE, 0);
                assert_eq!(len % HUGE_PAGE, 0);
                assert!(len > 0);
            }
        }
        // A range that would wrap past the address space advises nothing.
        assert_eq!(huge_advice_range(usize::MAX - 4 * MIB, 40 * MIB), None);
        assert_eq!(huge_advice_range(usize::MAX - MIB, 40 * MIB), None);
    }

    #[test]
    fn clone_of_a_large_vec_is_a_bit_copy() {
        let mut v = AlignedVec::<f32>::zeroed(HUGE_ADVICE_MIN_BYTES / 4 + 5);
        for (i, x) in v.iter_mut().enumerate().step_by(4099) {
            *x = i as f32 * -0.5;
        }
        let w = v.clone();
        assert_eq!(w.len(), v.len());
        assert_eq!(w.as_ptr() as usize % CACHE_LINE, 0);
        assert!(v
            .iter()
            .zip(w.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// A 40 MiB buffer is zeroed, aligned and, where the kernel offers
    /// transparent huge pages, backed by some: its mappings' summed
    /// `AnonHugePages` in `/proc/self/smaps` is positive.
    #[test]
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn a_large_vec_is_zeroed_aligned_and_backed_by_huge_pages() {
        let v = AlignedVec::<f32>::zeroed(40 * MIB / 4);
        assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0);
        assert!(v.iter().all(|&x| x.to_bits() == 0));

        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        match thp {
            Ok(mode) if !mode.contains("[never]") => {}
            Ok(mode) => {
                eprintln!("skipped: transparent huge pages are off ({})", mode.trim());
                return;
            }
            Err(e) => {
                eprintln!("skipped: no transparent huge page support ({e})");
                return;
            }
        }
        let (lo, hi) = (v.as_ptr() as usize, v.as_ptr() as usize + 40 * MIB);
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("readable smaps");
        let mut overlaps = false;
        let mut huge_kb = 0u64;
        for line in smaps.lines() {
            let mut words = line.split_whitespace();
            let Some(first) = words.next() else { continue };
            if let Some((start, end)) = first.split_once('-') {
                if let (Ok(start), Ok(end)) = (
                    usize::from_str_radix(start, 16),
                    usize::from_str_radix(end, 16),
                ) {
                    overlaps = start < hi && lo < end;
                    continue;
                }
            }
            if overlaps && first == "AnonHugePages:" {
                huge_kb += words
                    .next()
                    .and_then(|kb| kb.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        assert!(huge_kb > 0, "no huge pages back the 40 MiB buffer");
    }

    /// A write one element past the end lands in the canary line, which
    /// is inside the allocation, and is caught on drop.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "AlignedVec canary overwritten")]
    fn a_write_past_the_end_trips_the_canary() {
        let v = AlignedVec::<f32>::zeroed(16);
        // SAFETY: debug builds allocate a canary line after the 16
        // elements, so element 16 is inside the allocation; `as_ptr`
        // carries the whole allocation's provenance.
        unsafe { v.as_ptr().cast_mut().add(v.len()).write(1.0) };
        drop(v);
    }

    #[test]
    fn send_sync_impls_exist() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignedVec<f32>>();
    }
}
