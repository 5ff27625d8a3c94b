//! Cache-line aligned, padded storage for spline tables and SoA outputs.
//!
//! The paper aligns every coefficient line `P[i][j][k]` and every output
//! stream to a 512-bit boundary so vector loads/stores never split cache
//! lines, and pads the spline dimension so the innermost loop has an exact
//! vector trip count. [`AlignedVec`] provides both: a `Vec`-like buffer
//! whose base pointer is 64-byte aligned.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::ptr::NonNull;
use std::slice;

/// Alignment (bytes) of every allocation: one x86 cache line / 512-bit
/// vector register.
pub const CACHE_LINE: usize = 64;

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
    /// Panics if `len` elements of `T` are more bytes than an allocation
    /// can hold.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len: 0,
                _marker: PhantomData,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0, T sized) and valid
        // power-of-two alignment.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout)
        };
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
    /// The allocation of `len` elements. The byte count is checked: a
    /// wrapped product would back a huge `len` with a tiny allocation.
    fn layout(len: usize) -> Layout {
        len.checked_mul(std::mem::size_of::<T>())
            .and_then(|bytes| Layout::from_size_align(bytes, CACHE_LINE).ok())
            .expect("AlignedVec layout overflow")
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
        if self.len != 0 {
            // SAFETY: allocated in `zeroed` with the identical layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) }
        }
    }
}

impl<T: Copy + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len);
        out.as_mut_slice().copy_from_slice(self.as_slice());
        out
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

    #[test]
    fn send_sync_impls_exist() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignedVec<f32>>();
    }
}
