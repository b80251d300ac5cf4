//! The region-based far-memory allocator.
//!
//! §3.1/§3.2 of the paper: TrackFM replaces libc `malloc` with an allocator
//! that hands out non-canonical pointers from the far heap, "leverag[ing]
//! AIFM's region-based allocator under the covers". Two placement rules from
//! §3.2 matter for I/O amplification:
//!
//! * "A single memory allocation can span multiple objects" — large
//!   allocations are aligned to object boundaries so their chunking is
//!   predictable;
//! * "smaller allocations are grouped into a single object" — a small
//!   allocation never straddles an object boundary, so touching it localizes
//!   exactly one object.

use crate::ptr::TfmPtr;
use std::collections::HashMap;

/// Allocation failure.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// The far heap is exhausted.
    OutOfMemory,
    /// Zero-sized allocation request.
    ZeroSize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "far heap exhausted"),
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

const MIN_ALIGN: u64 = 16;

/// Region allocator over the far-heap offset space `[0, heap_size)`.
#[derive(Clone, Debug)]
pub struct RegionAllocator {
    heap_size: u64,
    obj_size: u64,
    bump: u64,
    /// Size-class free lists: rounded size → offsets.
    free_lists: HashMap<u64, Vec<u64>>,
    /// Live allocation sizes (rounded), keyed by offset.
    live: HashMap<u64, u64>,
    allocated_bytes: u64,
    peak_bytes: u64,
}

impl RegionAllocator {
    /// Creates an allocator over a heap of `heap_size` bytes chunked into
    /// `obj_size`-byte objects.
    ///
    /// # Panics
    /// Panics if `obj_size` is not a power of two or `heap_size` is not a
    /// multiple of `obj_size`.
    pub fn new(heap_size: u64, obj_size: u64) -> Self {
        assert!(obj_size.is_power_of_two(), "object size must be 2^k");
        assert!(
            heap_size.is_multiple_of(obj_size),
            "heap size must be a multiple of the object size"
        );
        RegionAllocator {
            heap_size,
            obj_size,
            bump: 0,
            free_lists: HashMap::new(),
            live: HashMap::new(),
            allocated_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn round_size(&self, size: u64) -> u64 {
        let r = size.max(1).next_multiple_of(MIN_ALIGN);
        if r >= self.obj_size {
            r.next_multiple_of(self.obj_size)
        } else {
            // Round small sizes to the next power of two so free-list reuse
            // is exact-fit per class.
            r.next_power_of_two()
        }
    }

    /// Allocates `size` bytes, returning a TrackFM pointer.
    ///
    /// # Errors
    /// [`AllocError::ZeroSize`] for `size == 0`;
    /// [`AllocError::OutOfMemory`] when the heap is exhausted.
    pub fn alloc(&mut self, size: u64) -> Result<TfmPtr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let rounded = self.round_size(size);
        // Exact-fit reuse first.
        if let Some(list) = self.free_lists.get_mut(&rounded) {
            if let Some(off) = list.pop() {
                self.live.insert(off, rounded);
                self.allocated_bytes += rounded;
                self.peak_bytes = self.peak_bytes.max(self.allocated_bytes);
                return Ok(TfmPtr::from_offset(off));
            }
        }
        // Bump allocation with the two placement rules.
        let off = if rounded >= self.obj_size {
            self.bump.next_multiple_of(self.obj_size)
        } else {
            let candidate = self.bump.next_multiple_of(MIN_ALIGN);
            let obj_of = |o: u64| o / self.obj_size;
            if obj_of(candidate) != obj_of(candidate + rounded - 1) {
                // Would straddle an object boundary: skip to the next object.
                candidate.next_multiple_of(self.obj_size)
            } else {
                candidate
            }
        };
        if off + rounded > self.heap_size {
            return Err(AllocError::OutOfMemory);
        }
        self.bump = off + rounded;
        self.live.insert(off, rounded);
        self.allocated_bytes += rounded;
        self.peak_bytes = self.peak_bytes.max(self.allocated_bytes);
        Ok(TfmPtr::from_offset(off))
    }

    /// Frees an allocation previously returned by [`RegionAllocator::alloc`].
    /// Returns the rounded size that was released.
    ///
    /// # Panics
    /// Panics on double-free or on a pointer that was never allocated
    /// (matching glibc's abort-on-invalid-free behaviour).
    pub fn free(&mut self, ptr: TfmPtr) -> u64 {
        let off = ptr.offset();
        let size = self
            .live
            .remove(&off)
            .unwrap_or_else(|| panic!("invalid or double free of {ptr}"));
        self.allocated_bytes -= size;
        self.free_lists.entry(size).or_default().push(off);
        size
    }

    /// The rounded size of a live allocation, if `ptr` is its base.
    pub fn size_of(&self, ptr: TfmPtr) -> Option<u64> {
        self.live.get(&ptr.offset()).copied()
    }

    /// Bytes currently allocated (rounded sizes).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// The object size the allocator aligns large allocations to.
    pub fn obj_size(&self) -> u64 {
        self.obj_size
    }

    /// Total heap capacity in bytes.
    pub fn heap_size(&self) -> u64 {
        self.heap_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_alloc() -> RegionAllocator {
        RegionAllocator::new(1 << 20, 4096)
    }

    #[test]
    fn large_allocations_are_object_aligned() {
        let mut a = new_alloc();
        let small = a.alloc(100).unwrap();
        let big = a.alloc(10_000).unwrap();
        assert_eq!(small.offset(), 0);
        assert_eq!(big.offset() % 4096, 0);
        assert!(big.offset() >= 4096);
        // Rounded up to whole objects: 10_000 → 12_288.
        assert_eq!(a.size_of(big), Some(12_288));
    }

    #[test]
    fn small_allocations_never_straddle_objects() {
        let mut a = RegionAllocator::new(1 << 20, 256);
        let mut offs = Vec::new();
        for _ in 0..100 {
            let p = a.alloc(96).unwrap(); // rounds to 128
            let off = p.offset();
            assert_eq!(off / 256, (off + 127) / 256, "straddles object: {off}");
            offs.push(off);
        }
        // All distinct.
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 100);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = new_alloc();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for size in [1u64, 16, 17, 100, 4096, 5000, 64, 8, 12_000] {
            let p = a.alloc(size).unwrap();
            let r = (p.offset(), p.offset() + a.size_of(p).unwrap());
            for &(s, e) in &ranges {
                assert!(r.1 <= s || r.0 >= e, "overlap {r:?} vs ({s},{e})");
            }
            ranges.push(r);
        }
    }

    #[test]
    fn free_enables_exact_fit_reuse() {
        let mut a = new_alloc();
        let p = a.alloc(64).unwrap();
        let off = p.offset();
        assert_eq!(a.free(p), 64);
        let q = a.alloc(64).unwrap();
        assert_eq!(q.offset(), off, "freed slot should be reused");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = new_alloc();
        let p = a.alloc(64).unwrap();
        a.free(p);
        a.free(p);
    }

    #[test]
    fn zero_size_and_oom() {
        let mut a = RegionAllocator::new(8192, 4096);
        assert_eq!(a.alloc(0), Err(AllocError::ZeroSize));
        let _ = a.alloc(4096).unwrap();
        let _ = a.alloc(4096).unwrap();
        assert_eq!(a.alloc(1), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn accounting_tracks_peak() {
        let mut a = new_alloc();
        let p = a.alloc(4096).unwrap();
        let q = a.alloc(4096).unwrap();
        assert_eq!(a.allocated_bytes(), 8192);
        a.free(p);
        assert_eq!(a.allocated_bytes(), 4096);
        assert_eq!(a.peak_bytes(), 8192);
        a.free(q);
        assert_eq!(a.allocated_bytes(), 0);
    }
}
