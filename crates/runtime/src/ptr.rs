//! TrackFM pointers and object ids.
//!
//! §3.1 of the paper: TrackFM distinguishes managed pointers from everything
//! else "by overloading the higher-order bits of the address. In particular,
//! it leverages x86 non-canonical addresses. The 60th bit of the address is
//! used to flag a pointer as a TrackFM pointer." Allocations start at address
//! 2^60; the object corresponding to a pointer "can be derived by dividing
//! the TrackFM pointer by the object size (a right shift for powers of two)".

use std::fmt;

/// The non-canonical tag bit (bit 60).
pub const TFM_BIT: u64 = 1 << 60;

/// Mask extracting the far-heap byte offset from a TrackFM pointer.
pub const OFFSET_MASK: u64 = TFM_BIT - 1;

/// A TrackFM-managed (non-canonical) pointer.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TfmPtr(pub u64);

impl TfmPtr {
    /// Builds a TrackFM pointer from a far-heap byte offset.
    #[inline]
    pub fn from_offset(offset: u64) -> Self {
        debug_assert!(offset <= OFFSET_MASK);
        TfmPtr(TFM_BIT | offset)
    }

    /// The custody check (Fig. 4, line 0): is this raw address a TrackFM
    /// pointer?
    #[inline]
    pub fn is_tfm(raw: u64) -> bool {
        raw & TFM_BIT != 0
    }

    /// The far-heap byte offset this pointer refers to.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// The raw (non-canonical) address.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The object this pointer falls into, for a given object-size shift.
    #[inline]
    pub fn object(self, log2_obj_size: u32) -> ObjId {
        ObjId(self.offset() >> log2_obj_size)
    }
}

impl fmt::Debug for TfmPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TfmPtr({:#x})", self.0)
    }
}

impl fmt::Display for TfmPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// An index into the object state table.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ObjId(pub u64);

impl ObjId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_bit_is_bit_60() {
        assert_eq!(TFM_BIT, 0x1000_0000_0000_0000);
        let p = TfmPtr::from_offset(0x1234);
        assert!(TfmPtr::is_tfm(p.raw()));
        assert!(!TfmPtr::is_tfm(0x7fff_0000_1234));
        assert_eq!(p.offset(), 0x1234);
    }

    #[test]
    fn object_id_is_offset_shift() {
        // 4 KiB objects → shift 12.
        let p = TfmPtr::from_offset(3 * 4096 + 17);
        assert_eq!(p.object(12), ObjId(3));
        // 64 B objects → shift 6.
        assert_eq!(p.object(6), ObjId((3 * 4096 + 17) / 64));
    }

    #[test]
    fn pointer_arithmetic_preserves_tag() {
        // §3.2: offset math must keep the non-canonical bits intact.
        let p = TfmPtr::from_offset(1000);
        let q = TfmPtr(p.raw() + 24);
        assert!(TfmPtr::is_tfm(q.raw()));
        assert_eq!(q.offset(), 1024);
        assert_eq!(q.object(10), ObjId(1));
    }

    #[test]
    fn display_formats() {
        let p = TfmPtr::from_offset(0x40);
        assert_eq!(format!("{p}"), "0x1000000000000040");
        assert_eq!(format!("{:?}", p), "TfmPtr(0x1000000000000040)");
        assert_eq!(ObjId(7).to_string(), "obj#7");
    }
}
