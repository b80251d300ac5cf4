//! The scalar type system.
//!
//! TrackFM only needs enough typing to know access widths (for guard
//! granularity and object-density computation) and integer/float semantics, so
//! the type lattice is flat: fixed-width integers, one float type, and an
//! opaque pointer type — the same simplification LLVM made with opaque
//! pointers.

use std::fmt;

/// A first-class scalar type.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 64-bit IEEE-754 float.
    F64,
    /// Opaque pointer (64-bit).
    Ptr,
}

spelled! {
    Type,
    /// The type's name in the text format.
    fn name {
        I8 => "i8",
        I16 => "i16",
        I32 => "i32",
        I64 => "i64",
        F64 => "f64",
        Ptr => "ptr",
    }
}

impl Type {
    /// Size of a value of this type in bytes.
    ///
    /// ```
    /// # use tfm_ir::Type;
    /// assert_eq!(Type::I32.size(), 4);
    /// assert_eq!(Type::Ptr.size(), 8);
    /// ```
    #[inline]
    pub fn size(self) -> u32 {
        match self {
            Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 => 4,
            Type::I64 | Type::F64 | Type::Ptr => 8,
        }
    }

    /// Natural alignment in bytes (equal to size for all scalar types).
    #[inline]
    pub fn align(self) -> u32 {
        self.size()
    }

    /// True for the integer types (`i8`/`i16`/`i32`/`i64`).
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(self, Type::I8 | Type::I16 | Type::I32 | Type::I64)
    }

    /// True for `f64`.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Type::F64)
    }

    /// True for `ptr`.
    #[inline]
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr)
    }

    /// Number of value bits (used to truncate integer results).
    #[inline]
    pub fn bits(self) -> u32 {
        self.size() * 8
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_alignment() {
        for (ty, sz) in [
            (Type::I8, 1),
            (Type::I16, 2),
            (Type::I32, 4),
            (Type::I64, 8),
            (Type::F64, 8),
            (Type::Ptr, 8),
        ] {
            assert_eq!(ty.size(), sz);
            assert_eq!(ty.align(), sz);
            assert_eq!(ty.bits(), sz * 8);
        }
    }

    #[test]
    fn classification() {
        assert!(Type::I8.is_int());
        assert!(Type::I64.is_int());
        assert!(!Type::F64.is_int());
        assert!(Type::F64.is_float());
        assert!(Type::Ptr.is_ptr());
        assert!(!Type::Ptr.is_int());
    }

    #[test]
    fn display_names() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::F64.to_string(), "f64");
        assert_eq!(Type::Ptr.to_string(), "ptr");
    }
}
