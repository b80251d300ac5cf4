//! Entity references: stable, copyable ids for IR objects.

use std::fmt;

macro_rules! entity {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the entity's arena index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an entity reference from an arena index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in `u32`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("entity index overflow"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                crate::printer::number(f, $prefix, self.0.into())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }
    };
}

entity! {
    /// An SSA value: the result of an instruction (parameters are
    /// materialized as [`crate::InstKind::Param`] instructions in the entry
    /// block, so every value is an instruction id).
    Value, "%"
}

entity! {
    /// A basic block within a [`crate::Function`].
    Block, "bb"
}

entity! {
    /// A function within a [`crate::Module`].
    FuncId, "@f"
}

entity! {
    /// A global data object within a [`crate::Module`].
    GlobalId, "@g"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_roundtrip() {
        let v = Value::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.to_string(), "%42");
        let b = Block::from_index(3);
        assert_eq!(b.to_string(), "bb3");
        let f = FuncId::from_index(0);
        assert_eq!(f.to_string(), "@f0");
        let g = GlobalId::from_index(7);
        assert_eq!(g.to_string(), "@g7");
    }

    #[test]
    fn entity_ordering_follows_index() {
        assert!(Value(1) < Value(2));
        assert_eq!(Value(5), Value(5));
    }
}
