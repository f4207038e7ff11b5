//! Newtype indices used throughout the IR.

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index for table lookups.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an id from a table index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect("id index overflow"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a basic block within a [`crate::cfg::Cfg`].
    BlockId,
    "bb"
);
define_id!(
    /// Identifies a program variable in a [`crate::vars::VarTable`].
    VarId,
    "v"
);
define_id!(
    /// Identifies a shared-memory access or synchronization operation site.
    ///
    /// Access ids are the nodes of the paper's `P ∪ C` graph: every
    /// `GetShared`/`PutShared` and every `post`/`wait`/`barrier`/
    /// `lock`/`unlock` instruction has exactly one.
    AccessId,
    "a"
);

/// A precise instruction position: block plus index within the block.
///
/// The terminator is addressed by `instr == block.instrs.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Containing block.
    pub block: BlockId,
    /// Index into the block's instruction list.
    pub instr: usize,
}

impl Position {
    /// Creates a position.
    pub fn new(block: BlockId, instr: usize) -> Self {
        Position { block, instr }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.block, self.instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_index() {
        let b = BlockId::from_index(7);
        assert_eq!(b.index(), 7);
        assert_eq!(b.to_string(), "bb7");
        assert_eq!(format!("{b:?}"), "bb7");
        assert_eq!(VarId::from_index(3).to_string(), "v3");
        assert_eq!(AccessId::from_index(0).to_string(), "a0");
    }

    #[test]
    fn positions_order_lexicographically() {
        let a = Position::new(BlockId(1), 5);
        let b = Position::new(BlockId(1), 6);
        let c = Position::new(BlockId(2), 0);
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "bb1[5]");
    }
}
