//! The program variable table.

use crate::ids::VarId;
use syncopt_frontend::ast::Type;

/// How a variable lives in the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// A scalar in the global address space (one copy, on its home node).
    SharedScalar,
    /// A distributed array with `len` elements, block-distributed.
    SharedArray {
        /// Number of elements.
        len: u64,
    },
    /// An event variable for `post`/`wait`.
    Flag,
    /// An array of `len` event variables.
    FlagArray {
        /// Number of flags.
        len: u64,
    },
    /// A mutual-exclusion variable.
    Lock,
    /// A per-processor local scalar (includes compiler temporaries).
    Local,
    /// A per-processor local array with `len` elements.
    LocalArray {
        /// Number of elements.
        len: u64,
    },
}

impl VarKind {
    /// Whether this is a synchronization object.
    pub fn is_sync(self) -> bool {
        matches!(
            self,
            VarKind::Flag | VarKind::FlagArray { .. } | VarKind::Lock
        )
    }
}

/// Everything known about one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Source-level name (compiler temporaries start with `%`).
    pub name: String,
    /// Storage classification.
    pub kind: VarKind,
    /// Element type.
    pub ty: Type,
}

/// An append-only table of variables, indexed by [`VarId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarTable {
    vars: Vec<VarInfo>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Adds a variable, returning its id.
    pub fn push(&mut self, info: VarInfo) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars.push(info);
        id
    }

    /// Looks up a variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are only minted by `push`).
    #[inline]
    pub fn info(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Finds a variable by name.
    pub fn by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(VarId::from_index)
    }

    /// Number of variables.
    #[inline]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId::from_index(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> VarTable {
        let mut t = VarTable::new();
        t.push(VarInfo {
            name: "X".into(),
            kind: VarKind::SharedScalar,
            ty: Type::Int,
        });
        t.push(VarInfo {
            name: "A".into(),
            kind: VarKind::SharedArray { len: 16 },
            ty: Type::Double,
        });
        t.push(VarInfo {
            name: "i".into(),
            kind: VarKind::Local,
            ty: Type::Int,
        });
        t
    }

    #[test]
    fn push_and_lookup() {
        let t = table();
        assert_eq!(t.len(), 3);
        let a = t.by_name("A").unwrap();
        assert_eq!(t.info(a).kind, VarKind::SharedArray { len: 16 });
        assert!(t.by_name("missing").is_none());
    }

    #[test]
    fn kind_predicates() {
        assert!(VarKind::Flag.is_sync());
        assert!(VarKind::Lock.is_sync());
        assert!(!VarKind::Local.is_sync());
        assert!(!VarKind::SharedScalar.is_sync());
    }

    #[test]
    fn iter_yields_in_order() {
        let t = table();
        let names: Vec<&str> = t.iter().map(|(_, v)| v.name.as_str()).collect();
        assert_eq!(names, ["X", "A", "i"]);
    }
}
