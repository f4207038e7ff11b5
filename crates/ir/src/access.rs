//! The access table: every shared-memory operation and synchronization
//! operation in the program, with its kind, target, and position.
//!
//! Access sites are the nodes of the paper's `P ∪ C` graph. Synchronization
//! operations are accesses too — Shasha & Snir treat them as conflicting
//! accesses, and §5 of the paper additionally exploits their semantics.

use crate::expr::Expr;
use crate::ids::{AccessId, Position, VarId};
use syncopt_frontend::span::Span;

/// What an access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read of a shared scalar or distributed array element.
    Read,
    /// Write of a shared scalar or distributed array element.
    Write,
    /// `post f` — signal an event.
    Post,
    /// `wait f` — block on an event.
    Wait,
    /// `barrier` — global synchronization.
    Barrier,
    /// `lock l` — acquire.
    LockAcq,
    /// `unlock l` — release.
    LockRel,
}

impl AccessKind {
    /// Whether this is a plain data access (read or write).
    pub fn is_data(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Write)
    }

    /// Whether this is a synchronization operation.
    pub fn is_sync(self) -> bool {
        !self.is_data()
    }
}

/// Everything known about one access site.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessInfo {
    /// What the access does.
    pub kind: AccessKind,
    /// The accessed variable; `None` for barriers (which name no variable).
    pub var: Option<VarId>,
    /// The index expression for array / flag-array accesses.
    pub index: Option<Expr>,
    /// Where the access sits in the CFG (kept in sync by
    /// [`crate::cfg::Cfg::recompute_access_positions`]).
    pub pos: Position,
    /// Originating source span.
    pub span: Span,
}

/// Append-only table of access sites, indexed by [`AccessId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessTable {
    accesses: Vec<AccessInfo>,
}

impl AccessTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AccessTable::default()
    }

    /// Adds an access, returning its id.
    pub fn push(&mut self, info: AccessInfo) -> AccessId {
        let id = AccessId::from_index(self.accesses.len());
        self.accesses.push(info);
        id
    }

    /// Looks up an access.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn info(&self, id: AccessId) -> &AccessInfo {
        &self.accesses[id.index()]
    }

    /// Mutable lookup (used when positions are recomputed).
    pub fn info_mut(&mut self, id: AccessId) -> &mut AccessInfo {
        &mut self.accesses[id.index()]
    }

    /// Number of accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterates over `(id, info)` pairs.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (AccessId, &AccessInfo)> {
        self.accesses
            .iter()
            .enumerate()
            .map(|(i, a)| (AccessId::from_index(i), a))
    }

    /// All access ids.
    #[inline]
    pub fn ids(&self) -> impl Iterator<Item = AccessId> {
        (0..self.accesses.len()).map(AccessId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BlockId;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Read.is_data());
        assert!(AccessKind::Write.is_data());
        for k in [
            AccessKind::Post,
            AccessKind::Wait,
            AccessKind::Barrier,
            AccessKind::LockAcq,
            AccessKind::LockRel,
        ] {
            assert!(k.is_sync());
            assert!(!k.is_data());
        }
    }

    #[test]
    fn push_and_iter() {
        let mut t = AccessTable::new();
        let id = t.push(AccessInfo {
            kind: AccessKind::Write,
            var: Some(VarId(0)),
            index: None,
            pos: Position::new(BlockId(0), 0),
            span: Span::dummy(),
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.info(id).kind, AccessKind::Write);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![id]);
    }
}
