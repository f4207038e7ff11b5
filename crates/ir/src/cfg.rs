//! The control-flow graph: blocks, instructions, terminators.
//!
//! One instruction set serves both pipeline stages:
//!
//! * **Source IR** (produced by [`crate::lower`]) uses only *blocking*
//!   shared operations ([`Instr::GetShared`], [`Instr::PutShared`]) plus
//!   local compute and synchronization.
//! * **Target IR** (produced by `syncopt-codegen`) additionally uses the
//!   split-phase operations `GetInit`/`PutInit`/`StoreInit`/`SyncCtr`,
//!   mirroring Split-C's `get`/`put`/`store`/`sync_ctr` with synchronizing
//!   counters (§6 of the paper).

use crate::access::{AccessInfo, AccessTable};
use crate::expr::{Expr, SharedRef};
use crate::ids::{AccessId, BlockId, Position, VarId};
use crate::vars::VarTable;
use std::fmt;

/// A synchronizing-counter id (Split-C `sync_ctr` counters, §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtrId(pub u32);

impl fmt::Display for CtrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctr{}", self.0)
    }
}

/// An IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Blocking read of a shared location into a local.
    GetShared {
        /// Access-site id.
        access: AccessId,
        /// Destination local.
        dst: VarId,
        /// Shared source location.
        src: SharedRef,
    },
    /// Blocking write of a local-pure value to a shared location.
    PutShared {
        /// Access-site id.
        access: AccessId,
        /// Shared destination location.
        dst: SharedRef,
        /// Value written.
        src: Expr,
    },
    /// Split-phase read initiation (`get_ctr` in Split-C).
    GetInit {
        /// Originating access-site id.
        access: AccessId,
        /// Destination local (undefined until the counter syncs).
        dst: VarId,
        /// Shared source location.
        src: SharedRef,
        /// Synchronizing counter.
        ctr: CtrId,
    },
    /// Split-phase write initiation (`put_ctr` in Split-C).
    PutInit {
        /// Originating access-site id.
        access: AccessId,
        /// Shared destination location.
        dst: SharedRef,
        /// Value written (evaluated at initiation).
        src: Expr,
        /// Synchronizing counter (completes on acknowledgement).
        ctr: CtrId,
    },
    /// One-way write (`store` in Split-C): no acknowledgement; completion is
    /// only guaranteed by the next global barrier.
    StoreInit {
        /// Originating access-site id.
        access: AccessId,
        /// Shared destination location.
        dst: SharedRef,
        /// Value written (evaluated at initiation).
        src: Expr,
    },
    /// Block until every split-phase operation issued on `ctr` completes.
    SyncCtr {
        /// The counter to drain.
        ctr: CtrId,
    },
    /// Pure local assignment `dst = value`.
    AssignLocal {
        /// Destination local scalar.
        dst: VarId,
        /// Local-pure value.
        value: Expr,
    },
    /// Local array element assignment `array[index] = value`.
    AssignLocalElem {
        /// Destination local array.
        array: VarId,
        /// Element index.
        index: Expr,
        /// Local-pure value.
        value: Expr,
    },
    /// Abstract local computation costing `cost` cycles.
    Work {
        /// Cycle cost (local-pure, int-valued).
        cost: Expr,
    },
    /// Signal an event variable.
    Post {
        /// Access-site id.
        access: AccessId,
        /// The flag (or flag array).
        flag: VarId,
        /// Index for flag arrays.
        index: Option<Expr>,
    },
    /// Block until an event variable is posted.
    Wait {
        /// Access-site id.
        access: AccessId,
        /// The flag (or flag array).
        flag: VarId,
        /// Index for flag arrays.
        index: Option<Expr>,
    },
    /// Global barrier. Also drains all outstanding one-way stores
    /// machine-wide (the paper's rule for store completion).
    Barrier {
        /// Access-site id.
        access: AccessId,
    },
    /// Acquire a lock.
    LockAcq {
        /// Access-site id.
        access: AccessId,
        /// The lock variable.
        lock: VarId,
    },
    /// Release a lock.
    LockRel {
        /// Access-site id.
        access: AccessId,
        /// The lock variable.
        lock: VarId,
    },
}

impl Instr {
    /// The access-site id carried by this instruction, if any.
    pub fn access_id(&self) -> Option<AccessId> {
        match self {
            Instr::GetShared { access, .. }
            | Instr::PutShared { access, .. }
            | Instr::GetInit { access, .. }
            | Instr::PutInit { access, .. }
            | Instr::StoreInit { access, .. }
            | Instr::Post { access, .. }
            | Instr::Wait { access, .. }
            | Instr::Barrier { access }
            | Instr::LockAcq { access, .. }
            | Instr::LockRel { access, .. } => Some(*access),
            Instr::SyncCtr { .. }
            | Instr::AssignLocal { .. }
            | Instr::AssignLocalElem { .. }
            | Instr::Work { .. } => None,
        }
    }

    /// The local scalar this instruction defines, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Instr::GetShared { dst, .. }
            | Instr::GetInit { dst, .. }
            | Instr::AssignLocal { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Calls `f` on every expression this instruction evaluates, in
    /// operand order (a shared reference contributes its index).
    /// [`for_each_use`](Instr::for_each_use) lists the same operands on its
    /// own: the optimizer's scans sit on it, and routing it through this
    /// callback read 0.7 % slower on the benchmark's cold compiles.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        fn on_ref(r: &SharedRef, f: &mut impl FnMut(&Expr)) {
            if let Some(idx) = &r.index {
                f(idx);
            }
        }
        match self {
            Instr::GetShared { src, .. } | Instr::GetInit { src, .. } => on_ref(src, f),
            Instr::PutShared { dst, src, .. }
            | Instr::PutInit { dst, src, .. }
            | Instr::StoreInit { dst, src, .. } => {
                on_ref(dst, f);
                f(src);
            }
            Instr::AssignLocal { value, .. } => f(value),
            Instr::AssignLocalElem { index, value, .. } => {
                f(index);
                f(value);
            }
            Instr::Work { cost } => f(cost),
            Instr::Post { index, .. } | Instr::Wait { index, .. } => {
                if let Some(idx) = index {
                    f(idx);
                }
            }
            Instr::SyncCtr { .. }
            | Instr::Barrier { .. }
            | Instr::LockAcq { .. }
            | Instr::LockRel { .. } => {}
        }
    }

    /// Calls `f` on every local variable read by this instruction.
    pub fn for_each_use(&self, f: &mut impl FnMut(VarId)) {
        fn on_ref(r: &SharedRef, f: &mut impl FnMut(VarId)) {
            if let Some(idx) = &r.index {
                idx.for_each_var(f);
            }
        }
        match self {
            Instr::GetShared { src, .. } => on_ref(src, f),
            Instr::GetInit { src, .. } => on_ref(src, f),
            Instr::PutShared { dst, src, .. }
            | Instr::PutInit { dst, src, .. }
            | Instr::StoreInit { dst, src, .. } => {
                on_ref(dst, f);
                src.for_each_var(f);
            }
            Instr::AssignLocal { value, .. } => value.for_each_var(f),
            Instr::AssignLocalElem {
                array,
                index,
                value,
            } => {
                f(*array);
                index.for_each_var(f);
                value.for_each_var(f);
            }
            Instr::Work { cost } => cost.for_each_var(f),
            Instr::Post { index, .. } | Instr::Wait { index, .. } => {
                if let Some(idx) = index {
                    idx.for_each_var(f);
                }
            }
            Instr::SyncCtr { .. }
            | Instr::Barrier { .. }
            | Instr::LockAcq { .. }
            | Instr::LockRel { .. } => {}
        }
    }

    /// The local array this instruction writes, if any (treated as a single
    /// conservative definition).
    pub fn array_def(&self) -> Option<VarId> {
        match self {
            Instr::AssignLocalElem { array, .. } => Some(*array),
            _ => None,
        }
    }
}

/// How a block transfers control.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way conditional branch on a local-pure boolean.
    Branch {
        /// Branch condition.
        cond: Expr,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Program exit (only the exit block carries this).
    Return,
}

/// The successors of one block, in terminator order: at most two, held
/// inline. Reads as a slice (`len`, indexing, `iter`) and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    ids: [BlockId; 2],
    len: u8,
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(usize::from(self.len))
    }
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Successors {
        let (ids, len) = match self {
            Terminator::Goto(b) => ([*b, *b], 1),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => ([*then_bb, *else_bb], 2),
            Terminator::Return => ([BlockId(0); 2], 0),
        };
        Successors { ids, len }
    }
}

/// The predecessors of every block in one flat list: block `b`'s are
/// `blocks[start[b]..start[b + 1]]`, in order of source block id and, for
/// one source, terminator order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predecessors {
    start: Vec<u32>,
    blocks: Vec<BlockId>,
}

impl Predecessors {
    /// The blocks with an edge into `b`.
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self.blocks[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `term`.
    pub fn new(term: Terminator) -> Self {
        Block {
            instrs: Vec::new(),
            term,
        }
    }
}

/// A whole-program control-flow graph (SPMD: one CFG for all processors).
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The unique entry block.
    pub entry: BlockId,
    /// The unique exit block (terminated by `Return`).
    pub exit: BlockId,
    /// Program variables.
    pub vars: VarTable,
    /// Access sites (shared data + synchronization operations).
    pub accesses: AccessTable,
    /// Number of synchronizing counters allocated so far (target IR only).
    pub num_ctrs: u32,
}

impl Cfg {
    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable block lookup.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::from_index)
    }

    /// Successors of `id`.
    pub fn successors(&self, id: BlockId) -> Successors {
        self.block(id).term.successors()
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Predecessors {
        let nb = self.blocks.len();
        let mut start = vec![0u32; nb + 1];
        for block in &self.blocks {
            for succ in block.term.successors() {
                start[succ.index() + 1] += 1;
            }
        }
        for b in 0..nb {
            start[b + 1] += start[b];
        }
        // `start[b]` doubles as block `b`'s fill cursor, which leaves every
        // entry one block ahead: shifted back below.
        let mut blocks = vec![BlockId(0); start[nb] as usize];
        for id in self.block_ids() {
            for succ in self.successors(id) {
                blocks[start[succ.index()] as usize] = id;
                start[succ.index()] += 1;
            }
        }
        start.copy_within(0..nb, 1);
        start[0] = 0;
        Predecessors { start, blocks }
    }

    /// Blocks in reverse postorder from the entry (unreachable blocks are
    /// appended at the end in index order).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS computing postorder.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (block, ref mut next)) = stack.last_mut() {
            if let Some(&s) = self.block(block).term.successors().get(*next) {
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(block);
                stack.pop();
            }
        }
        post.reverse();
        for id in self.block_ids() {
            if !visited[id.index()] {
                post.push(id);
            }
        }
        post
    }

    /// Fresh synchronizing counter (target IR).
    pub fn fresh_ctr(&mut self) -> CtrId {
        let id = CtrId(self.num_ctrs);
        self.num_ctrs += 1;
        id
    }

    /// Rewrites every access's recorded [`Position`] by scanning the CFG.
    ///
    /// Must be called after any transformation that moves instructions.
    ///
    /// # Panics
    ///
    /// Panics if some access id appears more than once in the CFG.
    pub fn recompute_access_positions(&mut self) {
        let mut seen = vec![false; self.accesses.len()];
        for (bi, block) in self.blocks.iter().enumerate() {
            let id = BlockId::from_index(bi);
            for (i, instr) in block.instrs.iter().enumerate() {
                if let Some(acc) = instr.access_id() {
                    assert!(
                        !std::mem::replace(&mut seen[acc.index()], true),
                        "access {acc} appears more than once in the CFG"
                    );
                    self.accesses.info_mut(acc).pos = Position::new(id, i);
                }
            }
        }
    }

    /// The instruction carrying access `id`, if it is still present.
    pub fn instr_for_access(&self, id: AccessId) -> Option<&Instr> {
        let pos = self.accesses.info(id).pos;
        let block = self.blocks.get(pos.block.index())?;
        let instr = block.instrs.get(pos.instr)?;
        (instr.access_id() == Some(id)).then_some(instr)
    }

    /// Structural sanity checks; used by tests and debug assertions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found: a terminator
    /// target out of range, a non-exit block with `Return`, or an exit block
    /// without `Return`.
    pub fn validate(&self) -> Result<(), String> {
        if self.entry.index() >= self.blocks.len() {
            return Err(format!("entry {} out of range", self.entry));
        }
        if self.exit.index() >= self.blocks.len() {
            return Err(format!("exit {} out of range", self.exit));
        }
        for id in self.block_ids() {
            for succ in self.successors(id) {
                if succ.index() >= self.blocks.len() {
                    return Err(format!("block {id} jumps to out-of-range {succ}"));
                }
            }
            let is_return = matches!(self.block(id).term, Terminator::Return);
            if is_return && id != self.exit {
                return Err(format!("non-exit block {id} has Return terminator"));
            }
        }
        if !matches!(self.block(self.exit).term, Terminator::Return) {
            return Err("exit block does not end in Return".to_string());
        }
        Ok(())
    }

    /// Shortest block path from `from` to `to` in which every block
    /// except the final `to` satisfies `!avoid` (the destination is
    /// exempt so callers can ask "can I *reach* `to` without crossing
    /// a flagged block first?").
    ///
    /// The search is a breadth-first walk expanding successors in
    /// terminator order, so the returned path is deterministic. Both
    /// endpoints are included; `from == to` yields the singleton path.
    /// Returns `None` when every route is blocked.
    pub fn block_path_avoiding(
        &self,
        from: BlockId,
        to: BlockId,
        avoid: &dyn Fn(BlockId) -> bool,
    ) -> Option<Vec<BlockId>> {
        if from == to {
            return Some(vec![from]);
        }
        if avoid(from) {
            return None;
        }
        let mut parent: Vec<Option<BlockId>> = vec![None; self.blocks.len()];
        let mut visited = vec![false; self.blocks.len()];
        visited[from.index()] = true;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(block) = queue.pop_front() {
            for succ in self.successors(block) {
                if visited[succ.index()] {
                    continue;
                }
                visited[succ.index()] = true;
                parent[succ.index()] = Some(block);
                if succ == to {
                    let mut path = vec![to];
                    let mut cur = block;
                    loop {
                        path.push(cur);
                        if cur == from {
                            break;
                        }
                        cur = parent[cur.index()].expect("parent chain reaches `from`");
                    }
                    path.reverse();
                    return Some(path);
                }
                if !avoid(succ) {
                    queue.push_back(succ);
                }
            }
        }
        None
    }

    /// Adds an access record and returns its id (used by lowering).
    pub fn add_access(&mut self, info: AccessInfo) -> AccessId {
        self.accesses.push(info)
    }

    /// Total number of instructions across all blocks.
    pub fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cfg {
        // bb0 -> bb1, bb2; bb1 -> bb3; bb2 -> bb3; bb3 = exit.
        let blocks = vec![
            Block::new(Terminator::Branch {
                cond: Expr::Bool(true),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }),
            Block::new(Terminator::Goto(BlockId(3))),
            Block::new(Terminator::Goto(BlockId(3))),
            Block::new(Terminator::Return),
        ];
        Cfg {
            blocks,
            entry: BlockId(0),
            exit: BlockId(3),
            vars: VarTable::new(),
            accesses: AccessTable::new(),
            num_ctrs: 0,
        }
    }

    #[test]
    fn successors_and_predecessors() {
        let cfg = diamond();
        assert_eq!(*cfg.successors(BlockId(0)), [BlockId(1), BlockId(2)]);
        assert_eq!(*cfg.successors(BlockId(1)), [BlockId(3)]);
        assert!(cfg.successors(BlockId(3)).is_empty());
        let collected: Vec<BlockId> = cfg.successors(BlockId(0)).into_iter().collect();
        assert_eq!(collected, vec![BlockId(1), BlockId(2)]);
        let preds = cfg.predecessors();
        assert_eq!(preds.of(BlockId(3)), [BlockId(1), BlockId(2)]);
        assert_eq!(preds.of(BlockId(1)), [BlockId(0)]);
        assert!(preds.of(BlockId(0)).is_empty());
    }

    #[test]
    fn reverse_postorder_starts_at_entry_ends_at_exit() {
        let cfg = diamond();
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(*rpo.last().unwrap(), BlockId(3));
    }

    #[test]
    fn validate_accepts_diamond() {
        diamond().validate().unwrap();
    }

    #[test]
    fn validate_rejects_misplaced_return() {
        let mut cfg = diamond();
        cfg.block_mut(BlockId(1)).term = Terminator::Return;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut cfg = diamond();
        cfg.block_mut(BlockId(1)).term = Terminator::Goto(BlockId(99));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn block_path_avoiding_picks_unblocked_branch() {
        let cfg = diamond();
        // Both arms open: BFS takes the first (then) arm.
        let none = |_: BlockId| false;
        assert_eq!(
            cfg.block_path_avoiding(BlockId(0), BlockId(3), &none),
            Some(vec![BlockId(0), BlockId(1), BlockId(3)])
        );
        // Blocking bb1 forces the else arm.
        let no_bb1 = |b: BlockId| b == BlockId(1);
        assert_eq!(
            cfg.block_path_avoiding(BlockId(0), BlockId(3), &no_bb1),
            Some(vec![BlockId(0), BlockId(2), BlockId(3)])
        );
        // Blocking both arms leaves no route.
        let no_arms = |b: BlockId| b == BlockId(1) || b == BlockId(2);
        assert_eq!(
            cfg.block_path_avoiding(BlockId(0), BlockId(3), &no_arms),
            None
        );
    }

    #[test]
    fn block_path_avoiding_exempts_endpoints_correctly() {
        let cfg = diamond();
        // The destination is exempt from `avoid`...
        let no_exit = |b: BlockId| b == BlockId(3);
        assert!(cfg
            .block_path_avoiding(BlockId(0), BlockId(3), &no_exit)
            .is_some());
        // ...but the source is not.
        let no_entry = |b: BlockId| b == BlockId(0);
        assert_eq!(
            cfg.block_path_avoiding(BlockId(0), BlockId(3), &no_entry),
            None
        );
        // from == to is the singleton path even when avoided.
        assert_eq!(
            cfg.block_path_avoiding(BlockId(3), BlockId(3), &no_exit),
            Some(vec![BlockId(3)])
        );
        // No route against the edges.
        assert_eq!(
            cfg.block_path_avoiding(BlockId(3), BlockId(0), &|_| false),
            None
        );
    }

    #[test]
    fn fresh_ctrs_are_unique() {
        let mut cfg = diamond();
        let a = cfg.fresh_ctr();
        let b = cfg.fresh_ctr();
        assert_ne!(a, b);
        assert_eq!(cfg.num_ctrs, 2);
    }

    #[test]
    fn instr_accessors() {
        let i = Instr::AssignLocal {
            dst: VarId(4),
            value: Expr::Local(VarId(5)),
        };
        assert_eq!(i.def(), Some(VarId(4)));
        assert_eq!(i.access_id(), None);
        let mut uses = Vec::new();
        i.for_each_use(&mut |v| uses.push(v));
        assert_eq!(uses, vec![VarId(5)]);
    }
}
