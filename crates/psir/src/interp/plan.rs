//! Precompiled per-function execution plans for the interpreter.
//!
//! The interpreter is this reproduction's stand-in for AVX-512 hardware:
//! every Figure 4/5 cycle count comes from dynamically executing vector IR
//! through it. Executed step by step (as `Engine::Reference` does), every
//! dynamic instruction pays for work that is really a *static* property of
//! the function being run:
//!
//! 1. **Costing** — `CostModel::inst_cost` legalizes the instruction into
//!    micro-ops on every dynamic execution,
//! 2. **φ scheduling** — every block entry scans the instruction list for
//!    φ nodes and linearly searches each φ's incoming list for the edge
//!    taken,
//! 3. **Value storage** — results live in a `HashMap<InstId, RtVal>`
//!    hashed on every operand read and result write,
//! 4. **Dispatch** — each lane computation goes through the generic
//!    opcode/element-type `eval_*` match, and each call re-resolves its
//!    callee (and an extern's cost).
//!
//! A [`FramePlan`] is computed once per call target (and cached in the
//! `Interp` across calls): it assigns every instruction a dense frame slot
//! (`vals` becomes a `Vec<RtVal>` indexed by `InstId`), pre-splits each
//! block into a φ schedule with per-predecessor resolved edge tables and a
//! straight-line body, memoizes every instruction's total and classed cost
//! (one `vmach::legalize` per *static* instruction), resolves infallible
//! lane computations to monomorphized kernels, and pre-classifies call
//! sites as module-local or extern with the extern call cost cached.
//!
//! The identity contract: executing through a plan charges exactly the
//! cycles, records exactly the profile entries, and computes exactly the
//! values of the reference engine, which runs the same instruction
//! executor but derives each of the four above per dynamic step. `runbench
//! --check` and `crates/suite/tests/engine_differential.rs` gate on this.

use super::eval::{bin_lane_fn, cast_lane_fn, cmp_lane_fn, un_lane_fn};
use super::CostModel;
use crate::function::{Function, Module};
use crate::inst::{BlockId, Inst, InstId, Value};
use telemetry::CostClass;

/// Memoized cost of one static instruction (see [`CostModel`]).
#[derive(Debug, Clone)]
pub struct PlannedCost {
    /// `CostModel::inst_cost` — charged in unprofiled runs.
    pub total: u64,
    /// `CostModel::inst_cost_classed` — charged (and attributed) in
    /// profiled runs. The trait contract guarantees it sums to `total`.
    pub classed: Vec<(CostClass, u64)>,
}

impl PlannedCost {
    fn zero() -> PlannedCost {
        PlannedCost {
            total: 0,
            classed: Vec::new(),
        }
    }
}

/// Static classification of a `Call` instruction's target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallSite {
    /// Not a call instruction (or an unplaced one).
    NotACall,
    /// Callee is defined in the module; executed by recursion.
    Local,
    /// Callee resolves through the extern handler; the
    /// [`CostModel::extern_call_cost`] result is memoized here so the
    /// mangled-name parse runs once per static call site.
    Extern {
        /// Cached extern-call cycles.
        cost: u64,
    },
}

/// A pre-resolved per-lane compute kernel for one static instruction.
///
/// `Bin`/`Cmp`/`Un`/`Cast` instructions whose semantics are infallible get
/// their opcode/element-type dispatch resolved to a monomorphized function
/// pointer when the plan is built, so the fast engine's per-lane loop is a
/// bare indirect call instead of a nested opcode match. Instructions that
/// can trap (division), overflow the specialized arithmetic (64-bit signed
/// saturation), or reject their type at runtime keep [`LaneKernel::None`]
/// and fall back to the shared `eval_*` path, so behavior stays
/// bit-identical to the reference engine.
#[derive(Debug, Clone, Copy)]
pub enum LaneKernel {
    /// No specialization; the engine uses the general evaluation path.
    None,
    /// Two-operand kernel (binary ops, and comparisons returning `0`/`1`).
    Bin(fn(u64, u64) -> u64),
    /// One-operand kernel (unary ops and casts).
    Un(fn(u64) -> u64),
}

/// One φ assignment for a specific incoming edge.
#[derive(Debug, Clone)]
pub struct PhiMove {
    /// The φ instruction receiving the value.
    pub phi: InstId,
    /// The incoming value for this predecessor; `None` when the φ has no
    /// entry for the edge (reported at runtime only if the edge is taken,
    /// matching the reference engine).
    pub src: Option<Value>,
}

/// The resolved φ schedule for entry from one predecessor.
#[derive(Debug, Clone)]
pub struct EdgeTable {
    /// The predecessor this table applies to.
    pub pred: BlockId,
    /// φ assignments, in block order (evaluated simultaneously).
    pub moves: Vec<PhiMove>,
}

/// The precompiled schedule of one basic block.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// First φ id, if the block has any (kept for the entry-block
    /// diagnostic message).
    pub first_phi: Option<InstId>,
    /// Per-predecessor φ schedules; empty when the block has no φs.
    pub edges: Vec<EdgeTable>,
    /// Non-φ instructions in execution order.
    pub body: Vec<InstId>,
    /// Memoized `CostModel::term_cost` of the terminator.
    pub term_cost: u64,
}

/// A per-function precompiled execution plan. See the module docs.
#[derive(Debug, Clone)]
pub struct FramePlan {
    /// Frame size: one slot per arena instruction, indexed by `InstId`.
    pub slots: usize,
    /// Block schedules, indexed by `BlockId`.
    pub blocks: Vec<BlockPlan>,
    /// Memoized instruction costs, indexed by `InstId`. Instructions not
    /// placed in any block keep a zero cost (they can never execute).
    pub costs: Vec<PlannedCost>,
    /// Call-site classification, indexed by `InstId`.
    pub calls: Vec<CallSite>,
    /// Pre-resolved lane kernels, indexed by `InstId`.
    pub kernels: Vec<LaneKernel>,
    /// The native tier's lowering of this plan, built lazily on first
    /// native execution. Riding on the frame plan means every path that
    /// shares frame plans — the interpreter's local memo, the shared
    /// cross-thread [`PlanCache`](super::PlanCache) — shares the native
    /// lowering with them for free.
    pub(crate) native: std::sync::OnceLock<std::sync::Arc<super::native::NativePlan>>,
}

impl FramePlan {
    /// Builds the plan for `f` against `cost`. Runs `CostModel` methods
    /// once per static instruction placed in a block — this is the only
    /// place the fast engine invokes the cost model.
    pub fn build(module: &Module, f: &Function, cost: &dyn CostModel) -> FramePlan {
        let n = f.num_insts();
        let mut costs: Vec<PlannedCost> = (0..n).map(|_| PlannedCost::zero()).collect();
        let mut calls = vec![CallSite::NotACall; n];
        let mut kernels = vec![LaneKernel::None; n];
        let preds = f.predecessors();

        let mut blocks = Vec::with_capacity(f.num_blocks());
        for b in f.block_ids() {
            let blk = f.block(b);
            let mut phis: Vec<InstId> = Vec::new();
            let mut body: Vec<InstId> = Vec::new();
            let mut in_phi_prefix = true;
            for &id in &blk.insts {
                let slot = id.0 as usize;
                let (total, classed) = cost.inst_cost_full(f, id);
                costs[slot] = PlannedCost { total, classed };
                kernels[slot] = match f.inst(id) {
                    Inst::Bin { op, .. } => f
                        .inst_ty(id)
                        .elem()
                        .and_then(|t| bin_lane_fn(*op, t))
                        .map_or(LaneKernel::None, LaneKernel::Bin),
                    Inst::Cmp { pred, a, .. } => f
                        .value_ty(*a)
                        .elem()
                        .map_or(LaneKernel::None, |t| LaneKernel::Bin(cmp_lane_fn(*pred, t))),
                    Inst::Un { op, .. } => f
                        .inst_ty(id)
                        .elem()
                        .and_then(|t| un_lane_fn(*op, t))
                        .map_or(LaneKernel::None, LaneKernel::Un),
                    Inst::Cast { kind, a } => match (f.value_ty(*a).elem(), f.inst_ty(id).elem()) {
                        (Some(from), Some(to)) => LaneKernel::Un(cast_lane_fn(*kind, from, to)),
                        _ => LaneKernel::None,
                    },
                    _ => LaneKernel::None,
                };
                match f.inst(id) {
                    Inst::Phi { .. } => {
                        // φs past the prefix are skipped by the reference
                        // engine's body loop too (the verifier rejects
                        // them); keep the engines aligned by dropping them
                        // from the schedule.
                        if in_phi_prefix {
                            phis.push(id);
                        }
                    }
                    Inst::Call { callee, .. } => {
                        in_phi_prefix = false;
                        calls[slot] = if module.function(callee).is_some() {
                            CallSite::Local
                        } else {
                            CallSite::Extern {
                                cost: cost.extern_call_cost(callee, f.inst_ty(id)),
                            }
                        };
                        body.push(id);
                    }
                    _ => {
                        in_phi_prefix = false;
                        body.push(id);
                    }
                }
            }

            let mut edges: Vec<EdgeTable> = Vec::new();
            if !phis.is_empty() {
                let mut ps: Vec<BlockId> = preds.get(&b).cloned().unwrap_or_default();
                ps.sort();
                ps.dedup();
                for p in ps {
                    let moves = phis
                        .iter()
                        .map(|&phi| {
                            let src = match f.inst(phi) {
                                Inst::Phi { incoming } => incoming
                                    .iter()
                                    .find(|(from, _)| *from == p)
                                    .map(|(_, v)| *v),
                                _ => None,
                            };
                            PhiMove { phi, src }
                        })
                        .collect();
                    edges.push(EdgeTable { pred: p, moves });
                }
            }

            blocks.push(BlockPlan {
                first_phi: phis.first().copied(),
                edges,
                body,
                term_cost: cost.term_cost(f, &blk.term),
            });
        }

        FramePlan {
            slots: n,
            blocks,
            costs,
            calls,
            kernels,
            native: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c_i64, FunctionBuilder};
    use crate::function::Param;
    use crate::inst::{BinOp, CmpPred};
    use crate::interp::UnitCost;
    use crate::types::{ScalarTy, Ty};

    #[test]
    fn plan_splits_phis_and_memoizes_costs() {
        let mut fb = FunctionBuilder::new(
            "sum",
            vec![Param::new("n", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let entry = fb.current_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, c_i64(0))]);
        let c = fb.cmp(CmpPred::Slt, i, Value::Param(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let i2 = fb.bin(BinOp::Add, i, 1i64);
        fb.phi_add_incoming(i, body, i2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(i));
        let f = fb.finish();
        let mut m = Module::new();
        m.add_function(f);
        let f = m.function("sum").expect("added");

        let plan = FramePlan::build(&m, f, &UnitCost);
        assert_eq!(plan.slots, f.num_insts());
        let header_plan = &plan.blocks[header.0 as usize];
        // One φ, scheduled for both predecessors (entry and body).
        assert!(header_plan.first_phi.is_some());
        assert_eq!(header_plan.edges.len(), 2);
        for e in &header_plan.edges {
            assert_eq!(e.moves.len(), 1);
            assert!(e.moves[0].src.is_some());
        }
        // The φ is not in the straight-line body.
        assert!(!header_plan.body.contains(&header_plan.first_phi.unwrap()));
        // Unit cost: every placed instruction costs 1 total.
        for id in header_plan
            .body
            .iter()
            .chain([&header_plan.first_phi.unwrap()])
        {
            assert_eq!(plan.costs[id.0 as usize].total, 1);
        }
        assert_eq!(header_plan.term_cost, 1);
    }

    #[test]
    fn plan_classifies_call_sites() {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new(
            "local",
            vec![Param::new("x", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let r = g.bin(BinOp::Add, Value::Param(0), 1i64);
        g.ret(Some(r));
        m.add_function(g.finish());

        let mut fb = FunctionBuilder::new("caller", vec![], Ty::scalar(ScalarTy::I64));
        let a = fb.call("local", Ty::scalar(ScalarTy::I64), vec![c_i64(1)]);
        let b = fb.call("elsewhere", Ty::scalar(ScalarTy::I64), vec![a]);
        fb.ret(Some(b));
        m.add_function(fb.finish());
        let f = m.function("caller").expect("added");

        let plan = FramePlan::build(&m, f, &UnitCost);
        let sites: Vec<CallSite> = plan
            .calls
            .iter()
            .copied()
            .filter(|s| *s != CallSite::NotACall)
            .collect();
        assert_eq!(sites, vec![CallSite::Local, CallSite::Extern { cost: 1 }]);
    }
}
