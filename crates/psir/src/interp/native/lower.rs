//! Lowering: [`FramePlan`] → [`NativePlan`].
//!
//! Lowering runs once per call target (cached like the frame plan) and
//! does everything that is static: register allocation, operand
//! resolution, opcode → fused-kernel dispatch, and the per-block cost
//! aggregation the batched accounting needs. The resulting [`NBlock`]s
//! carry both the fused form and the exact-path metadata (per-move and
//! per-op cost pairs, the φ schedule), so a block can be replayed — or
//! rolled back — instruction-by-instruction with the fast engine's exact
//! charging whenever fusion cannot apply.

use super::super::eval::{
    bin_lane_fn, bin_vec_fn, cast_lane_fn, cast_vec_fn, cmp_lane_fn, cmp_vec_fn, fma_vec_fn,
    un_lane_fn, un_vec_fn,
};
use super::super::plan::{CallSite, FramePlan, PlannedCost};
use super::emit::{NOp, NSrc, NTerm};
use super::regalloc::{self, RegMap, NO_REG};
use crate::function::Function;
use crate::inst::{BinOp, BlockId, Inst, InstId, Intrinsic, Terminator, Value};
use telemetry::CostClass;

/// The φ schedule of one incoming edge, pre-resolved to registers.
#[derive(Debug, Clone)]
pub(crate) struct NEdge {
    /// The predecessor this schedule applies to.
    pub pred: BlockId,
    /// `(destination register, source)` per φ, in block order.
    pub moves: Vec<(u32, NSrc)>,
    /// Whether every φ has a source for this edge. An incomplete edge
    /// bails the block to the exact path, which reproduces the fast
    /// engine's error at the precise move.
    pub complete: bool,
}

/// One lowered basic block. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct NBlock {
    /// First φ id (entry-block diagnostic), mirroring the frame plan.
    pub first_phi: Option<InstId>,
    /// Whether the block body can run fused. Blocks containing
    /// module-local calls are statically excluded: a callee consumes
    /// steps, so batching this block's step count up front would move
    /// the step-limit boundary observed inside the callee.
    pub fused: bool,
    /// Scheduled φs, in move order (rollback needs their cost tables).
    pub phis: Vec<InstId>,
    /// Dynamic steps one execution of this block charges (φs + body).
    pub steps: u64,
    /// Number of body instructions.
    pub body_len: u64,
    /// Total cycles (φs + body + terminator), the unprofiled batch.
    pub cost_total: u64,
    /// Classed-sum cycles (φs + body + terminator), the profiled batch —
    /// kept separate because the fast engine charges the classed sum
    /// when profiling, even if a cost model breaks the sum contract.
    pub classed_sum: u64,
    /// Merged per-class attribution for the whole block, including the
    /// terminator's `Branch` entry; zero entries dropped.
    pub classed: Vec<(CostClass, u64)>,
    /// Per-φ-move `(total, classed-sum)` cycles, for exact rollback.
    pub phi_costs: Vec<(u64, u64)>,
    /// Per-body-op `(total, classed-sum)` cycles, for exact rollback.
    pub op_costs: Vec<(u64, u64)>,
    /// Per-predecessor φ schedules.
    pub edges: Vec<NEdge>,
    /// The fused body (empty when `fused` is false).
    pub ops: Vec<NOp>,
    /// The lowered terminator.
    pub term: NTerm,
}

/// A per-function native-tier plan: the register file size, the
/// `InstId → register` map, and the lowered blocks.
#[derive(Debug, Clone)]
pub(crate) struct NativePlan {
    /// Register file size.
    pub regs: usize,
    /// Register of each arena instruction ([`NO_REG`] when undefined).
    pub reg_of: Vec<u32>,
    /// Lowered blocks, indexed by `BlockId`.
    pub blocks: Vec<NBlock>,
}

impl NativePlan {
    /// Approximate heap footprint in bytes, charged to the
    /// [`PlanCache`](crate::PlanCache) budget alongside the frame plan it
    /// lowers. An estimate in the same spirit as
    /// [`FramePlan::approx_bytes`]: monotone in plan size.
    pub(crate) fn approx_bytes(&self) -> usize {
        let mut b = std::mem::size_of::<NativePlan>();
        b += self.reg_of.capacity() * std::mem::size_of::<u32>();
        for blk in &self.blocks {
            b += std::mem::size_of::<NBlock>();
            b += blk.phis.capacity() * std::mem::size_of::<InstId>();
            b += blk.classed.capacity() * std::mem::size_of::<(CostClass, u64)>();
            b += (blk.phi_costs.capacity() + blk.op_costs.capacity())
                * std::mem::size_of::<(u64, u64)>();
            for e in &blk.edges {
                b += std::mem::size_of::<NEdge>();
                b += e.moves.capacity() * std::mem::size_of::<(u32, NSrc)>();
            }
            b += blk.ops.capacity() * std::mem::size_of::<NOp>();
            for op in &blk.ops {
                match op {
                    NOp::ConstV { lanes, .. } => b += lanes.capacity() * 8,
                    NOp::ShufC { pattern, .. } => b += pattern.capacity() * 4,
                    _ => {}
                }
            }
        }
        b
    }
}

fn cost_pair(pc: &PlannedCost) -> (u64, u64) {
    (pc.total, pc.classed.iter().map(|&(_, cy)| cy).sum())
}

fn nsrc(rm: &RegMap, v: Value) -> NSrc {
    match v {
        Value::Const(c) => NSrc::Imm(c.bits),
        Value::Param(i) => NSrc::Param(i),
        Value::Inst(i) => match rm.reg_of.get(i.0 as usize) {
            None => NSrc::Oob(i),
            Some(&NO_REG) => NSrc::Unit,
            Some(&r) => NSrc::Reg(r),
        },
    }
}

/// Lowers one body instruction. Coverage deliberately mirrors the fast
/// engine's `LaneKernel` policy: an op gets a fused form exactly when the
/// fast engine would use a pre-resolved kernel for it, so every fallible
/// or type-rejecting case routes through the shared `exec_inst` path with
/// identical behavior.
fn lower_op(f: &Function, rm: &RegMap, id: InstId) -> NOp {
    let dst = rm.reg_of[id.0 as usize];
    let general = NOp::General { id, dst };
    let ty = f.inst_ty(id);
    match f.inst(id) {
        Inst::Bin { op, a, b } => {
            let Some(elem) = ty.elem() else {
                return general;
            };
            if ty.is_vec() {
                match bin_vec_fn(*op, elem) {
                    Some(g) => NOp::Bin2V {
                        g,
                        a: nsrc(rm, *a),
                        b: nsrc(rm, *b),
                        n: ty.lanes(),
                        dst,
                    },
                    None => general,
                }
            } else {
                match bin_lane_fn(*op, elem) {
                    Some(g) => NOp::Bin2S {
                        g,
                        a: nsrc(rm, *a),
                        b: nsrc(rm, *b),
                        dst,
                    },
                    None => general,
                }
            }
        }
        Inst::Cmp { pred, a, b } => {
            let src = f.value_ty(*a);
            let Some(elem) = src.elem() else {
                return general;
            };
            if src.is_vec() {
                NOp::Bin2V {
                    g: cmp_vec_fn(*pred, elem),
                    a: nsrc(rm, *a),
                    b: nsrc(rm, *b),
                    n: src.lanes(),
                    dst,
                }
            } else {
                NOp::Bin2S {
                    g: cmp_lane_fn(*pred, elem),
                    a: nsrc(rm, *a),
                    b: nsrc(rm, *b),
                    dst,
                }
            }
        }
        Inst::Un { op, a } => {
            let Some(elem) = ty.elem() else {
                return general;
            };
            if ty.is_vec() {
                match un_vec_fn(*op, elem) {
                    Some(g) => NOp::Un1V {
                        g,
                        a: nsrc(rm, *a),
                        n: ty.lanes(),
                        dst,
                    },
                    None => general,
                }
            } else {
                match un_lane_fn(*op, elem) {
                    Some(g) => NOp::Un1S {
                        g,
                        a: nsrc(rm, *a),
                        dst,
                    },
                    None => general,
                }
            }
        }
        Inst::Cast { kind, a } => {
            let (Some(from), Some(to)) = (f.value_ty(*a).elem(), ty.elem()) else {
                return general;
            };
            if ty.is_vec() {
                NOp::Un1V {
                    g: cast_vec_fn(*kind, from, to),
                    a: nsrc(rm, *a),
                    n: ty.lanes(),
                    dst,
                }
            } else {
                NOp::Un1S {
                    g: cast_lane_fn(*kind, from, to),
                    a: nsrc(rm, *a),
                    dst,
                }
            }
        }
        // Memory and data-movement ops: fused only in the unmasked case
        // (mask presence is static); masked variants keep the shared
        // path's per-lane mask semantics. Shape dispatch over the runtime
        // operand shapes stays in the executor, mirroring `exec_inst`.
        Inst::Load { ptr, mask: None } => {
            let Some(elem) = ty.elem() else {
                return general;
            };
            if ty.is_vec() {
                NOp::LoadV {
                    ptr: nsrc(rm, *ptr),
                    elem,
                    n: ty.lanes(),
                    dst,
                }
            } else {
                NOp::LoadS {
                    ptr: nsrc(rm, *ptr),
                    elem,
                    dst,
                }
            }
        }
        Inst::Store {
            ptr,
            val,
            mask: None,
        } => {
            let Some(elem) = f.value_ty(*val).elem() else {
                return general;
            };
            NOp::StoreOp {
                ptr: nsrc(rm, *ptr),
                val: nsrc(rm, *val),
                elem,
                dst,
            }
        }
        Inst::Gep { base, index, scale } => NOp::GepOp {
            base: nsrc(rm, *base),
            index: nsrc(rm, *index),
            ity: f
                .value_ty(*index)
                .elem()
                .unwrap_or(crate::types::ScalarTy::I64),
            scale: *scale,
            n: ty.lanes(),
            dst,
        },
        Inst::ShuffleConst { v, pattern } => NOp::ShufC {
            v: nsrc(rm, *v),
            pattern: pattern.clone(),
            dst,
        },
        Inst::Splat { a } => NOp::SplatV {
            a: nsrc(rm, *a),
            n: ty.lanes(),
            dst,
        },
        Inst::ConstVec { lanes, .. } => NOp::ConstV {
            lanes: lanes.clone(),
            dst,
        },
        Inst::Intrin {
            kind: Intrinsic::Fma,
            args,
        } if args.len() == 3 => {
            let Some(elem) = ty.elem() else {
                return general;
            };
            if ty.is_vec() {
                match fma_vec_fn(elem) {
                    Some(g) => NOp::FmaV {
                        g,
                        a: nsrc(rm, args[0]),
                        b: nsrc(rm, args[1]),
                        c: nsrc(rm, args[2]),
                        n: ty.lanes(),
                        dst,
                    },
                    None => general,
                }
            } else {
                let (mul, add) = if elem.is_float() {
                    (BinOp::FMul, BinOp::FAdd)
                } else {
                    (BinOp::Mul, BinOp::Add)
                };
                match (bin_lane_fn(mul, elem), bin_lane_fn(add, elem)) {
                    (Some(m), Some(ad)) => NOp::FmaS {
                        mul: m,
                        add: ad,
                        a: nsrc(rm, args[0]),
                        b: nsrc(rm, args[1]),
                        c: nsrc(rm, args[2]),
                        dst,
                    },
                    _ => general,
                }
            }
        }
        _ => general,
    }
}

fn lower_term(rm: &RegMap, term: &Terminator) -> NTerm {
    match term {
        Terminator::Br(t) => NTerm::Br(*t),
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => NTerm::CondBr {
            cond: nsrc(rm, *cond),
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
        Terminator::Ret(None) => NTerm::RetUnit,
        Terminator::Ret(Some(Value::Inst(i))) => match rm.reg_of.get(i.0 as usize) {
            Some(&r) if r != NO_REG => NTerm::RetMove(r),
            Some(_) => NTerm::RetSrc(NSrc::Unit),
            None => NTerm::RetSrc(NSrc::Oob(*i)),
        },
        Terminator::Ret(Some(v)) => NTerm::RetSrc(nsrc(rm, *v)),
    }
}

impl NativePlan {
    /// Builds the native plan for `f` from its frame plan. Pure
    /// metadata transformation: the cost model is never re-queried — all
    /// cycle numbers come from the frame plan's memoized tables, so the
    /// two tiers cannot disagree on costs by construction.
    pub(crate) fn build(f: &Function, plan: &FramePlan) -> NativePlan {
        let rm = regalloc::allocate(f, plan);
        let mut blocks = Vec::with_capacity(plan.blocks.len());
        for b in f.block_ids() {
            let bp = &plan.blocks[b.0 as usize];
            let blk = f.block(b);

            let phis: Vec<InstId> = bp
                .edges
                .first()
                .map(|e| e.moves.iter().map(|mv| mv.phi).collect())
                .unwrap_or_default();
            let phi_costs: Vec<(u64, u64)> = phis
                .iter()
                .map(|p| cost_pair(&plan.costs[p.0 as usize]))
                .collect();
            let op_costs: Vec<(u64, u64)> = bp
                .body
                .iter()
                .map(|id| cost_pair(&plan.costs[id.0 as usize]))
                .collect();

            let mut fused = phis.iter().all(|p| rm.reg_of[p.0 as usize] != NO_REG);
            for &id in &bp.body {
                if matches!(plan.calls[id.0 as usize], CallSite::Local) {
                    fused = false;
                }
            }

            let ops: Vec<NOp> = if fused {
                bp.body.iter().map(|&id| lower_op(f, &rm, id)).collect()
            } else {
                Vec::new()
            };

            let edges: Vec<NEdge> = bp
                .edges
                .iter()
                .map(|e| {
                    let mut complete = true;
                    let moves: Vec<(u32, NSrc)> = e
                        .moves
                        .iter()
                        .map(|mv| {
                            let src = match mv.src {
                                Some(v) => nsrc(&rm, v),
                                None => {
                                    complete = false;
                                    NSrc::Unit
                                }
                            };
                            (rm.reg_of[mv.phi.0 as usize], src)
                        })
                        .collect();
                    NEdge {
                        pred: e.pred,
                        moves,
                        complete,
                    }
                })
                .collect();

            // Merged per-class attribution: φs, body, then the
            // terminator's Branch entry. Zero entries contribute nothing
            // to `Profile::record_classed` and are dropped; the merge is
            // order-insensitive because profile buckets only accumulate.
            let mut classed: Vec<(CostClass, u64)> = Vec::new();
            let mut merge = |list: &[(CostClass, u64)]| {
                for &(cl, cy) in list {
                    if cy == 0 {
                        continue;
                    }
                    match classed.iter_mut().find(|(c, _)| *c == cl) {
                        Some(e) => e.1 += cy,
                        None => classed.push((cl, cy)),
                    }
                }
            };
            for p in &phis {
                merge(&plan.costs[p.0 as usize].classed);
            }
            for id in &bp.body {
                merge(&plan.costs[id.0 as usize].classed);
            }
            merge(&[(CostClass::Branch, bp.term_cost)]);

            let cost_total = phi_costs.iter().map(|c| c.0).sum::<u64>()
                + op_costs.iter().map(|c| c.0).sum::<u64>()
                + bp.term_cost;
            let classed_sum = phi_costs.iter().map(|c| c.1).sum::<u64>()
                + op_costs.iter().map(|c| c.1).sum::<u64>()
                + bp.term_cost;

            blocks.push(NBlock {
                first_phi: bp.first_phi,
                fused,
                steps: (phis.len() + bp.body.len()) as u64,
                body_len: bp.body.len() as u64,
                cost_total,
                classed_sum,
                classed,
                phis,
                phi_costs,
                op_costs,
                edges,
                ops,
                term: lower_term(&rm, &blk.term),
            });
        }

        NativePlan {
            regs: rm.num_regs,
            reg_of: rm.reg_of,
            blocks,
        }
    }
}
