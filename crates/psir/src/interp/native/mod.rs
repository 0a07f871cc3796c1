//! The native execution tier ([`Engine::Native`](super::Engine::Native)).
//!
//! Where the fast engine pays one indirect call, one step-limit check,
//! one cost charge, and one profile record per *dynamic instruction*, the
//! native tier compiles each [`FramePlan`] into a [`NativePlan`] whose
//! block bodies are fused, monomorphized whole-vector kernels over a
//! linear-scan-compacted register file ([`regalloc`]), and batches the
//! bookkeeping — steps, instruction counts, cycles, and the profile's
//! classed attribution — to one update per *block* execution.
//!
//! # Identity contract
//!
//! The tier is byte-identical to the fast and reference engines on
//! results, cycles, `ExecStats`, and profile JSON (gated by
//! `crates/suite/tests/engine_differential.rs` and the fuzz oracle's
//! native configuration). The mechanisms:
//!
//! * **Kernels**: every fused kernel is pinned bit-identical to the
//!   per-lane kernel / shared `eval_*` semantics by property tests in
//!   the eval layer; coverage mirrors the fast engine's `LaneKernel`
//!   policy, and everything else executes through the engines' shared
//!   `exec_inst`.
//! * **Step limit**: a block is fused only when `steps + block.steps`
//!   stays within the limit — exactly the complement of the fast
//!   engine's per-step check ever firing inside the block. On the
//!   boundary, the block *bails out* to the exact per-instruction path,
//!   which reproduces the `StepLimit` error at the precise step.
//! * **Bailout**: incomplete φ edges and step-limit boundaries hand the
//!   block to [`Interp::run_block_exact`] — the fast engine's block loop
//!   over the register file — so correctness never depends on fusion
//!   coverage. Bailouts are counted ([`Interp::native_bailouts`]) and
//!   reported by `runbench --engine native`; they are zero on the hot
//!   suite kernels. Blocks containing module-local calls are statically
//!   lowered to the exact path (a callee consumes steps, which would
//!   shift the batched step-limit boundary) and are *not* counted as
//!   bailouts.
//! * **Errors**: a trap inside a fused block triggers an exact, `#[cold]`
//!   rollback of the batched steps/stats/cycles to the fast engine's
//!   state at the trapping instruction, and records the profile entries
//!   of only the instructions that executed.
//!
//! Lowering to actual machine code behind the same `NativePlan` interface
//! (x86-64/aarch64 emission into executable pages) is future work — see
//! DESIGN.md §15; the per-block bailout contract is designed so that a
//! partial emitter can land without widening the identity risk.

mod emit;
mod lower;
mod regalloc;

pub(crate) use lower::NativePlan;

use super::{operand, BlockPlan, ExecError, FramePlan, Interp, RtVal, FRAME_POOL_CAP};
use crate::function::Function;
use crate::inst::BlockId;
use emit::{read_src, NTerm, RegStore};
use lower::NBlock;
use regalloc::NO_REG;
use std::borrow::Cow;
use std::sync::Arc;

impl<'a> Interp<'a> {
    /// [`Engine::Native`] entry point: executes `f` through its lowered
    /// [`NativePlan`], building and caching it on first call.
    pub(super) fn exec_native(
        &mut self,
        f: &Function,
        args: Vec<RtVal>,
    ) -> Result<RtVal, ExecError> {
        let plan = self.plan_for(f);
        let np = self.native_plan_for(f, &plan);
        let mut store = RegStore {
            regs: self.take_frame(np.regs),
            map: &np.reg_of,
        };
        let result = self.run_native(f, &plan, &np, &mut store, &args);
        let mut regs = store.regs;
        for v in regs.drain(..) {
            self.recycle(v);
        }
        if self.frame_pool.len() < FRAME_POOL_CAP {
            self.frame_pool.push(regs);
        }
        result
    }

    /// The cached native plan for `f`, lowering it on first use. The plan
    /// lives on the [`FramePlan`] itself, so it is built once per frame
    /// plan and shared wherever the frame plan is — across this
    /// interpreter's calls, and across interpreters and engines when the
    /// frame plan comes from the shared [`PlanCache`](super::PlanCache),
    /// whose byte budget the lowering is charged to.
    fn native_plan_for(&mut self, f: &Function, plan: &Arc<FramePlan>) -> Arc<NativePlan> {
        let mut built = 0;
        let np = Arc::clone(plan.native.get_or_init(|| {
            let np = NativePlan::build(f, plan);
            built = np.approx_bytes();
            Arc::new(np)
        }));
        if built > 0 {
            if let Some((cache, module_id)) = &self.shared_plans {
                cache.charge(*module_id, &f.name, plan, built);
            }
        }
        np
    }

    fn run_native(
        &mut self,
        f: &Function,
        plan: &FramePlan,
        np: &NativePlan,
        store: &mut RegStore<'_>,
        args: &[RtVal],
    ) -> Result<RtVal, ExecError> {
        let mut block = f.entry;
        let mut prev: Option<BlockId> = None;
        let mut phi_vals: Vec<(u32, RtVal)> = Vec::new();

        loop {
            self.check_cancel()?;
            let nb = &np.blocks[block.0 as usize];
            let bp = &plan.blocks[block.0 as usize];

            // Fusion gate. Entry-φ and missing-edge errors are left to
            // the exact path, which raises them with the fast engine's
            // exact messages before any charging.
            let mut edge: Option<usize> = None;
            let mut fused = nb.fused;
            if fused && nb.first_phi.is_some() {
                match prev {
                    None => fused = false,
                    Some(p) => match nb.edges.iter().position(|e| e.pred == p) {
                        None => fused = false,
                        Some(ei) if !nb.edges[ei].complete => {
                            fused = false;
                            self.native_bailouts += 1;
                        }
                        Some(ei) => edge = Some(ei),
                    },
                }
            }
            if fused {
                // Fuse only when the whole block fits under the step
                // limit — the exact complement of the fast engine's
                // per-step check firing mid-block.
                match self.steps.checked_add(nb.steps) {
                    Some(s) if s <= self.step_limit => {}
                    _ => {
                        fused = false;
                        self.native_bailouts += 1;
                    }
                }
            }

            if fused {
                let profiling = self.profile.is_some();
                self.steps += nb.steps;
                self.stats.insts += nb.body_len;
                self.cycles += if profiling {
                    nb.classed_sum
                } else {
                    nb.cost_total
                };

                if let Some(ei) = edge {
                    let moves = &nb.edges[ei].moves;
                    phi_vals.clear();
                    for (j, &(reg, src)) in moves.iter().enumerate() {
                        match read_src(f, store, args, src) {
                            Ok(v) => phi_vals.push((reg, v.into_owned())),
                            Err(e) => {
                                self.native_rollback_phi(f, plan, nb, j, profiling);
                                return Err(e);
                            }
                        }
                    }
                    for (reg, v) in phi_vals.drain(..) {
                        let old = std::mem::replace(&mut store.regs[reg as usize], v);
                        self.recycle(old);
                    }
                }

                for (k, op) in nb.ops.iter().enumerate() {
                    if let Err(e) = self.exec_nop(f, store, args, op, plan) {
                        self.native_rollback_body(f, plan, bp, nb, k, profiling);
                        return Err(e);
                    }
                }

                if profiling {
                    if let Some(p) = self.profile.as_mut() {
                        p.record_classed(&f.name, &nb.classed);
                    }
                }
            } else {
                self.run_block_exact(f, plan, bp, np, store, args, prev, &mut phi_vals)?;
            }

            match &nb.term {
                NTerm::Br(t) => {
                    prev = Some(block);
                    block = *t;
                }
                NTerm::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = read_src(f, store, args, *cond)?.scalar()?;
                    prev = Some(block);
                    block = if c & 1 != 0 { *then_bb } else { *else_bb };
                }
                NTerm::RetUnit => return Ok(RtVal::Unit),
                NTerm::RetMove(r) => {
                    return Ok(std::mem::replace(&mut store.regs[*r as usize], RtVal::Unit))
                }
                NTerm::RetSrc(s) => return read_src(f, store, args, *s).map(Cow::into_owned),
            }
        }
    }

    /// The exact path: the fast engine's block loop (per-step checks,
    /// per-instruction charging, shared `exec_inst`) executed over the
    /// register file. Used for statically non-fused blocks, dynamic
    /// bailouts, and the error cases that must be raised pre-charge.
    /// Charges the terminator; the caller then dispatches it.
    #[allow(clippy::too_many_arguments)]
    fn run_block_exact(
        &mut self,
        f: &Function,
        plan: &FramePlan,
        bp: &BlockPlan,
        np: &NativePlan,
        store: &mut RegStore<'_>,
        args: &[RtVal],
        prev: Option<BlockId>,
        phi_vals: &mut Vec<(u32, RtVal)>,
    ) -> Result<(), ExecError> {
        if let Some(first) = bp.first_phi {
            let Some(p) = prev else {
                return Err(ExecError::Other(format!(
                    "phi {first} in entry block of @{}",
                    f.name
                )));
            };
            let Some(table) = bp.edges.iter().find(|e| e.pred == p) else {
                return Err(ExecError::Other(format!(
                    "phi {first} missing edge from {p}"
                )));
            };
            phi_vals.clear();
            for mv in &table.moves {
                if self.steps >= self.step_limit {
                    return Err(ExecError::StepLimit);
                }
                self.steps += 1;
                let Some(src) = mv.src else {
                    return Err(ExecError::Other(format!(
                        "phi {} missing edge from {p}",
                        mv.phi
                    )));
                };
                let rv = operand(f, &*store, args, src)?.into_owned();
                self.charge_planned(&f.name, &plan.costs[mv.phi.0 as usize]);
                phi_vals.push((np.reg_of[mv.phi.0 as usize], rv));
            }
            for (reg, rv) in phi_vals.drain(..) {
                if reg == NO_REG {
                    self.recycle(rv);
                    continue;
                }
                let old = std::mem::replace(&mut store.regs[reg as usize], rv);
                self.recycle(old);
            }
        }

        for &id in &bp.body {
            if self.steps >= self.step_limit {
                return Err(ExecError::StepLimit);
            }
            self.steps += 1;
            self.stats.insts += 1;
            self.charge_planned(&f.name, &plan.costs[id.0 as usize]);
            let r = self.exec_inst(f, &*store, args, id, plan)?;
            let reg = np.reg_of[id.0 as usize];
            if reg == NO_REG {
                self.recycle(r);
                continue;
            }
            let old = std::mem::replace(&mut store.regs[reg as usize], r);
            self.recycle(old);
        }

        self.charge_term_cy(&f.name, bp.term_cost);
        Ok(())
    }

    /// Rolls the batched accounting back to the fast engine's exact state
    /// at a trapping φ move `j` (its step was counted; its charge was
    /// not), and records the profile entries of the moves that completed.
    #[cold]
    #[inline(never)]
    fn native_rollback_phi(
        &mut self,
        f: &Function,
        plan: &FramePlan,
        nb: &NBlock,
        j: usize,
        profiling: bool,
    ) {
        self.steps -= nb.steps - (j as u64 + 1);
        self.stats.insts -= nb.body_len;
        let charged = if profiling {
            nb.classed_sum
        } else {
            nb.cost_total
        };
        let mut executed = 0u64;
        for m in 0..j {
            executed += if profiling {
                nb.phi_costs[m].1
            } else {
                nb.phi_costs[m].0
            };
        }
        self.cycles -= charged - executed;
        if profiling {
            if let Some(p) = self.profile.as_mut() {
                for m in 0..j {
                    p.record_classed(&f.name, &plan.costs[nb.phis[m].0 as usize].classed);
                }
            }
        }
    }

    /// Rolls the batched accounting back to the fast engine's exact state
    /// at a trapping body op `k` (charged and counted through `k`,
    /// terminator not charged), and records the profile entries of the φs
    /// and the ops through `k`.
    #[cold]
    #[inline(never)]
    fn native_rollback_body(
        &mut self,
        f: &Function,
        plan: &FramePlan,
        bp: &BlockPlan,
        nb: &NBlock,
        k: usize,
        profiling: bool,
    ) {
        let done = k as u64 + 1;
        self.steps -= nb.body_len - done;
        self.stats.insts -= nb.body_len - done;
        let charged = if profiling {
            nb.classed_sum
        } else {
            nb.cost_total
        };
        let mut executed = 0u64;
        for &(total, csum) in &nb.phi_costs {
            executed += if profiling { csum } else { total };
        }
        for m in 0..=k {
            executed += if profiling {
                nb.op_costs[m].1
            } else {
                nb.op_costs[m].0
            };
        }
        self.cycles -= charged - executed;
        if profiling {
            if let Some(p) = self.profile.as_mut() {
                for ph in &nb.phis {
                    p.record_classed(&f.name, &plan.costs[ph.0 as usize].classed);
                }
                for m in 0..=k {
                    p.record_classed(&f.name, &plan.costs[bp.body[m].0 as usize].classed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CostModel, Engine, ExecError, Interp, Memory, Profile, RtVal, UnitCost};
    use crate::builder::{c_i32, c_i64, FunctionBuilder};
    use crate::function::{Module, Param};
    use crate::inst::{BinOp, CmpPred, InstId, Terminator, Value};
    use crate::types::{ScalarTy, Ty};

    /// Runs `name` under one engine with profiling and returns every
    /// observable: result-or-error, cycles, steps, stats, profile JSON.
    fn observe(
        m: &Module,
        name: &str,
        args: &[RtVal],
        engine: Engine,
        step_limit: Option<u64>,
    ) -> (Result<RtVal, ExecError>, u64, u64, String, String) {
        let mut it = Interp::with_defaults(m, Memory::default());
        it.set_engine(engine);
        it.enable_profiling();
        if let Some(l) = step_limit {
            it.set_step_limit(l);
        }
        let r = it.call(name, args);
        let p = it.take_profile().expect("profiling enabled");
        (
            r,
            it.cycles,
            it.steps(),
            format!("{:?}", it.stats),
            p.to_json().to_string_pretty(),
        )
    }

    fn assert_native_identical(m: &Module, name: &str, args: &[RtVal], step_limit: Option<u64>) {
        let fast = observe(m, name, args, Engine::Fast, step_limit);
        let native = observe(m, name, args, Engine::Native, step_limit);
        assert_eq!(
            format!("{:?}", fast.0),
            format!("{:?}", native.0),
            "result diverges for @{name}"
        );
        assert_eq!(fast.1, native.1, "cycles diverge for @{name}");
        assert_eq!(fast.2, native.2, "steps diverge for @{name}");
        assert_eq!(fast.3, native.3, "stats diverge for @{name}");
        if fast.0.is_ok() {
            assert_eq!(fast.4, native.4, "profile diverges for @{name}");
        }
    }

    fn vec_loop_module() -> Module {
        // Vector loop: acc = Σ_i (v * i) over 8 lanes, then reduce.
        let mut fb = FunctionBuilder::new(
            "vk",
            vec![Param::new("n", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let entry = fb.current_block();
        let base = fb.const_vec(ScalarTy::I64, (1..=8).collect());
        let zero = fb.splat(c_i64(0), 8);
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, c_i64(0))]);
        let acc = fb.phi_typed(Ty::vec(ScalarTy::I64, 8), vec![(entry, zero)]);
        let c = fb.cmp(CmpPred::Slt, i, Value::Param(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let iv = fb.splat(i, 8);
        let prod = fb.bin(BinOp::Mul, base, iv);
        let acc2 = fb.bin(BinOp::Add, acc, prod);
        let i2 = fb.bin(BinOp::Add, i, 1i64);
        fb.phi_add_incoming(i, body, i2);
        fb.phi_add_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        let r = fb.reduce(crate::inst::ReduceOp::Add, acc, None);
        fb.ret(Some(r));
        let mut m = Module::new();
        m.add_function(fb.finish());
        m
    }

    #[test]
    fn native_matches_fast_on_vector_loop() {
        let m = vec_loop_module();
        assert_native_identical(&m, "vk", &[RtVal::S(100)], None);
        let (r, ..) = observe(&m, "vk", &[RtVal::S(3)], Engine::Native, None);
        // Σ_{i<3} Σ_lane lane*i = (1+..+8) * (0+1+2) = 36 * 3
        assert_eq!(r.unwrap(), RtVal::S(108));
    }

    #[test]
    fn native_step_limit_bails_and_matches() {
        let m = vec_loop_module();
        // A limit that trips mid-loop: both engines must raise StepLimit
        // with identical cycles/steps/stats, and native must report the
        // bailout.
        for limit in [1, 7, 8, 9, 40, 41] {
            assert_native_identical(&m, "vk", &[RtVal::S(1_000_000)], Some(limit));
        }
        let mut it = Interp::with_defaults(&m, Memory::default());
        it.set_engine(Engine::Native);
        it.set_step_limit(40);
        assert!(matches!(
            it.call("vk", &[RtVal::S(1_000_000)]),
            Err(ExecError::StepLimit)
        ));
        assert!(it.native_bailouts() > 0, "boundary block must bail out");
    }

    #[test]
    fn native_local_calls_take_the_exact_path() {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new(
            "inc",
            vec![Param::new("x", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let r = g.bin(BinOp::Add, Value::Param(0), 1i64);
        g.ret(Some(r));
        m.add_function(g.finish());

        let mut fb = FunctionBuilder::new("caller", vec![], Ty::scalar(ScalarTy::I64));
        let a = fb.call("inc", Ty::scalar(ScalarTy::I64), vec![c_i64(41)]);
        let b = fb.bin(BinOp::Add, a, 0i64);
        fb.ret(Some(b));
        m.add_function(fb.finish());

        assert_native_identical(&m, "caller", &[], None);
        // Static call-blocks are not dynamic bailouts.
        let mut it = Interp::with_defaults(&m, Memory::default());
        it.set_engine(Engine::Native);
        assert_eq!(it.call("caller", &[]).unwrap(), RtVal::S(42));
        assert_eq!(it.native_bailouts(), 0);
    }

    #[test]
    fn native_rolls_back_exactly_on_trap() {
        // Division by zero mid-block: cycles/steps/stats must match the
        // per-instruction engines exactly after the batched rollback.
        let mut fb = FunctionBuilder::new(
            "trap",
            vec![Param::new("d", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let a = fb.bin(BinOp::Add, 10i64, 5i64);
        let q = fb.bin(BinOp::SDiv, a, Value::Param(0));
        let z = fb.bin(BinOp::Add, q, 1i64);
        fb.ret(Some(z));
        let mut m = Module::new();
        m.add_function(fb.finish());
        assert_native_identical(&m, "trap", &[RtVal::S(0)], None);
        assert_native_identical(&m, "trap", &[RtVal::S(3)], None);
    }

    #[test]
    fn native_missing_argument_in_phi_rolls_back() {
        // φ source reads Param(0) that the caller does not pass: the φ
        // move traps after batching, exercising the φ rollback.
        let mut fb = FunctionBuilder::new(
            "phi_arg",
            vec![Param::new("x", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let next = fb.new_block("next");
        let entry = fb.current_block();
        fb.br(next);
        fb.switch_to(next);
        let p = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, Value::Param(0))]);
        fb.ret(Some(p));
        let mut m = Module::new();
        m.add_function(fb.finish());
        assert_native_identical(&m, "phi_arg", &[], None);
        assert_native_identical(&m, "phi_arg", &[RtVal::S(7)], None);
    }

    #[test]
    fn native_incomplete_phi_edge_bails_out() {
        // A φ with no entry for one real predecessor: taking that edge
        // must produce the fast engine's exact error, via bailout.
        let mut fb = FunctionBuilder::new(
            "inc_phi",
            vec![Param::new("c", Ty::scalar(ScalarTy::I1))],
            Ty::scalar(ScalarTy::I64),
        );
        let left = fb.new_block("left");
        let right = fb.new_block("right");
        let join = fb.new_block("join");
        fb.cond_br(Value::Param(0), left, right);
        fb.switch_to(left);
        fb.br(join);
        fb.switch_to(right);
        fb.br(join);
        fb.switch_to(join);
        // Incoming only covers `left`.
        let p = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(left, c_i64(1))]);
        fb.ret(Some(p));
        let mut m = Module::new();
        m.add_function(fb.finish());
        assert_native_identical(&m, "inc_phi", &[RtVal::S(1)], None);
        assert_native_identical(&m, "inc_phi", &[RtVal::S(0)], None);
        let mut it = Interp::with_defaults(&m, Memory::default());
        it.set_engine(Engine::Native);
        assert!(it.call("inc_phi", &[RtVal::S(0)]).is_err());
        assert_eq!(it.native_bailouts(), 1);
    }

    #[test]
    fn native_reuses_result_buffers_across_iterations() {
        // Not an identity property — a smoke check that the hot loop does
        // not grow memory: the register file is register-count sized, far
        // below the instruction count of an unrolled frame.
        let m = vec_loop_module();
        let mut it = Interp::with_defaults(&m, Memory::default());
        it.set_engine(Engine::Native);
        it.call("vk", &[RtVal::S(10)]).unwrap();
        it.call("vk", &[RtVal::S(10)]).unwrap();
        assert_eq!(it.native_bailouts(), 0);
    }

    #[test]
    fn native_handles_select_loads_and_stores_via_general_path() {
        // Mixed block with memory traffic: stats counters must match.
        let mut fb = FunctionBuilder::new(
            "mem",
            vec![
                Param::new("p", Ty::scalar(ScalarTy::Ptr)),
                Param::new("q", Ty::scalar(ScalarTy::Ptr)),
            ],
            Ty::Void,
        );
        let v = fb.load(Ty::vec(ScalarTy::I32, 4), Value::Param(0), None);
        let t = fb.splat(c_i32(100), 4);
        let c = fb.cmp(CmpPred::Sgt, v, t);
        let sel = fb.select(c, t, v);
        fb.store(Value::Param(1), sel, None);
        fb.ret(None);
        let mut m = Module::new();
        m.add_function(fb.finish());

        let mk_mem = || {
            let mut mem = Memory::default();
            let data: Vec<u8> = [5i32, 500, 7, 700]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let p = mem.alloc_bytes(&data, 64).unwrap();
            let q = mem.alloc(16, 64).unwrap();
            (mem, p, q)
        };
        let mut outs = Vec::new();
        for engine in [Engine::Fast, Engine::Native] {
            let (mem, p, q) = mk_mem();
            let mut it = Interp::with_defaults(&m, mem);
            it.set_engine(engine);
            it.call("mem", &[RtVal::S(p), RtVal::S(q)]).unwrap();
            outs.push((
                it.cycles,
                format!("{:?}", it.stats),
                it.mem.read_bytes(q, 16).unwrap().to_vec(),
            ));
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn native_agrees_under_nonuniform_cost_model() {
        // A cost model with distinct totals/classes per opcode stresses
        // the batched charge and the merged classed list.
        struct Lumpy;
        impl CostModel for Lumpy {
            fn inst_cost(&self, f: &crate::function::Function, id: InstId) -> u64 {
                match f.inst(id) {
                    crate::inst::Inst::Bin { .. } => 3,
                    crate::inst::Inst::Phi { .. } => 2,
                    _ => 5,
                }
            }
            fn extern_call_cost(&self, _name: &str, _ret: Ty) -> u64 {
                11
            }
            fn term_cost(&self, _f: &crate::function::Function, _t: &Terminator) -> u64 {
                4
            }
            fn inst_cost_classed(
                &self,
                f: &crate::function::Function,
                id: InstId,
            ) -> Vec<(telemetry::CostClass, u64)> {
                vec![
                    (telemetry::CostClass::Other, self.inst_cost(f, id) - 1),
                    (telemetry::CostClass::VecAlu, 1),
                ]
            }
        }
        let m = vec_loop_module();
        let mut results = Vec::new();
        for engine in [Engine::Fast, Engine::Reference, Engine::Native] {
            let mut it = Interp::new(&m, Memory::default(), &Lumpy, &super::super::NoExterns);
            it.set_engine(engine);
            it.enable_profiling();
            let r = it.call("vk", &[RtVal::S(50)]).unwrap();
            let p: Profile = it.take_profile().unwrap();
            results.push((r, it.cycles, it.steps(), p.to_json().to_string_pretty()));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
        let _ = UnitCost; // keep the shared import used under all cfgs
    }
}
