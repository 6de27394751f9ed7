//! The interpreter: a pausable executor that runs a program against a
//! [`PagedVm`].
//!
//! An [`Executor`] lowers its [`Program`] once into a flat list of ops
//! over an explicit pc, value stack, and loop-frame stack. No Rust stack
//! frame holds interpreter state, so execution can stop ahead of any VM
//! call and resume later: [`Executor::step`] returns when a load or store
//! is blocked on disk, or when a budget of VM calls is spent. The same
//! executor drives one program to completion ([`run_program`]) and lets a
//! co-scheduler interleave many programs on one thread.
//!
//! User time accrues in a pending total that is flushed to the VM
//! (`tick_user`) just before each load, store, and hint, so the simulated
//! clock sees the same calls at the same points as a naive tree walk.

use crate::expr::{BinOp, CmpOp, Cond, Expr, LinExpr, Sym, UnOp};
use crate::program::{ArrayRef, ElemType, Index, Loop, Program, Stmt};
use crate::vm::{CostModel, PagedVm};
use oocp_obs::prof::{HostProf, NoProf, ProfSink};

/// Placement of one array in the virtual address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayBinding {
    /// Byte address of element 0.
    pub base: u64,
}

impl ArrayBinding {
    /// Lay out a program's arrays sequentially, each page-aligned,
    /// returning the bindings and the total address-space size in bytes.
    ///
    /// The simulated machine and [`crate::vm::MemVm`] both use this
    /// layout, so results can be compared byte-for-byte.
    pub fn sequential(prog: &Program, page_bytes: u64) -> (Vec<ArrayBinding>, u64) {
        let mut base = 0u64;
        let mut binds = Vec::with_capacity(prog.arrays.len());
        for a in &prog.arrays {
            binds.push(ArrayBinding { base });
            let pages = a.bytes().div_ceil(page_bytes).max(1);
            base += pages * page_bytes;
        }
        (binds, base.max(page_bytes))
    }
}

/// Dynamic counts of the executed program (calibration and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Timed array loads.
    pub loads: u64,
    /// Timed array stores.
    pub stores: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Integer ALU operations (including address arithmetic).
    pub iops: u64,
    /// Loop iterations executed.
    pub iters: u64,
    /// Prefetch statements executed (including bundled).
    pub prefetch_stmts: u64,
    /// Release statements executed (including bundled).
    pub release_stmts: u64,
    /// Total pages named by prefetch hints.
    pub prefetch_pages: u64,
}

/// Runtime value.
#[derive(Clone, Copy, Debug)]
enum V {
    F(f64),
    I(i64),
}

impl V {
    fn as_f(self) -> f64 {
        match self {
            V::F(v) => v,
            V::I(v) => v as f64,
        }
    }

    fn as_i(self) -> i64 {
        match self {
            V::F(v) => v as i64,
            V::I(v) => v,
        }
    }
}

/// Why [`Executor::step`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The program has run to completion.
    Done,
    /// The VM-call limit was reached; the next call has not been made.
    Yield,
    /// A load or store is blocked on disk until this simulated time; the
    /// next `step` retries it.
    Blocked(u64),
}

/// One subscript of an address computation.
enum Sub {
    /// Affine in the loop variables and parameters.
    Lin(LinExpr),
    /// An index-array element already loaded onto the stack.
    Ind,
}

/// The address computation of one array reference.
struct Addr {
    /// The array and program, for out-of-range panics.
    what: String,
    base: u64,
    /// Subscript, extent, and row-major stride in bytes of each dimension.
    dims: Box<[(Sub, i64, i64)]>,
    /// Clamp subscripts into their dimensions (hint targets, which may
    /// legally run past the iteration space) instead of checking them.
    clamp: bool,
    /// Index values the computation pops.
    inds: usize,
    /// Integer ops charged here.
    iops: u64,
    /// The cost charged here besides the integer ops.
    extra: Extra,
}

/// The cost of what consumes an address, charged with the address.
#[derive(Clone, Copy)]
enum Extra {
    /// Nothing: an index load charges its access after the load, and a
    /// bundled hint's issue cost comes with its release address.
    Nothing,
    Access,
    Hint,
}

/// One lowered operation. An op that calls the VM changes nothing before
/// its calls, so when [`Executor::step`] returns ahead of one, the next
/// step simply runs the op again.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Push the value of `lins[i]`.
    Lin(usize),
    ConstF(f64),
    ScalarF(usize),
    ScalarI(usize),
    Bin(BinOp),
    Un(UnOp),
    ToF,
    ToI,
    /// Pop into a scalar temporary.
    SetF(usize),
    SetI(usize),
    /// Pop the index values of `addrs[i]`, push the element's address.
    Addr(usize),
    /// Replace an address with the element loaded from it. An index
    /// load (`true`) charges its access after the load.
    Load(ElemType, bool),
    /// Pop an address and a value; store the value.
    Store(ElemType),
    /// Pop an address; hint `pages` pages.
    Prefetch(u64),
    Release(u64),
    /// Pop the release address, then the prefetch address.
    PrefetchRelease(u64, u64),
    /// Enter `loops[i]` (its bounds are computed once, here), or jump
    /// past it to the given op when it runs no iteration.
    Loop(usize, usize),
    /// Start the next iteration of `loops[i]` at the given op, or leave
    /// the loop.
    Next(usize, usize),
    /// Pop two values; jump to the target unless the comparison holds.
    Branch(CmpOp, usize),
    Jump(usize),
    /// Flush pending user time (the end of the program).
    Flush,
    /// Profiler probes, emitted only for a live sink: open `labels[i]`.
    Enter(usize),
    Exit,
}

/// A lowered program.
#[derive(Default)]
struct Code {
    ops: Vec<Op>,
    lins: Vec<LinExpr>,
    addrs: Vec<Addr>,
    /// Loop headers (their bodies are lowered inline).
    loops: Vec<Loop>,
    /// Probe site labels, formatted once so probes never allocate.
    labels: Vec<String>,
}

/// Lowering context: the arrays' base addresses are folded into the
/// code.
struct Lower<'a> {
    prog: &'a Program,
    bases: Vec<u64>,
    probes: bool,
    code: Code,
}

impl Lower<'_> {
    fn emit(&mut self, op: Op) {
        self.code.ops.push(op);
    }

    fn here(&self) -> usize {
        self.code.ops.len()
    }

    fn enter(&mut self, label: &str) {
        if self.probes {
            self.code.labels.push(label.to_string());
            self.emit(Op::Enter(self.code.labels.len() - 1));
        }
    }

    fn exit(&mut self) {
        if self.probes {
            self.emit(Op::Exit);
        }
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        // Loops get their own `for#<var>` site, entered once per loop
        // entry (a probe pair in the iteration latch would dominate
        // what it measures); every other statement class is a site
        // whose self time is the evaluation work not claimed by an
        // `op:*` leaf below it.
        let label = match s {
            Stmt::For(_) => None,
            Stmt::Store { .. } => Some("stmt:store"),
            Stmt::LetF { .. } | Stmt::LetI { .. } => Some("stmt:let"),
            Stmt::If { .. } => Some("stmt:if"),
            Stmt::Prefetch { .. } => Some("stmt:prefetch"),
            Stmt::Release { .. } => Some("stmt:release"),
            Stmt::PrefetchRelease { .. } => Some("stmt:prefetch_release"),
        };
        if let Some(label) = label {
            self.enter(label);
        }
        match s {
            Stmt::For(l) => {
                self.enter(&format!("for#{}", l.var));
                let (i, at) = (self.code.loops.len(), self.here());
                self.code.loops.push(Loop {
                    lo: l.lo.clone(),
                    hi: l.hi.clone(),
                    hi_min: l.hi_min.clone(),
                    body: Vec::new(),
                    ..*l
                });
                self.emit(Op::Loop(i, 0));
                self.block(&l.body);
                self.emit(Op::Next(i, at + 1));
                self.code.ops[at] = Op::Loop(i, self.here());
                self.exit();
            }
            Stmt::Store { dst, value } => {
                self.expr(value);
                self.enter("op:store");
                self.addr(dst, false, Extra::Access, 0);
                self.emit(Op::Store(self.prog.arrays[dst.array].elem));
                self.exit();
            }
            Stmt::LetF { dst, value } => {
                self.expr(value);
                self.emit(Op::SetF(*dst));
            }
            Stmt::LetI { dst, value } => {
                self.expr(value);
                self.emit(Op::SetI(*dst));
            }
            Stmt::If { cond, then_, else_ } => {
                let branch = self.cond(cond);
                self.block(then_);
                let jump = self.here();
                if !else_.is_empty() {
                    self.emit(Op::Jump(0));
                }
                self.code.ops[branch] = Op::Branch(cond.op, self.here());
                self.block(else_);
                if !else_.is_empty() {
                    self.code.ops[jump] = Op::Jump(self.here());
                }
            }
            Stmt::Prefetch { target, pages } => {
                self.addr(&target.target, true, Extra::Hint, 0);
                self.hint(Op::Prefetch(*pages));
            }
            Stmt::Release { target, pages } => {
                self.addr(&target.target, true, Extra::Hint, 0);
                self.hint(Op::Release(*pages));
            }
            Stmt::PrefetchRelease {
                pf,
                pf_pages,
                rel,
                rel_pages,
            } => {
                self.addr(&pf.target, true, Extra::Nothing, 0);
                self.addr(&rel.target, true, Extra::Hint, 0);
                self.hint(Op::PrefetchRelease(*pf_pages, *rel_pages));
            }
        }
        if label.is_some() {
            self.exit();
        }
    }

    /// Lower a condition; returns the index of its branch op, whose
    /// target (the else arm) is patched in by the caller.
    fn cond(&mut self, c: &Cond) -> usize {
        self.expr(&c.lhs);
        self.expr(&c.rhs);
        self.emit(Op::Branch(c.op, 0));
        self.here() - 1
    }

    fn hint(&mut self, op: Op) {
        self.enter("op:hint");
        self.emit(op);
        self.exit();
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::LoadF(r) | Expr::LoadI(r) => {
                self.enter("op:load");
                self.addr(r, false, Extra::Access, 0);
                self.emit(Op::Load(self.prog.arrays[r.array].elem, false));
                self.exit();
            }
            Expr::ScalarF(i) => self.emit(Op::ScalarF(*i)),
            Expr::ScalarI(i) => self.emit(Op::ScalarI(*i)),
            Expr::Lin(l) => {
                self.code.lins.push(l.clone());
                self.emit(Op::Lin(self.code.lins.len() - 1));
            }
            Expr::ConstF(v) => self.emit(Op::ConstF(*v)),
            Expr::Bin(op, a, b) => {
                self.expr(a);
                self.expr(b);
                self.emit(Op::Bin(*op));
            }
            Expr::Un(op, a) => {
                self.expr(a);
                self.emit(Op::Un(*op));
            }
            Expr::ToF(a) => {
                self.expr(a);
                self.emit(Op::ToF);
            }
            Expr::ToI(a) => {
                self.expr(a);
                self.emit(Op::ToI);
            }
        }
    }

    /// Lower the address computation of `r`. `extra` is the cost of the
    /// access or hint that consumes the address, and `iops` integer ops
    /// an enclosing reference accrued before this one; both are charged
    /// with the final [`Op::Addr`]. An indirect subscript is one
    /// timed load of the index-array element, so the ops accrued before
    /// it are charged ahead of that load's flush.
    fn addr(&mut self, r: &ArrayRef, clamp: bool, extra: Extra, mut iops: u64) {
        self.enter("op:addr");
        let prog = self.prog;
        let decl = &prog.arrays[r.array];
        let rank = decl.dims.len();
        let mut dims = Vec::with_capacity(rank);
        let mut inds = 0;
        for (d, ix) in r.idx.iter().enumerate() {
            let sub = match ix {
                Index::Lin(e) => {
                    iops += e.terms.len() as u64;
                    Sub::Lin(e.clone())
                }
                Index::Ind { array, idx } => {
                    let inner = ArrayRef::affine(*array, idx.clone());
                    self.addr(&inner, clamp, Extra::Nothing, iops);
                    self.emit(Op::Load(ElemType::I64, true));
                    iops = 0;
                    inds += 1;
                    Sub::Ind
                }
            };
            let stride = decl.stride(d) * decl.elem.bytes() as i64;
            dims.push((sub, decl.dims[d], stride));
            iops += if d + 1 < rank { 2 } else { 1 };
        }
        self.code.addrs.push(Addr {
            what: format!("array {} ({})", decl.name, prog.name),
            base: self.bases[r.array],
            dims: dims.into(),
            clamp,
            inds,
            iops,
            extra,
        });
        self.emit(Op::Addr(self.code.addrs.len() - 1));
        self.exit();
    }
}

/// Interpreter state for one run: the lowered program, its pc, value
/// stack, loop frames, and scalar state.
///
/// Generic over a host-time [`ProfSink`]: the probe ops are emitted only
/// when the sink is live, so a detached run executes no probe at all.
/// Attach a live collector with [`Executor::with_prof`] (or
/// [`run_program_profiled`]); probes only read the host clock, never the
/// simulated one, so attachment cannot change any simulated timestamp or
/// computed result.
pub struct Executor<P: ProfSink = NoProf> {
    name: String,
    params: Vec<i64>,
    cost: CostModel,
    code: Code,
    pc: usize,
    stack: Vec<V>,
    /// Index and bound of each open loop, innermost last.
    frames: Vec<(i64, i64)>,
    vars: Vec<i64>,
    fscalars: Vec<f64>,
    iscalars: Vec<i64>,
    pending_ns: u64,
    stats: ExecStats,
    /// VM calls made (a blocked access counts once its page is ready).
    calls: u64,
    prof: P,
}

impl Executor<NoProf> {
    /// Prepare an execution of `prog`.
    ///
    /// # Panics
    ///
    /// Panics if the binding or parameter counts do not match the
    /// program, or if the program fails validation.
    pub fn new(prog: &Program, binds: &[ArrayBinding], params: &[i64], cost: CostModel) -> Self {
        Self::with_prof(prog, binds, params, cost, NoProf)
    }
}

impl<P: ProfSink> Executor<P> {
    /// Like [`Executor::new`], but host time is attributed into `prof`.
    pub fn with_prof(
        prog: &Program,
        binds: &[ArrayBinding],
        params: &[i64],
        cost: CostModel,
        prof: P,
    ) -> Self {
        assert_eq!(
            binds.len(),
            prog.arrays.len(),
            "one binding per array required"
        );
        assert_eq!(
            params.len(),
            prog.params.len(),
            "one value per program parameter required"
        );
        let problems = prog.validate();
        assert!(
            problems.is_empty(),
            "invalid program {}: {}",
            prog.name,
            problems.join("; ")
        );
        let mut lower = Lower {
            prog,
            bases: binds.iter().map(|b| b.base).collect(),
            probes: P::ACTIVE,
            code: Code::default(),
        };
        lower.enter(&prog.name);
        lower.block(&prog.body);
        lower.emit(Op::Flush);
        lower.exit();
        let code = lower.code;
        Self {
            name: prog.name.clone(),
            params: params.to_vec(),
            cost,
            pc: 0,
            // Each op pushes at most one value and every statement leaves
            // the stack as it found it, so neither stack ever reallocates.
            stack: Vec::with_capacity(code.ops.len()),
            frames: Vec::with_capacity(code.loops.len()),
            code,
            vars: vec![0; prog.num_vars],
            fscalars: vec![0.0; prog.num_fscalars],
            iscalars: vec![0; prog.num_iscalars],
            pending_ns: 0,
            stats: ExecStats::default(),
            calls: 0,
            prof,
        }
    }

    /// Charge user time by `cost` from here on.
    pub fn set_cost(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// VM calls made so far, `tick_user` flushes included.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Execute the program to completion, returning dynamic counts.
    ///
    /// # Panics
    ///
    /// Panics if `vm` blocks an access; only a caller of
    /// [`Executor::step`] can wait one out.
    pub fn run<M: PagedVm>(mut self, vm: &mut M) -> ExecStats {
        match self.step(vm, u64::MAX) {
            Step::Done => self.stats,
            s => panic!("{}: access {s:?} outside a scheduler", self.name),
        }
    }

    /// Run until the program is done, a load or store blocks, or the
    /// next VM call would be call number `limit + 1`.
    pub fn step<M: PagedVm>(&mut self, vm: &mut M, limit: u64) -> Step {
        loop {
            match self.code.ops.get(self.pc) {
                None => return Step::Done,
                Some(&op) => {
                    if let Err(s) = self.exec(op, vm, limit) {
                        return s;
                    }
                }
            }
        }
    }

    /// Execute one op and advance the pc; `Err` returns from `step`
    /// with the pc still at the op.
    #[inline(always)]
    fn exec<M: PagedVm>(&mut self, op: Op, vm: &mut M, limit: u64) -> Result<(), Step> {
        match op {
            Op::Lin(i) => {
                let l = &self.code.lins[i];
                let v = lin(l, &self.vars, &self.params);
                self.charge_iops(l.terms.len() as u64);
                self.stack.push(V::I(v));
            }
            Op::ConstF(v) => self.stack.push(V::F(v)),
            Op::ScalarF(i) => self.stack.push(V::F(self.fscalars[i])),
            Op::ScalarI(i) => self.stack.push(V::I(self.iscalars[i])),
            Op::Bin(op) => {
                let b = self.pop();
                let a = self.pop();
                let v = self.bin(op, a, b);
                self.stack.push(v);
            }
            Op::Un(op) => {
                let a = self.pop();
                let v = self.un(op, a);
                self.stack.push(v);
            }
            Op::ToF => {
                let v = self.pop();
                self.charge_flop();
                self.stack.push(V::F(v.as_f()));
            }
            Op::ToI => {
                let v = self.pop();
                self.charge_iops(1);
                self.stack.push(V::I(v.as_i()));
            }
            Op::SetF(i) => self.fscalars[i] = self.pop().as_f(),
            Op::SetI(i) => self.iscalars[i] = self.pop().as_i(),
            Op::Addr(i) => {
                let addr = self.addr(i);
                self.stack.push(V::I(addr as i64));
            }
            Op::Load(elem, index) => {
                let addr = self.top_addr();
                self.ready(vm, limit, Some((addr, false)))?;
                let v = match elem {
                    ElemType::F64 => V::F(vm.load_f64(addr)),
                    ElemType::I64 => V::I(vm.load_i64(addr)),
                };
                self.stats.loads += 1;
                if index {
                    self.pending_ns += self.cost.ns_per_access;
                }
                *self.stack.last_mut().expect("an address") = v;
            }
            Op::Store(elem) => {
                let addr = self.top_addr();
                self.ready(vm, limit, Some((addr, true)))?;
                self.stack.pop();
                let v = self.pop();
                match elem {
                    ElemType::F64 => vm.store_f64(addr, v.as_f()),
                    ElemType::I64 => vm.store_i64(addr, v.as_i()),
                }
                self.stats.stores += 1;
            }
            Op::Prefetch(pages) => {
                self.ready(vm, limit, None)?;
                let addr = self.pop_addr();
                self.stats.prefetch_stmts += 1;
                self.stats.prefetch_pages += pages;
                vm.prefetch(addr, pages);
            }
            Op::Release(pages) => {
                self.ready(vm, limit, None)?;
                let addr = self.pop_addr();
                self.stats.release_stmts += 1;
                vm.release(addr, pages);
            }
            Op::PrefetchRelease(pf_pages, rel_pages) => {
                self.ready(vm, limit, None)?;
                let rel = self.pop_addr();
                let pf = self.pop_addr();
                self.stats.prefetch_stmts += 1;
                self.stats.release_stmts += 1;
                self.stats.prefetch_pages += pf_pages;
                vm.prefetch_release(pf, pf_pages, rel, rel_pages);
            }
            Op::Loop(i, exit) => {
                let l = &self.code.loops[i];
                let (vars, params) = (&self.vars, &self.params);
                let lo = lin(&l.lo, vars, params);
                let mut hi = lin(&l.hi, vars, params);
                let mut iops = l.lo.terms.len() + l.hi.terms.len();
                if let Some(m) = &l.hi_min {
                    let m_v = lin(m, vars, params);
                    iops += m.terms.len();
                    hi = if l.step > 0 { hi.min(m_v) } else { hi.max(m_v) };
                }
                let (var, step) = (l.var, l.step);
                self.charge_iops(iops as u64);
                if !more(lo, hi, step) {
                    self.pc = exit;
                    return Ok(());
                }
                self.frames.push((lo, hi));
                self.iterate(var, lo);
            }
            Op::Next(i, body) => {
                let Loop { var, step, .. } = self.code.loops[i];
                let f = self.frames.last_mut().expect("an open loop");
                f.0 += step;
                let (at, hi) = *f;
                if more(at, hi, step) {
                    self.iterate(var, at);
                    self.pc = body;
                    return Ok(());
                }
                self.frames.pop();
            }
            Op::Branch(op, to) => {
                let r = self.pop();
                let l = self.pop();
                self.charge_iops(1);
                if !compare(op, l, r) {
                    self.pc = to;
                    return Ok(());
                }
            }
            Op::Jump(to) => {
                self.pc = to;
                return Ok(());
            }
            Op::Flush => self.flush(vm, limit)?,
            Op::Enter(i) => self.prof.enter(&self.code.labels[i]),
            Op::Exit => self.prof.exit(),
        }
        self.pc += 1;
        Ok(())
    }

    /// Flush pending user time to the VM, unless the call limit comes
    /// first.
    fn flush<M: PagedVm>(&mut self, vm: &mut M, limit: u64) -> Result<(), Step> {
        if self.pending_ns > 0 {
            if self.calls >= limit {
                return Err(Step::Yield);
            }
            vm.tick_user(self.pending_ns);
            self.pending_ns = 0;
            self.calls += 1;
        }
        Ok(())
    }

    /// Ahead of a load, store, or hint call: flush, check the call
    /// limit, and for a load or store (`touch`) make its page ready.
    /// `Ok` counts the call, which the caller then makes.
    fn ready<M: PagedVm>(
        &mut self,
        vm: &mut M,
        limit: u64,
        touch: Option<(u64, bool)>,
    ) -> Result<(), Step> {
        self.flush(vm, limit)?;
        if self.calls >= limit {
            return Err(Step::Yield);
        }
        if let Some(t) = touch.and_then(|(addr, write)| vm.touch_nb(addr, write)) {
            return Err(Step::Blocked(t));
        }
        self.calls += 1;
        Ok(())
    }

    fn pop(&mut self) -> V {
        self.stack.pop().expect("an operand")
    }

    fn top_addr(&self) -> u64 {
        self.stack.last().expect("an address").as_i() as u64
    }

    fn pop_addr(&mut self) -> u64 {
        self.pop().as_i() as u64
    }

    fn iterate(&mut self, var: usize, i: i64) {
        self.vars[var] = i;
        self.stats.iters += 1;
        self.pending_ns += self.cost.ns_per_iter;
    }

    fn charge_iops(&mut self, n: u64) {
        self.stats.iops += n;
        self.pending_ns += self.cost.ns_per_iop * n;
    }

    fn charge_flop(&mut self) {
        self.stats.flops += 1;
        self.pending_ns += self.cost.ns_per_flop;
    }

    /// Byte address of an element, popping its index values. Out-of-range
    /// demand subscripts panic (a kernel bug); hint subscripts clamp.
    fn addr(&mut self, i: usize) -> u64 {
        let a = &self.code.addrs[i];
        let first = self.stack.len() - a.inds;
        let mut ind = first;
        let mut at = a.base as i64;
        for (d, (sub, dim, stride)) in a.dims.iter().enumerate() {
            let mut s = match sub {
                Sub::Lin(l) => lin(l, &self.vars, &self.params),
                Sub::Ind => {
                    ind += 1;
                    self.stack[ind - 1].as_i()
                }
            };
            if a.clamp {
                s = s.clamp(0, dim - 1);
            } else {
                assert!(
                    (0..*dim).contains(&s),
                    "subscript {s} out of range [0,{dim}) in dim {d} of {}",
                    a.what
                );
            }
            at += s * stride;
        }
        self.stack.truncate(first);
        let c = &self.cost;
        self.pending_ns += a.iops * c.ns_per_iop
            + match a.extra {
                Extra::Nothing => 0,
                Extra::Access => c.ns_per_access,
                Extra::Hint => c.ns_per_hint_issue,
            };
        self.stats.iops += a.iops;
        at as u64
    }

    fn bin(&mut self, op: BinOp, a: V, b: V) -> V {
        match (a, b) {
            (V::I(x), V::I(y)) => {
                self.charge_iops(1);
                V::I(match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        assert!(y != 0, "integer division by zero");
                        x / y
                    }
                    BinOp::Rem => {
                        assert!(y != 0, "integer remainder by zero");
                        x % y
                    }
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                })
            }
            _ => {
                let (x, y) = (a.as_f(), b.as_f());
                self.charge_flop();
                V::F(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                })
            }
        }
    }

    fn un(&mut self, op: UnOp, v: V) -> V {
        match (op, v) {
            (UnOp::Neg, V::I(x)) => {
                self.charge_iops(1);
                V::I(-x)
            }
            (UnOp::Abs, V::I(x)) => {
                self.charge_iops(1);
                V::I(x.abs())
            }
            (op, v) => {
                self.charge_flop();
                let x = v.as_f();
                V::F(match op {
                    UnOp::Neg => -x,
                    UnOp::Sqrt => x.sqrt(),
                    UnOp::Ln => x.ln(),
                    UnOp::Abs => x.abs(),
                })
            }
        }
    }
}

fn lin(e: &LinExpr, vars: &[i64], params: &[i64]) -> i64 {
    let value = |s| match s {
        Sym::Var(v) => vars[v],
        Sym::Param(p) => params[p],
    };
    e.c + e.terms.iter().map(|&(k, s)| k * value(s)).sum::<i64>()
}

/// Whether a loop at index `i` runs another iteration.
fn more(i: i64, hi: i64, step: i64) -> bool {
    if step > 0 {
        i < hi
    } else {
        i > hi
    }
}

fn compare(op: CmpOp, l: V, r: V) -> bool {
    fn cmp<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
        match op {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
    match (l, r) {
        (V::I(a), V::I(b)) => cmp(op, a, b),
        (a, b) => cmp(op, a.as_f(), b.as_f()),
    }
}

/// Convenience wrapper: build an executor and run it.
pub fn run_program<M: PagedVm>(
    prog: &Program,
    binds: &[ArrayBinding],
    params: &[i64],
    cost: CostModel,
    vm: &mut M,
) -> ExecStats {
    Executor::new(prog, binds, params, cost).run(vm)
}

/// Like [`run_program`], but with host-time attribution into `prof`:
/// the run lands as a `<prog.name>` subtree of sites (loop nests,
/// statement classes, opcode classes) under the collector's root.
pub fn run_program_profiled<M: PagedVm>(
    prog: &Program,
    binds: &[ArrayBinding],
    params: &[i64],
    cost: CostModel,
    vm: &mut M,
    prof: &mut HostProf,
) -> ExecStats {
    Executor::with_prof(prog, binds, params, cost, prof).run(vm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{lin, var};
    use crate::program::HintTarget;
    use crate::vm::{ArrayData, MemVm};

    /// y[i] = 2*x[i] + y[i] over n elements.
    fn axpy(n: i64) -> Program {
        let mut p = Program::new("axpy");
        let x = p.array("x", ElemType::F64, vec![n]);
        let y = p.array("y", ElemType::F64, vec![n]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(n),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(y, vec![var(i)]),
                value: Expr::add(
                    Expr::mul(
                        Expr::ConstF(2.0),
                        Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                    ),
                    Expr::LoadF(ArrayRef::affine(y, vec![var(i)])),
                ),
            }],
        )];
        p
    }

    fn setup(prog: &Program) -> (Vec<ArrayBinding>, MemVm) {
        let (binds, bytes) = ArrayBinding::sequential(prog, 4096);
        (binds, MemVm::new(bytes, 4096))
    }

    #[test]
    fn axpy_computes_correctly() {
        let p = axpy(100);
        let (binds, mut vm) = setup(&p);
        for i in 0..100u64 {
            vm.poke_f64(binds[0].base + i * 8, i as f64);
            vm.poke_f64(binds[1].base + i * 8, 1.0);
        }
        let stats = run_program(&p, &binds, &[], CostModel::default(), &mut vm);
        for i in 0..100u64 {
            assert_eq!(vm.peek_f64(binds[1].base + i * 8), 2.0 * i as f64 + 1.0);
        }
        assert_eq!(stats.iters, 100);
        assert_eq!(stats.loads, 200);
        assert_eq!(stats.stores, 100);
        assert!(vm.user_ns > 0);
    }

    #[test]
    fn sequential_layout_is_page_aligned_and_disjoint() {
        let p = axpy(1000); // 8000 bytes each: 2 pages
        let (binds, total) = ArrayBinding::sequential(&p, 4096);
        assert_eq!(binds[0].base, 0);
        assert_eq!(binds[1].base, 8192);
        assert_eq!(total, 16384);
    }

    #[test]
    fn indirect_reference_reads_index_array() {
        // a[b[i]] += 1 (histogram).
        let mut p = Program::new("hist");
        let a = p.array("a", ElemType::I64, vec![10]);
        let b = p.array("b", ElemType::I64, vec![5]);
        let i = p.fresh_var();
        let aref = ArrayRef {
            array: a,
            idx: vec![Index::Ind {
                array: b,
                idx: vec![var(i)],
            }],
        };
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(5),
            1,
            vec![Stmt::Store {
                dst: aref.clone(),
                value: Expr::add(Expr::LoadI(aref), Expr::Lin(lin(1))),
            }],
        )];
        let (binds, mut vm) = setup(&p);
        let keys = [3i64, 7, 3, 0, 7];
        for (i, &k) in keys.iter().enumerate() {
            vm.poke_i64(binds[b].base + i as u64 * 8, k);
        }
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        let counts: Vec<i64> = (0..10)
            .map(|i| vm.peek_i64(binds[a].base + i * 8))
            .collect();
        assert_eq!(counts, vec![1, 0, 0, 2, 0, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn symbolic_bounds_come_from_params() {
        let mut p = Program::new("sym");
        let x = p.array("x", ElemType::F64, vec![100]);
        let n = p.param("n");
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            crate::expr::param(n),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::ConstF(1.0),
            }],
        )];
        let (binds, mut vm) = setup(&p);
        let stats = run_program(&p, &binds, &[7], CostModel::free(), &mut vm);
        assert_eq!(stats.iters, 7);
        assert_eq!(vm.peek_f64(binds[x].base + 6 * 8), 1.0);
        assert_eq!(vm.peek_f64(binds[x].base + 7 * 8), 0.0);
    }

    #[test]
    fn negative_step_runs_backwards() {
        let mut p = Program::new("back");
        let x = p.array("x", ElemType::I64, vec![10]);
        let i = p.fresh_var();
        // for (i = 9; i > -1; i--) x[i] = i
        p.body = vec![Stmt::for_(
            i,
            lin(9),
            lin(-1),
            -1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::Lin(var(i)),
            }],
        )];
        let (binds, mut vm) = setup(&p);
        let stats = run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        assert_eq!(stats.iters, 10);
        assert_eq!(vm.peek_i64(binds[x].base + 9 * 8), 9);
        assert_eq!(vm.peek_i64(binds[x].base), 0);
    }

    #[test]
    fn hint_targets_are_clamped_not_fatal() {
        let mut p = Program::new("clamp");
        let x = p.array("x", ElemType::F64, vec![10]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(10),
            1,
            vec![Stmt::Prefetch {
                target: HintTarget {
                    // x[i + 100] runs far past the array; must clamp.
                    target: ArrayRef::affine(x, vec![var(i).offset(100)]),
                },
                pages: 1,
            }],
        )];
        let (binds, mut vm) = setup(&p);
        let stats = run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        assert_eq!(stats.prefetch_stmts, 10);
        assert_eq!(vm.prefetches, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn demand_out_of_bounds_panics() {
        let mut p = Program::new("oob");
        let x = p.array("x", ElemType::F64, vec![10]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(11),
            1,
            vec![Stmt::Store {
                dst: ArrayRef::affine(x, vec![var(i)]),
                value: Expr::ConstF(0.0),
            }],
        )];
        let (binds, mut vm) = setup(&p);
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
    }

    #[test]
    fn scalars_and_conditionals_work() {
        // s = 0; for i { if x[i] > 0.5 { s = s + x[i] } }
        let mut p = Program::new("condsum");
        let x = p.array("x", ElemType::F64, vec![4]);
        let s = p.fresh_fscalar();
        let i = p.fresh_var();
        let sum = p.array("sum", ElemType::F64, vec![1]);
        p.body = vec![
            Stmt::LetF {
                dst: s,
                value: Expr::ConstF(0.0),
            },
            Stmt::for_(
                i,
                lin(0),
                lin(4),
                1,
                vec![Stmt::If {
                    cond: Cond {
                        lhs: Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                        op: CmpOp::Gt,
                        rhs: Expr::ConstF(0.5),
                    },
                    then_: vec![Stmt::LetF {
                        dst: s,
                        value: Expr::add(
                            Expr::ScalarF(s),
                            Expr::LoadF(ArrayRef::affine(x, vec![var(i)])),
                        ),
                    }],
                    else_: vec![],
                }],
            ),
            Stmt::Store {
                dst: ArrayRef::affine(sum, vec![lin(0)]),
                value: Expr::ScalarF(s),
            },
        ];
        let (binds, mut vm) = setup(&p);
        for (i, v) in [0.25, 0.75, 1.0, 0.1].iter().enumerate() {
            vm.poke_f64(binds[x].base + i as u64 * 8, *v);
        }
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        assert_eq!(vm.peek_f64(binds[sum].base), 1.75);
    }

    #[test]
    fn multidim_row_major_addressing() {
        let mut p = Program::new("mat");
        let c = p.array("c", ElemType::F64, vec![3, 4]);
        let i = p.fresh_var();
        let j = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(3),
            1,
            vec![Stmt::for_(
                j,
                lin(0),
                lin(4),
                1,
                vec![Stmt::Store {
                    dst: ArrayRef::affine(c, vec![var(i), var(j)]),
                    value: Expr::Lin(var(i).scale(10).add(&var(j))),
                }],
            )],
        )];
        let (binds, mut vm) = setup(&p);
        run_program(&p, &binds, &[], CostModel::free(), &mut vm);
        // c[2][3] = 23 at flat index 2*4+3 = 11.
        assert_eq!(vm.peek_f64(binds[c].base + 11 * 8), 23.0);
        assert_eq!(vm.peek_f64(binds[c].base + 4 * 8), 10.0);
    }

    #[test]
    fn profiled_run_is_sim_identical_and_attributes_sites() {
        let p = axpy(100);
        let (binds, mut vm) = setup(&p);
        let (binds2, mut vm2) = setup(&p);
        for i in 0..100u64 {
            vm.poke_f64(binds[0].base + i * 8, i as f64);
            vm.poke_f64(binds[1].base + i * 8, 1.0);
            vm2.poke_f64(binds2[0].base + i * 8, i as f64);
            vm2.poke_f64(binds2[1].base + i * 8, 1.0);
        }
        let bare = run_program(&p, &binds, &[], CostModel::default(), &mut vm);
        let mut prof = oocp_obs::HostProf::new();
        let profiled =
            run_program_profiled(&p, &binds2, &[], CostModel::default(), &mut vm2, &mut prof);
        // Host-time-only: identical stats, simulated time, and data.
        assert_eq!(bare, profiled);
        assert_eq!(vm.user_ns, vm2.user_ns);
        for i in 0..100u64 {
            assert_eq!(
                vm.peek_f64(binds[1].base + i * 8),
                vm2.peek_f64(binds2[1].base + i * 8)
            );
        }
        // The capture has the expected shape and counts.
        let capture = prof.finish();
        let rows = capture.rows();
        let find = |path: &str| {
            rows.iter()
                .find(|r| r.path == path)
                .unwrap_or_else(|| panic!("no site {path}"))
        };
        assert_eq!(find("all;axpy").count, 1);
        assert_eq!(
            find("all;axpy;for#0").count,
            1,
            "entered once, not per iter"
        );
        assert_eq!(find("all;axpy;for#0;stmt:store").count, 100);
        assert_eq!(find("all;axpy;for#0;stmt:store;op:load").count, 200);
        assert_eq!(find("all;axpy;for#0;stmt:store;op:store").count, 100);
        assert_eq!(
            find("all;axpy;for#0;stmt:store;op:load;op:addr").count,
            200,
            "addresses resolve under their loads"
        );
        oocp_obs::check_collapsed(&capture.collapsed()).expect("collapsed output validates");
    }

    #[test]
    fn profiled_hints_and_indirection_land_in_their_sites() {
        let mut p = Program::new("hinted");
        let x = p.array("x", ElemType::F64, vec![10]);
        let b = p.array("b", ElemType::I64, vec![10]);
        let i = p.fresh_var();
        p.body = vec![Stmt::for_(
            i,
            lin(0),
            lin(10),
            1,
            vec![
                Stmt::Prefetch {
                    target: HintTarget {
                        target: ArrayRef::affine(x, vec![var(i)]),
                    },
                    pages: 1,
                },
                Stmt::Store {
                    dst: ArrayRef {
                        array: x,
                        idx: vec![Index::Ind {
                            array: b,
                            idx: vec![var(i)],
                        }],
                    },
                    value: Expr::ConstF(1.0),
                },
            ],
        )];
        let (binds, mut vm) = setup(&p);
        for j in 0..10u64 {
            vm.poke_i64(binds[b].base + j * 8, j as i64);
        }
        let mut prof = oocp_obs::HostProf::new();
        run_program_profiled(&p, &binds, &[], CostModel::free(), &mut vm, &mut prof);
        let capture = prof.finish();
        let rows = capture.rows();
        let count = |path: &str| rows.iter().find(|r| r.path == path).map_or(0, |r| r.count);
        assert_eq!(count("all;hinted;for#0;stmt:prefetch;op:hint"), 10);
        // The indirect subscript resolves as a nested op:addr.
        assert_eq!(
            count("all;hinted;for#0;stmt:store;op:store;op:addr;op:addr"),
            10
        );
    }

    #[test]
    fn cost_model_charges_user_time() {
        let p = axpy(10);
        let (binds, mut vm) = setup(&p);
        let cost = CostModel {
            ns_per_access: 100,
            ns_per_flop: 10,
            ns_per_iop: 1,
            ns_per_iter: 1000,
            ns_per_hint_issue: 0,
        };
        run_program(&p, &binds, &[], cost, &mut vm);
        // 10 iterations: 10*1000 iter cost + 30 accesses * 100 + flops...
        assert!(vm.user_ns >= 10 * 1000 + 30 * 100);
    }
}
