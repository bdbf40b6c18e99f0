//! Affine fast path for innermost loops.
//!
//! The tree-walking interpreter pays a full `Expr` traversal plus one
//! `backend.cost` call per emitted event for every iteration. Kernels
//! spend almost all of their time in innermost loops whose body is a
//! single assignment with affine subscripts (`C[i][j] = C[i][j] + ...`),
//! so those loops are compiled once into a [`FastBody`] template:
//!
//! * every subscript is lowered to an affine form over the loop
//!   variables, and the per-dimension bounds checks are discharged for
//!   the *whole* iteration space by testing the two endpoints (an affine
//!   index is monotonic in the inner variable);
//! * the per-iteration cost events are counted structurally at compile
//!   time and retired in bulk (`cost(ev, n * trips)`) — the cost model
//!   only observes totals;
//! * the assignment value becomes a flat postfix program over typed
//!   column registers (`f64` for floats, `i64` for integers). One
//!   evaluator runs it over a whole column of iterations at a time, one
//!   tight loop per op, with the slow path's exact value rules: floats
//!   are widened to `f64` and every arithmetic op rounds through `f32`
//!   as in [`super::Interp::apply_bin`], `Float` literals stay unrounded
//!   until an op uses them, `Min`/`Max` compare in `f64`, and integers
//!   promote `i64 → f64` before any `f32` rounding.
//!
//! Memory traffic takes one of two orders:
//!
//! * **Batched** (the backend opts in via [`Backend::prefers_bulk_runs`]
//!   and [`FastBody::runs_may_batch`] proves the loads are unaffected by
//!   the loop's stores): each chunk of up to [`CHUNK`] iterations gathers
//!   every load with one [`Backend::load_run`], evaluates the program
//!   once over the chunk and writes back with one [`Backend::store_run`].
//!   A loop-carried accumulation `C[i][j] = C[i][j] + r` over the inner
//!   variable evaluates `r` as a column and folds it sequentially in f32,
//!   in the template's own operand order (`acc + r` or `r + acc`; also
//!   `-`, `*`, `/`); other carried shapes run the program once per
//!   element at column length 1.
//! * **Element-ordered** (all other backends, and recurrences such as
//!   `A[i] = A[i-1] + …`): every load and store is issued individually in
//!   the slow path's order, and the program runs at column length 1.
//!
//! Values, cost totals and the final loop variable are bit-identical to
//! the slow path on both orders. Anything the template cannot prove
//! (non-affine subscripts, integer division, multi-statement bodies, an
//! endpoint out of bounds) falls back to the slow path, so errors are
//! identical by construction.

use super::{Backend, CostEvent};
use crate::expr::{Access, BinOp, Expr, UnOp};
use crate::stmt::{ForLoop, Stmt};
use crate::types::{ArrayId, Program};

/// Iterations per batched chunk: the column length of the evaluator.
const CHUNK: usize = 512;

/// Census slots, one per [`CostEvent`] variant.
const EVENTS: [CostEvent; 10] = [
    CostEvent::IntAlu,
    CostEvent::IntMul,
    CostEvent::FpAdd,
    CostEvent::FpMul,
    CostEvent::FpDiv,
    CostEvent::Load,
    CostEvent::Store,
    CostEvent::Cmp,
    CostEvent::Branch,
    CostEvent::CallOverhead,
];

fn slot(ev: CostEvent) -> usize {
    EVENTS.iter().position(|e| *e == ev).expect("every event has a slot")
}

/// `c + sum(coeffs[v] * env[v])` over all program variables.
#[derive(Clone, Debug)]
struct Affine {
    c: i64,
    coeffs: Vec<i64>,
}

impl Affine {
    fn constant(c: i64, vars: usize) -> Self {
        Affine { c, coeffs: vec![0; vars] }
    }

    fn var(v: usize, vars: usize) -> Self {
        let mut a = Affine::constant(0, vars);
        a.coeffs[v] = 1;
        a
    }

    fn is_const(&self) -> bool {
        self.coeffs.iter().all(|c| *c == 0)
    }

    fn add(mut self, o: &Affine) -> Self {
        self.c += o.c;
        for (a, b) in self.coeffs.iter_mut().zip(&o.coeffs) {
            *a += b;
        }
        self
    }

    fn sub(mut self, o: &Affine) -> Self {
        self.c -= o.c;
        for (a, b) in self.coeffs.iter_mut().zip(&o.coeffs) {
            *a -= b;
        }
        self
    }

    fn neg(mut self) -> Self {
        self.c = -self.c;
        for a in &mut self.coeffs {
            *a = -*a;
        }
        self
    }

    fn scale(mut self, k: i64) -> Self {
        self.c *= k;
        for a in &mut self.coeffs {
            *a *= k;
        }
        self
    }

    /// Value under `env` with variable `inner` contributing zero.
    fn base(&self, env: &[i64], inner: usize) -> i64 {
        let mut v = self.c;
        for (i, k) in self.coeffs.iter().enumerate() {
            if i != inner && *k != 0 {
                v += k * env[i];
            }
        }
        v
    }
}

/// Lowers an index expression to affine form, tallying the cost events
/// the slow-path `eval` would emit for it. Partial census updates from a
/// failed lowering are harmless: any `None` discards the whole template.
fn affine_expr(e: &Expr, vars: usize, costs: &mut [u64; 10]) -> Option<Affine> {
    match e {
        Expr::Int(v) => Some(Affine::constant(*v, vars)),
        Expr::Var(v) => Some(Affine::var(v.0, vars)),
        Expr::Float(_) | Expr::Load(_) => None,
        Expr::Unary(UnOp::Neg, e) => {
            let a = affine_expr(e, vars, costs)?;
            costs[slot(CostEvent::IntAlu)] += 1;
            Some(a.neg())
        }
        Expr::Bin(op, l, r) => {
            let a = affine_expr(l, vars, costs)?;
            let b = affine_expr(r, vars, costs)?;
            match op {
                BinOp::Add => {
                    costs[slot(CostEvent::IntAlu)] += 1;
                    Some(a.add(&b))
                }
                BinOp::Sub => {
                    costs[slot(CostEvent::IntAlu)] += 1;
                    Some(a.sub(&b))
                }
                BinOp::Mul => {
                    costs[slot(CostEvent::IntMul)] += 1;
                    if b.is_const() {
                        Some(a.scale(b.c))
                    } else if a.is_const() {
                        Some(b.scale(a.c))
                    } else {
                        None // quadratic
                    }
                }
                // Div can fault; Min/Max are not affine.
                BinOp::Div | BinOp::Min | BinOp::Max => None,
            }
        }
    }
}

/// A lowered array access: per-dimension affine subscripts (with their
/// extents, for the endpoint bounds proof) plus the row-major flattened
/// affine index.
struct AccessPlan {
    array: ArrayId,
    dims: Vec<(Affine, usize)>,
    flat: Affine,
}

fn compile_access(prog: &Program, a: &Access, costs: &mut [u64; 10]) -> Option<AccessPlan> {
    let decl = prog.array(a.array);
    if a.idx.len() != decl.dims.len() {
        return None; // slow path reports the TypeError
    }
    let vars = prog.vars.len();
    let mut flat = Affine::constant(0, vars);
    let mut dims = Vec::with_capacity(a.idx.len());
    for (d, e) in a.idx.iter().enumerate() {
        let aff = affine_expr(e, vars, costs)?;
        // One multiply-accumulate of address arithmetic per dim.
        costs[slot(CostEvent::IntAlu)] += 1;
        flat = flat.scale(decl.dims[d] as i64).add(&aff);
        dims.push((aff, decl.dims[d]));
    }
    Some(AccessPlan { array: a.array, dims, flat })
}

/// One postfix instruction of a compiled assignment value. Each op pops
/// its operands from and pushes its result onto the float (`f64`) or the
/// integer (`i64`) column stack; the structural type of every node is
/// fixed at compile time (literals and loads are fixed, `Bin` is integer
/// iff both operands are), which is also what lets the census pick the
/// right event per operation ahead of time.
#[derive(Clone, Copy, Debug)]
enum Op {
    Int(i64),
    Float(f64),
    Var(usize),
    /// Load slot in `FastBody::loads`; gathered per loop entry.
    Load(usize),
    /// Integer column to float column (`i64 as f64`, as `Value::as_f64`).
    Promote,
    INeg,
    FNeg,
    IBin(BinOp),
    FBin(BinOp),
}

/// Compiles a value expression into postfix `ops`, returning whether it
/// is integer-typed.
fn compile_expr(
    prog: &Program,
    e: &Expr,
    costs: &mut [u64; 10],
    loads: &mut Vec<AccessPlan>,
    ops: &mut Vec<Op>,
) -> Option<bool> {
    let is_int = match e {
        Expr::Int(v) => {
            ops.push(Op::Int(*v));
            true
        }
        Expr::Float(v) => {
            ops.push(Op::Float(*v));
            false
        }
        Expr::Var(v) => {
            ops.push(Op::Var(v.0));
            true
        }
        Expr::Load(a) => {
            let plan = compile_access(prog, a, costs)?;
            costs[slot(CostEvent::Load)] += 1;
            loads.push(plan);
            ops.push(Op::Load(loads.len() - 1));
            false
        }
        Expr::Unary(UnOp::Neg, e) => {
            let is_int = compile_expr(prog, e, costs, loads, ops)?;
            costs[slot(if is_int { CostEvent::IntAlu } else { CostEvent::FpAdd })] += 1;
            ops.push(if is_int { Op::INeg } else { Op::FNeg });
            is_int
        }
        Expr::Bin(op, l, r) => {
            let li = compile_expr(prog, l, costs, loads, ops)?;
            let mid = ops.len();
            let ri = compile_expr(prog, r, costs, loads, ops)?;
            let is_int = li && ri;
            let ev = if is_int {
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => CostEvent::IntAlu,
                    BinOp::Mul => CostEvent::IntMul,
                    // Integer division can fault mid-loop; keep it on the
                    // slow path so the error surfaces identically.
                    BinOp::Div => return None,
                }
            } else {
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => CostEvent::FpAdd,
                    BinOp::Mul => CostEvent::FpMul,
                    BinOp::Div => CostEvent::FpDiv,
                }
            };
            costs[slot(ev)] += 1;
            if is_int {
                ops.push(Op::IBin(*op));
            } else {
                // Promote an integer operand while its column is on top.
                if ri {
                    ops.push(Op::Promote);
                }
                if li {
                    ops.insert(mid, Op::Promote);
                }
                ops.push(Op::FBin(*op));
            }
            is_int
        }
    };
    Some(is_int)
}

/// Float and integer column registers, each [`CHUNK`] long. A program
/// of `n` ops never stacks more than `n` columns of either type.
#[derive(Default)]
struct Columns {
    f: Vec<Vec<f64>>,
    i: Vec<Vec<i64>>,
}

/// Per-loop-entry working storage, reused across entries and loops so a
/// loop entry allocates nothing.
#[derive(Default)]
pub(super) struct Scratch {
    /// Gathered load columns, one per load slot.
    bufs: Vec<Vec<f32>>,
    /// Values to store.
    out: Vec<f32>,
    /// Resolved `(array, base, stride)` of each load slot.
    lflat: Vec<(ArrayId, i64, i64)>,
    cols: Columns,
}

fn grow<T: Clone + Default>(cols: &mut Vec<Vec<T>>, n: usize) {
    while cols.len() < n {
        cols.push(vec![T::default(); CHUNK]);
    }
}

/// The iterations one evaluation covers: `n` consecutive elements of
/// the gathered buffers starting at `at`, the first of which has inner
/// loop variable `i`.
#[derive(Clone, Copy)]
struct Window {
    at: usize,
    n: usize,
    i: i64,
    step: i64,
}

fn map2<T: Copy>(x: &mut [T], y: &[T], f: impl Fn(T, T) -> T) {
    for (a, b) in x.iter_mut().zip(y) {
        *a = f(*a, *b);
    }
}

/// Runs a float-typed postfix program over the window, one loop per op,
/// and returns its value column. Loads read `bufs[slot][w.at..]`;
/// `Var(inner)` is the inner variable's progression, any other variable
/// is loop-invariant and read from `env`.
fn eval<'c>(
    ops: &[Op],
    cols: &'c mut Columns,
    bufs: &[Vec<f32>],
    w: Window,
    env: &[i64],
    inner: usize,
) -> &'c [f64] {
    let n = w.n;
    let (mut fd, mut id) = (0usize, 0usize);
    for op in ops {
        match *op {
            Op::Int(v) => {
                cols.i[id][..n].fill(v);
                id += 1;
            }
            Op::Float(v) => {
                cols.f[fd][..n].fill(v);
                fd += 1;
            }
            Op::Var(v) => {
                let col = &mut cols.i[id][..n];
                if v == inner {
                    for (j, x) in col.iter_mut().enumerate() {
                        *x = w.i + j as i64 * w.step;
                    }
                } else {
                    col.fill(env[v]);
                }
                id += 1;
            }
            Op::Load(k) => {
                for (x, b) in cols.f[fd][..n].iter_mut().zip(&bufs[k][w.at..w.at + n]) {
                    *x = *b as f64;
                }
                fd += 1;
            }
            Op::Promote => {
                id -= 1;
                for (x, v) in cols.f[fd][..n].iter_mut().zip(&cols.i[id][..n]) {
                    *x = *v as f64;
                }
                fd += 1;
            }
            Op::INeg => cols.i[id - 1][..n].iter_mut().for_each(|x| *x = -*x),
            Op::FNeg => cols.f[fd - 1][..n].iter_mut().for_each(|x| *x = -*x),
            Op::IBin(op) => {
                id -= 1;
                let (lo, hi) = cols.i.split_at_mut(id);
                let (x, y) = (&mut lo[id - 1][..n], &hi[0][..n]);
                match op {
                    BinOp::Add => map2(x, y, |a, b| a + b),
                    BinOp::Sub => map2(x, y, |a, b| a - b),
                    BinOp::Mul => map2(x, y, |a, b| a * b),
                    BinOp::Min => map2(x, y, i64::min),
                    BinOp::Max => map2(x, y, i64::max),
                    BinOp::Div => unreachable!("integer division is rejected at compile time"),
                }
            }
            Op::FBin(op) => {
                fd -= 1;
                let (lo, hi) = cols.f.split_at_mut(fd);
                let (x, y) = (&mut lo[fd - 1][..n], &hi[0][..n]);
                // Same f32 rounding rules as the slow path's apply_bin.
                match op {
                    BinOp::Add => map2(x, y, |a, b| (a as f32 + b as f32) as f64),
                    BinOp::Sub => map2(x, y, |a, b| (a as f32 - b as f32) as f64),
                    BinOp::Mul => map2(x, y, |a, b| (a as f32 * b as f32) as f64),
                    BinOp::Div => map2(x, y, |a, b| (a as f32 / b as f32) as f64),
                    BinOp::Min => map2(x, y, f64::min),
                    BinOp::Max => map2(x, y, f64::max),
                }
            }
        }
    }
    debug_assert_eq!((fd, id), (1, 0), "value programs leave one float column");
    &cols.f[0][..n]
}

/// The loop-carried fold: `out[j] = acc = f(acc, r[j])` with the carried
/// value on the `left`, else `f(r[j], acc)`; `r` rounds through f32 as
/// the slow path's operand would.
fn carried_fold(mut acc: f32, left: bool, r: &[f64], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    if left {
        for (o, r) in out.iter_mut().zip(r) {
            acc = f(acc, *r as f32);
            *o = acc;
        }
    } else {
        for (o, r) in out.iter_mut().zip(r) {
            acc = f(*r as f32, acc);
            *o = acc;
        }
    }
}

/// A compiled innermost loop: `for i in lo..hi step s { target = value }`
/// with everything affine. Cached per `ForLoop` node by the interpreter.
pub(super) struct FastBody {
    target: AccessPlan,
    loads: Vec<AccessPlan>,
    /// The value as a float-typed postfix program.
    ops: Vec<Op>,
    /// `(slot, carried_on_left)` for each direct `Load` operand of a
    /// root f32 arithmetic op: the candidates for the carried fold.
    folds: Vec<(usize, bool)>,
    /// Cost events one iteration emits on the slow path, by [`EVENTS`] slot.
    costs: [u64; 10],
}

impl FastBody {
    /// Compiles the loop body, or `None` if any part of it is outside the
    /// fast path's provable subset.
    pub(super) fn compile(prog: &Program, l: &ForLoop) -> Option<FastBody> {
        if l.step <= 0 || l.body.len() != 1 {
            return None;
        }
        let Stmt::Assign(a) = &l.body[0] else { return None };
        let mut costs = [0u64; 10];
        // Loop head per iteration: compare, branch, induction increment.
        costs[slot(CostEvent::Cmp)] += 1;
        costs[slot(CostEvent::Branch)] += 1;
        costs[slot(CostEvent::IntAlu)] += 1;
        let (mut loads, mut ops) = (Vec::new(), Vec::new());
        // Body order mirrors the slow path: value first, then target.
        if compile_expr(prog, &a.value, &mut costs, &mut loads, &mut ops)? {
            ops.push(Op::Promote); // the store widens an integer value
        }
        let target = compile_access(prog, &a.target, &mut costs)?;
        costs[slot(CostEvent::Store)] += 1;
        // Postfix `[Load k] [rest…] FBin(op)` or `[rest…] [Load k] FBin(op)`.
        let mut folds = Vec::new();
        if let Expr::Bin(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, l, r) = &a.value {
            if let (Expr::Load(_), Op::Load(k)) = (&**l, ops[0]) {
                folds.push((k, true));
            }
            if let (Expr::Load(_), Op::Load(k)) = (&**r, ops[ops.len() - 2]) {
                folds.push((k, false));
            }
        }
        Some(FastBody { target, loads, ops, folds, costs })
    }

    /// Executes the loop if the whole iteration space is provably in
    /// bounds; returns `false` to defer to the slow path. `lo`/`hi` are
    /// the already-evaluated loop bounds.
    pub(super) fn run<B: Backend>(
        &self,
        l: &ForLoop,
        lo: i64,
        hi: i64,
        env: &mut [i64],
        backend: &mut B,
        scratch: &mut Scratch,
    ) -> bool {
        let inner = l.var.0;
        if hi <= lo {
            // Zero-trip loop: just the exit check, env untouched.
            backend.cost(CostEvent::Cmp, 1);
            backend.cost(CostEvent::Branch, 1);
            return true;
        }
        let trips = (hi - lo + l.step - 1) / l.step;
        let last = lo + (trips - 1) * l.step;
        // An affine subscript is monotonic in the inner variable, so
        // checking the first and last iterations bounds them all.
        let resolve = |plan: &AccessPlan| -> Option<(i64, i64)> {
            for (aff, extent) in &plan.dims {
                let b = aff.base(env, inner);
                let s = aff.coeffs[inner];
                for i in [lo, last] {
                    let v = b + s * i;
                    if v < 0 || v as usize >= *extent {
                        return None;
                    }
                }
            }
            Some((plan.flat.base(env, inner), plan.flat.coeffs[inner]))
        };
        let Some(tflat) = resolve(&self.target) else { return false };
        scratch.lflat.clear();
        for plan in &self.loads {
            let Some((base, stride)) = resolve(plan) else { return false };
            scratch.lflat.push((plan.array, base, stride));
        }
        // Retire the whole loop's census in bulk. The cost model only
        // accumulates totals; ordering is observable solely through
        // load/store.
        for (ev, n) in EVENTS.iter().zip(&self.costs) {
            if *n > 0 {
                backend.cost(*ev, n * trips as u64);
            }
        }
        // Loop exit check.
        backend.cost(CostEvent::Cmp, 1);
        backend.cost(CostEvent::Branch, 1);
        grow(&mut scratch.bufs, self.loads.len());
        grow(&mut scratch.cols.f, self.ops.len());
        grow(&mut scratch.cols.i, self.ops.len());
        scratch.out.resize(CHUNK, 0.0);
        if backend.prefers_bulk_runs() && self.runs_may_batch(tflat, &scratch.lflat, lo, last) {
            self.run_batched(l.step, lo, trips, tflat, env, inner, backend, scratch);
        } else {
            let Scratch { bufs, lflat, cols, .. } = scratch;
            for t in 0..trips {
                let i = lo + t * l.step;
                for (buf, &(arr, base, stride)) in bufs.iter_mut().zip(lflat.iter()) {
                    buf[0] = backend.load(arr, (base + stride * i) as usize);
                }
                let w = Window { at: 0, n: 1, i, step: l.step };
                let v = eval(&self.ops, cols, bufs, w, env, inner)[0];
                backend.store(self.target.array, (tflat.0 + tflat.1 * i) as usize, v as f32);
            }
        }
        env[inner] = last;
        true
    }

    /// Whether batching the loop into per-array runs preserves scalar
    /// semantics: every load must be unaffected by the loop's own stores.
    /// Distinct arrays never alias (separate allocations). For a load of
    /// the target array, three safe shapes: the *same* affine progression
    /// as the store with a nonzero stride (each iteration reads its own
    /// element before writing it, and never one a previous iteration
    /// wrote — the reduction `C[i] = C[i] + …`), the same progression
    /// with stride zero (the inner-product accumulation `C[i][j] += …`
    /// over an outer subscript — carried through a register by
    /// [`FastBody::run_batched`], bit-exact because the scalar loop's
    /// f32 chain is reproduced operation for operation), or index ranges
    /// that are provably disjoint. Anything else — e.g. the recurrence
    /// `A[i] = A[i-1] + …` — keeps the element-ordered path.
    fn runs_may_batch(
        &self,
        tflat: (i64, i64),
        lflat: &[(ArrayId, i64, i64)],
        lo: i64,
        last: i64,
    ) -> bool {
        let range = |base: i64, stride: i64| {
            let (a, b) = (base + stride * lo, base + stride * last);
            (a.min(b), a.max(b))
        };
        let (tmin, tmax) = range(tflat.0, tflat.1);
        for &(arr, base, stride) in lflat {
            if arr != self.target.array {
                continue;
            }
            if (base, stride) == tflat {
                continue;
            }
            let (lmin, lmax) = range(base, stride);
            if tmax < lmin || lmax < tmin {
                continue;
            }
            return false;
        }
        true
    }

    /// Batched execution: gather each load slot's chunk with one
    /// [`Backend::load_run`], evaluate the chunk as columns, write it back
    /// with one [`Backend::store_run`]. Values and cost totals are
    /// identical to the element loop (guarded by
    /// [`FastBody::runs_may_batch`]); only the access interleaving
    /// changes, which is exactly what a run-capable backend asks for via
    /// [`Backend::prefers_bulk_runs`].
    #[allow(clippy::too_many_arguments)]
    fn run_batched<B: Backend>(
        &self,
        step: i64,
        lo: i64,
        trips: i64,
        tflat: (i64, i64),
        env: &[i64],
        inner: usize,
        backend: &mut B,
        scratch: &mut Scratch,
    ) {
        let Scratch { bufs, out, lflat, cols } = scratch;
        // With a zero store stride, loads of the same (base, stride) form a
        // loop-carried accumulation (`C[i][j] += A[i][k] * B[k][j]` over k):
        // each iteration reads the value the previous one stored. Those
        // slots resolve from a register instead of the gathered buffer —
        // the f32 operation chain is the scalar loop's, bit for bit — while
        // the gather and writeback still issue the same number of accesses
        // to the target's line as the element loop did.
        let target = self.target.array;
        let carried = |&(arr, base, stride): &(ArrayId, i64, i64)| {
            tflat.1 == 0 && arr == target && (base, stride) == tflat
        };
        let first_carried = lflat.iter().position(carried);
        // A single carried slot that is a direct operand of the root op
        // folds the rest of the value, evaluated as one column.
        let fold = first_carried
            .filter(|_| lflat.iter().filter(|x| carried(x)).count() == 1)
            .and_then(|k| self.folds.iter().find(|f| f.0 == k))
            .map(|f| f.1);
        let n = self.ops.len();
        let mut t0: i64 = 0;
        while t0 < trips {
            let m = CHUNK.min((trips - t0) as usize);
            let i0 = lo + t0 * step;
            for (buf, &(arr, base, stride)) in bufs.iter_mut().zip(lflat.iter()) {
                backend.load_run(arr, base + stride * i0, stride * step, &mut buf[..m]);
            }
            let chunk = Window { at: 0, n: m, i: i0, step };
            let out = &mut out[..m];
            match (first_carried, fold) {
                (None, _) => {
                    let v = eval(&self.ops, cols, bufs, chunk, env, inner);
                    for (o, v) in out.iter_mut().zip(v) {
                        *o = *v as f32;
                    }
                }
                (Some(k), Some(left)) => {
                    // The target cell's current value; at chunk boundaries
                    // the previous writeback left it equal to the register.
                    let acc = bufs[k][0];
                    let rest = if left { &self.ops[1..n - 1] } else { &self.ops[..n - 2] };
                    let r = eval(rest, cols, bufs, chunk, env, inner);
                    match self.ops[n - 1] {
                        Op::FBin(BinOp::Add) => carried_fold(acc, left, r, out, |a, b| a + b),
                        Op::FBin(BinOp::Sub) => carried_fold(acc, left, r, out, |a, b| a - b),
                        Op::FBin(BinOp::Mul) => carried_fold(acc, left, r, out, |a, b| a * b),
                        Op::FBin(BinOp::Div) => carried_fold(acc, left, r, out, |a, b| a / b),
                        _ => unreachable!("folds root at an f32 arithmetic op"),
                    }
                }
                (Some(k), None) => {
                    let mut acc = bufs[k][0];
                    for (j, o) in out.iter_mut().enumerate() {
                        for (buf, x) in bufs.iter_mut().zip(lflat.iter()) {
                            if carried(x) {
                                buf[j] = acc;
                            }
                        }
                        let w = Window { at: j, n: 1, i: i0 + j as i64 * step, step };
                        acc = eval(&self.ops, cols, bufs, w, env, inner)[0] as f32;
                        *o = acc;
                    }
                }
            }
            backend.store_run(target, tflat.0 + tflat.1 * i0, tflat.1 * step, out);
            t0 += m as i64;
        }
    }
}
