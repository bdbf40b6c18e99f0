//! Differential properties for the interpreter's affine fast path.
//!
//! `interp::run` (fast path enabled) and `interp::run_reference` (plain
//! tree-walker) must be observationally identical on every program: same
//! array contents bit for bit, same cost-event totals, same ordered
//! load/store sequence, same error. The generator covers the shapes the
//! fast path accelerates (axpy, strided, triangular, GEMM, loop-carried
//! recurrences, reversed subscripts, carried reductions on either side of
//! the `+`, integer variables and unrepresentable literals inside float
//! expressions, `Neg`/`Min`/`Max`/`Div`) and the shapes it must decline
//! (non-affine subscripts, integer division, runtime out-of-bounds).
//! Arrays are filled with small integers, fractional values, or a mix
//! with specials (NaN payloads, ±inf, −0.0, subnormals), and trip counts
//! reach past the evaluator's 512-iteration chunk.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tdo_ir::interp::{self, Backend, CostEvent, InterpError, ResolvedArg};
use tdo_ir::{Access, ArrayId, Expr, Program, Stmt};

/// Records everything a backend can observe.
#[derive(Default, Clone, PartialEq, Debug)]
struct Recorder {
    arrays: Vec<Vec<f32>>,
    /// (event discriminant, count) totals.
    costs: BTreeMap<String, u64>,
    /// Ordered data-access log: (is_store, array, flat, value bits).
    accesses: Vec<(bool, usize, usize, u32)>,
}

/// A value's bits with every NaN mapped to one pattern. Rust leaves NaN
/// payloads and signs of arithmetic results unspecified (code generation
/// may commute an `a + b` even unoptimised), so they are not observable;
/// everything else, including the sign of zero, is compared exactly.
fn canon(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

impl Recorder {
    fn for_program(p: &Program) -> Self {
        Recorder::filled(p, 0)
    }

    /// Deterministic non-trivial fill so loads matter: `kind` 0 is small
    /// integers, 1 fractional values, 2 fractional values with every
    /// third cell a special.
    fn filled(p: &Program, kind: usize) -> Self {
        let arrays = (0..p.arrays.len())
            .map(|i| {
                let len: usize = p.array(ArrayId(i)).dims.iter().product();
                (0..len.max(1)).map(|j| fill(kind, i * 7 + j)).collect()
            })
            .collect();
        Recorder { arrays, ..Recorder::default() }
    }

    /// Array contents as [`canon`] bit patterns: `f32` equality would
    /// treat NaNs as unequal and ±0.0 as equal.
    fn bits(&self) -> Vec<Vec<u32>> {
        self.arrays.iter().map(|a| a.iter().map(|v| canon(*v)).collect()).collect()
    }
}

fn fill(kind: usize, j: usize) -> f32 {
    let frac = ((j * 7919 + 13) % 2003) as f32 / 97.0 - 10.3;
    match kind {
        0 => (j % 13) as f32 - 6.0,
        1 => frac,
        _ if !j.is_multiple_of(3) => frac,
        _ => match (j / 3) % 9 {
            // A distinct quiet-NaN payload per cell.
            0 => f32::from_bits(0x7fc0_0000 | (j as u32 & 0x3f_ffff)),
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => 1e-40,              // subnormal
            6 => -f32::from_bits(1), // smallest negative subnormal
            7 => f32::MIN_POSITIVE,
            _ => f32::MAX,
        },
    }
}

/// `for v in lo..hi step s { target = value }`.
fn one_loop(v: tdo_ir::VarId, lo: i64, hi: i64, step: i64, target: Access, value: Expr) -> Stmt {
    Stmt::for_loop(v, Expr::Int(lo), Expr::Int(hi), step, vec![Stmt::assign(target, value)])
}

/// `A[idx]` for a store target.
fn at(array: ArrayId, idx: Vec<Expr>) -> Access {
    Access { array, idx }
}

/// Loop-variable offset whose value does not survive the double rounding
/// `i64 → f64 → f32` unchanged: the slow path promotes through `f64`, so
/// a direct `i64 → f32` conversion differs on the first iterations.
const BIG: i64 = (1 << 54) + (1 << 30) + 1;

impl Backend for Recorder {
    fn load(&mut self, a: ArrayId, flat: usize) -> f32 {
        let v = self.arrays[a.0][flat];
        self.accesses.push((false, a.0, flat, canon(v)));
        v
    }
    fn store(&mut self, a: ArrayId, flat: usize, v: f32) {
        self.arrays[a.0][flat] = v;
        self.accesses.push((true, a.0, flat, canon(v)));
    }
    fn cost(&mut self, ev: CostEvent, n: u64) {
        *self.costs.entry(format!("{ev:?}")).or_insert(0) += n;
    }
    fn call(&mut self, _: &Program, c: &str, _: &[ResolvedArg]) -> Result<(), InterpError> {
        Err(InterpError::UnknownCall(c.into()))
    }
}

/// Number of program shapes [`build_program`] knows.
const SHAPES: usize = 18;

/// Builds one of the generator's program shapes over problem size `n`
/// and stride `step`. Nests whose inner loop runs over `n` keep their
/// outer extents small when `n` is large.
fn build_program(shape: usize, n: usize, step: i64) -> Program {
    let mut p = Program::new("fast-loop-case");
    let ni = n as i64;
    let outer = if n > 16 { 2 } else { n };
    let oi = outer as i64;
    match shape {
        // axpy: Y[i] = Y[i] + 2.5 * X[i]
        0 => {
            let x = p.add_array("X", vec![n]);
            let y = p.add_array("Y", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: y, idx: vec![Expr::Var(i)] },
                    Expr::add(
                        Expr::load(y, vec![Expr::Var(i)]),
                        Expr::mul(Expr::Float(2.5), Expr::load(x, vec![Expr::Var(i)])),
                    ),
                )],
            )];
        }
        // strided store with affine offset: A[i] = X[i] * 2.0, step > 1
        1 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                step.max(1),
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Var(i)] },
                    Expr::mul(Expr::load(x, vec![Expr::Var(i)]), Expr::Float(2.0)),
                )],
            )];
        }
        // triangular nest: for i, for j in i..n: A[i][j] = X[j] + 1.0
        2 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n, n]);
            let i = p.fresh_var("i");
            let j = p.fresh_var("j");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::for_loop(
                    j,
                    Expr::Var(i),
                    Expr::Int(ni),
                    1,
                    vec![Stmt::assign(
                        Access { array: a, idx: vec![Expr::Var(i), Expr::Var(j)] },
                        Expr::add(Expr::load(x, vec![Expr::Var(j)]), Expr::Float(1.0)),
                    )],
                )],
            )];
        }
        // GEMM inner product: C[i][j] += A[i][k] * B[k][j]
        3 => {
            let a = p.add_array("A", vec![outer, n]);
            let b = p.add_array("B", vec![n, outer]);
            let c = p.add_array("C", vec![outer, outer]);
            let i = p.fresh_var("i");
            let j = p.fresh_var("j");
            let k = p.fresh_var("k");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(oi),
                1,
                vec![Stmt::for_loop(
                    j,
                    Expr::Int(0),
                    Expr::Int(oi),
                    1,
                    vec![Stmt::for_loop(
                        k,
                        Expr::Int(0),
                        Expr::Int(ni),
                        1,
                        vec![Stmt::assign(
                            Access { array: c, idx: vec![Expr::Var(i), Expr::Var(j)] },
                            Expr::add(
                                Expr::load(c, vec![Expr::Var(i), Expr::Var(j)]),
                                Expr::mul(
                                    Expr::load(a, vec![Expr::Var(i), Expr::Var(k)]),
                                    Expr::load(b, vec![Expr::Var(k), Expr::Var(j)]),
                                ),
                            ),
                        )],
                    )],
                )],
            )];
        }
        // reversed subscript (negative inner coefficient): A[n-1-i] = X[i]
        4 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::sub(Expr::Int(ni - 1), Expr::Var(i))] },
                    Expr::load(x, vec![Expr::Var(i)]),
                )],
            )];
        }
        // loop-carried recurrence: A[i] = A[i-1] + X[i], i in 1..n
        5 => {
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(1),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Var(i)] },
                    Expr::add(
                        Expr::load(a, vec![Expr::sub(Expr::Var(i), Expr::Int(1))]),
                        Expr::load(x, vec![Expr::Var(i)]),
                    ),
                )],
            )];
        }
        // non-affine subscript (declined): A[min(i, n-1)] = 1.0
        6 => {
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::min(Expr::Var(i), Expr::Int(ni - 1))] },
                    Expr::Float(1.0),
                )],
            )];
        }
        // integer division in the value (declined): A[i] = i / 2
        7 => {
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::Var(i)] },
                    Expr::div(Expr::Var(i), Expr::Int(2)),
                )],
            )];
        }
        // runtime out-of-bounds on the last iteration: A[i+1] = 0.0
        8 => {
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(ni),
                1,
                vec![Stmt::assign(
                    Access { array: a, idx: vec![Expr::add(Expr::Var(i), Expr::Int(1))] },
                    Expr::Float(0.0),
                )],
            )];
        }
        // carried on the right of the `+` (gesummv/mvt after lowering):
        // t[i] = A[i][j] * x[j] + t[i]
        9 => {
            let a = p.add_array("A", vec![outer, n]);
            let x = p.add_array("x", vec![n]);
            let t = p.add_array("t", vec![outer]);
            let i = p.fresh_var("i");
            let j = p.fresh_var("j");
            let value = Expr::add(
                Expr::mul(
                    Expr::load(a, vec![Expr::Var(i), Expr::Var(j)]),
                    Expr::load(x, vec![Expr::Var(j)]),
                ),
                Expr::load(t, vec![Expr::Var(i)]),
            );
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(oi),
                1,
                vec![one_loop(j, 0, ni, step, at(t, vec![Expr::Var(i)]), value)],
            )];
        }
        // integer variable inside a float expression, at a small offset
        // (10) or one that double rounding changes (11):
        // A[i-off] = X[i-off] * i
        10 | 11 => {
            let off = if shape == 10 { 0 } else { BIG };
            let x = p.add_array("X", vec![n]);
            let a = p.add_array("A", vec![n]);
            let i = p.fresh_var("i");
            let idx = || vec![Expr::sub(Expr::Var(i), Expr::Int(off))];
            let value = Expr::mul(Expr::load(x, idx()), Expr::Var(i));
            p.body = vec![one_loop(i, off, off + ni, step, at(a, idx()), value)];
        }
        // Neg, Div, Min and Max with literals f32 cannot represent, in
        // both operand orders; a literal that rounds to ±0.0 makes the
        // f64 comparison observable against zero data of the other sign
        // (whichever operand a tie between zeros returns).
        12 => {
            let x = p.add_array("X", vec![n]);
            let y = p.add_array("Y", vec![n]);
            let outs: Vec<ArrayId> =
                (0..5).map(|k| p.add_array(format!("O{k}"), vec![n])).collect();
            let i = p.fresh_var("i");
            let ld = |arr| Expr::load(arr, vec![Expr::Var(i)]);
            let values = [
                Expr::max(Expr::Float(1e-50), ld(x)),
                Expr::max(ld(x), Expr::Float(1e-50)),
                Expr::min(Expr::Float(-1e-50), ld(y)),
                Expr::min(ld(y), Expr::Float(-1e-50)),
                Expr::neg(Expr::div(ld(x), Expr::add(ld(y), Expr::Float(0.1)))),
            ];
            p.body = outs
                .iter()
                .zip(values)
                .map(|(o, v)| one_loop(i, 0, ni, step, at(*o, vec![Expr::Var(i)]), v))
                .collect();
        }
        // carried, but not a direct operand of a root `+`:
        // s[i] = 0.5 * s[i] + X[i][j]
        13 => {
            let x = p.add_array("X", vec![outer, n]);
            let s = p.add_array("s", vec![outer]);
            let i = p.fresh_var("i");
            let j = p.fresh_var("j");
            let value = Expr::add(
                Expr::mul(Expr::Float(0.5), Expr::load(s, vec![Expr::Var(i)])),
                Expr::load(x, vec![Expr::Var(i), Expr::Var(j)]),
            );
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(oi),
                1,
                vec![one_loop(j, 0, ni, step, at(s, vec![Expr::Var(i)]), value)],
            )];
        }
        // two carried operands: s[i] = s[i] + s[i] * X[i][j]
        14 => {
            let x = p.add_array("X", vec![outer, n]);
            let s = p.add_array("s", vec![outer]);
            let i = p.fresh_var("i");
            let j = p.fresh_var("j");
            let value = Expr::add(
                Expr::load(s, vec![Expr::Var(i)]),
                Expr::mul(
                    Expr::load(s, vec![Expr::Var(i)]),
                    Expr::load(x, vec![Expr::Var(i), Expr::Var(j)]),
                ),
            );
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(oi),
                1,
                vec![one_loop(j, 0, ni, step, at(s, vec![Expr::Var(i)]), value)],
            )];
        }
        // carried fold through a non-commutative op, on the right (15:
        // t[i] = X[i][j] - t[i]) or the left (16: s[i] = s[i] - X[i][j] *
        // x[j], the triangular-solve update; 17: s[i] = s[i] / X[i][j])
        15..=17 => {
            let x = p.add_array("X", vec![outer, n]);
            let xv = p.add_array("x", vec![n]);
            let s = p.add_array("s", vec![outer]);
            let i = p.fresh_var("i");
            let j = p.fresh_var("j");
            let (si, xij) = (
                Expr::load(s, vec![Expr::Var(i)]),
                Expr::load(x, vec![Expr::Var(i), Expr::Var(j)]),
            );
            let value = match shape {
                15 => Expr::sub(xij, si),
                16 => Expr::sub(si, Expr::mul(xij, Expr::load(xv, vec![Expr::Var(j)]))),
                _ => Expr::div(si, xij),
            };
            p.body = vec![Stmt::for_loop(
                i,
                Expr::Int(0),
                Expr::Int(oi),
                1,
                vec![one_loop(j, 0, ni, step, at(s, vec![Expr::Var(i)]), value)],
            )];
        }
        _ => unreachable!("shape {shape} out of range"),
    }
    p
}

/// A [`Recorder`] that opts into the batched run path
/// ([`Backend::prefers_bulk_runs`]) while keeping the default
/// `load_run`/`store_run` scalar delegation, so every access still lands
/// in the log.
#[derive(Default, Clone)]
struct BulkRecorder(Recorder);

impl Backend for BulkRecorder {
    fn load(&mut self, a: ArrayId, flat: usize) -> f32 {
        self.0.load(a, flat)
    }
    fn store(&mut self, a: ArrayId, flat: usize, v: f32) {
        self.0.store(a, flat, v)
    }
    fn cost(&mut self, ev: CostEvent, n: u64) {
        self.0.cost(ev, n)
    }
    fn call(&mut self, p: &Program, c: &str, a: &[ResolvedArg]) -> Result<(), InterpError> {
        self.0.call(p, c, a)
    }
    fn prefers_bulk_runs(&self) -> bool {
        true
    }
}

/// Problem size: small (`< 10`) or past the 512-iteration chunk and not
/// a multiple of it.
fn size(long: usize, small: usize, big: usize) -> usize {
    if long == 0 {
        small
    } else {
        big
    }
}

/// Per-location traffic: how many loads and stores each cell sees, and
/// the value sequence stored to each cell.
#[allow(clippy::type_complexity)]
fn census(
    log: &[(bool, usize, usize, u32)],
) -> (BTreeMap<(bool, usize, usize), u64>, BTreeMap<(usize, usize), Vec<u32>>) {
    let mut counts = BTreeMap::new();
    let mut stored = BTreeMap::new();
    for &(is_store, a, flat, bits) in log {
        *counts.entry((is_store, a, flat)).or_insert(0u64) += 1;
        if is_store {
            stored.entry((a, flat)).or_insert_with(Vec::new).push(bits);
        }
    }
    (counts, stored)
}

/// Runs `p` batched and through the reference tree-walker from the same
/// fill and asserts they agree (see `batched_path_preserves_scalar_results`).
fn assert_batched_matches(p: &Program, start: Recorder) -> Result<(), TestCaseError> {
    let mut fast = BulkRecorder(start.clone());
    let mut slow = start;
    let fr = interp::run(p, &mut fast);
    let sr = interp::run_reference(p, &mut slow);
    prop_assert_eq!(&fr, &sr);
    prop_assert_eq!(fast.0.bits(), slow.bits());
    prop_assert_eq!(&fast.0.costs, &slow.costs);
    prop_assert_eq!(census(&fast.0.accesses), census(&slow.accesses));
    Ok(())
}

proptest! {
    #![proptest_config(proptest::test_runner::Config { cases: 160 })]
    #[test]
    fn fast_path_is_observationally_identical(
        shape in 0usize..SHAPES,
        small in 1usize..10,
        big in 513usize..1024,
        long in 0usize..2,
        fill in 0usize..3,
        step in 1i64..4,
    ) {
        let p = build_program(shape, size(long, small, big), step);
        let mut fast = Recorder::filled(&p, fill);
        let mut slow = fast.clone();
        let fr = interp::run(&p, &mut fast);
        let sr = interp::run_reference(&p, &mut slow);
        prop_assert_eq!(&fr, &sr);
        prop_assert_eq!(fast.bits(), slow.bits());
        prop_assert_eq!(&fast.costs, &slow.costs);
        prop_assert_eq!(&fast.accesses, &slow.accesses);
    }

    /// A run-capable backend accepts access *reordering* at run
    /// granularity (and, for a register-carried reduction, loads of the
    /// target cell that observe the pre-run value) — but array contents,
    /// cost totals, per-location access counts, and the per-location
    /// store-value sequences must all still match the reference
    /// tree-walker bit for bit.
    #[test]
    fn batched_path_preserves_scalar_results(
        shape in 0usize..SHAPES,
        small in 1usize..10,
        big in 513usize..1024,
        long in 0usize..2,
        fill in 0usize..3,
        step in 1i64..4,
    ) {
        let p = build_program(shape, size(long, small, big), step);
        assert_batched_matches(&p, Recorder::filled(&p, fill))?;
    }
}

/// The carried fold keeps the template's operand order and runs the
/// register across chunk boundaries (inner trip 700 > 512): GEMM (shape
/// 3) and `s - X*x` / `s / X` (16, 17) carry on the left, `A*x + t` and
/// `X - t` (9, 15) on the right. `+` commutes in IEEE arithmetic, so the
/// non-commutative shapes are what pin the order.
#[test]
fn carried_fold_keeps_operand_order() {
    for shape in [3, 9, 15, 16, 17] {
        let p = build_program(shape, 700, 1);
        assert_batched_matches(&p, Recorder::filled(&p, 1))
            .unwrap_or_else(|e| panic!("shape {shape}: {e:?}"));
    }
}

/// Literals are rounded to f32 only where an op uses them and integers
/// promote through f64, as on the slow path: a literal that rounds to
/// ±0.0 shows through `Min`/`Max` against signed-zero data, and a loop
/// variable near 2^54 shows a direct `i64 → f32` conversion.
#[test]
fn literals_and_promoted_integers_round_late() {
    for shape in [11, 12] {
        let p = build_program(shape, 8, 1);
        let mut start = Recorder::filled(&p, 1);
        for arr in &mut start.arrays {
            for (j, v) in arr.iter_mut().enumerate() {
                if j % 2 == 0 {
                    *v = if j % 4 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        assert_batched_matches(&p, start.clone())
            .unwrap_or_else(|e| panic!("shape {shape} batched: {e:?}"));
        let (mut fast, mut slow) = (start.clone(), start);
        interp::run(&p, &mut fast).expect("fast");
        interp::run_reference(&p, &mut slow).expect("reference");
        assert_eq!(fast.bits(), slow.bits(), "shape {shape} element-ordered");
        assert_eq!(fast.accesses, slow.accesses, "shape {shape} element-ordered");
    }
}

/// The declined shapes still run (via the slow path inside `run`).
#[test]
fn declined_shapes_fall_back() {
    for shape in [6usize, 7] {
        let p = build_program(shape, 5, 1);
        let mut b = Recorder::for_program(&p);
        interp::run(&p, &mut b).expect("fallback executes");
    }
}

/// The out-of-bounds shape errors identically under both executors, with
/// the same partial stores already applied.
#[test]
fn runtime_oob_matches_reference() {
    let p = build_program(8, 4, 1);
    let mut fast = Recorder::for_program(&p);
    let mut slow = fast.clone();
    let fr = interp::run(&p, &mut fast).unwrap_err();
    let sr = interp::run_reference(&p, &mut slow).unwrap_err();
    assert_eq!(fr, sr);
    assert!(matches!(fr, InterpError::OutOfBounds { flat: 4, .. }));
    assert_eq!(fast.arrays, slow.arrays);
    assert_eq!(fast.accesses, slow.accesses);
}
