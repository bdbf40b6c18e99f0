//! Pure-Rust reference implementations of the kernels.
//!
//! Every output element sees the same sequence of `f32` operations as in
//! the mini-C source: `beta` scaling first, then the reduction index in
//! ascending order, with one rounding per multiply and per add and no
//! fused multiply-add. That per-element invariant is what lets the
//! validation tests require bitwise equality against both host execution
//! and exact-fidelity CIM execution, and every change here must keep it.
//! The loop order is free: the GEMM and transposed-GEMV references run
//! in cache order (reduction index in the middle loop, contiguous output
//! row innermost) through the one kernel [`gemm_panel_ref`], never
//! splitting or reassociating a reduction.

use crate::init::init_array;
use crate::{Dataset, Kernel};

/// Computed output arrays of one kernel, by name.
pub fn reference_outputs(kernel: Kernel, dataset: Dataset) -> Vec<(String, Vec<f32>)> {
    let n = dataset.base_size();
    match kernel {
        Kernel::Gemm => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let mut c = mat(kernel, "C", n, n);
            gemm_panel_ref(&a, &b, &mut c, n, 2.0, 3.0);
            vec![("C".into(), c)]
        }
        Kernel::TwoMm => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let c = mat(kernel, "C", n, n);
            let mut d = mat(kernel, "D", n, n);
            let mut tmp = mat(kernel, "tmp", n, n);
            for v in tmp.iter_mut() {
                *v = 0.0;
            }
            gemm_panel_ref(&a, &b, &mut tmp, n, 2.0, 0.0);
            gemm_panel_ref(&tmp, &c, &mut d, n, 1.0, 3.0);
            vec![("tmp".into(), tmp), ("D".into(), d)]
        }
        Kernel::ThreeMm => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let c = mat(kernel, "C", n, n);
            let d = mat(kernel, "D", n, n);
            let mut e = vec![0f32; n * n];
            let mut f = vec![0f32; n * n];
            let mut g = vec![0f32; n * n];
            gemm_panel_ref(&a, &b, &mut e, n, 1.0, 0.0);
            gemm_panel_ref(&c, &d, &mut f, n, 1.0, 0.0);
            gemm_panel_ref(&e, &f, &mut g, n, 1.0, 0.0);
            vec![("E".into(), e), ("F".into(), f), ("G".into(), g)]
        }
        Kernel::Conv => {
            let img = mat(kernel, "img", n, n);
            let f = mat(kernel, "f", 3, 3);
            let on = n - 2;
            let mut out = mat(kernel, "out", on, on);
            for i in 0..on {
                for j in 0..on {
                    for r in 0..3 {
                        for s in 0..3 {
                            out[i * on + j] += f[r * 3 + s] * img[(i + r) * n + j + s];
                        }
                    }
                }
            }
            vec![("out".into(), out)]
        }
        Kernel::Gesummv => {
            let a = mat(kernel, "A", n, n);
            let b = mat(kernel, "B", n, n);
            let x = mat(kernel, "x", n, 1);
            let mut tmp = vec![0f32; n];
            let mut w = vec![0f32; n];
            let mut y = mat(kernel, "y", n, 1);
            gemv_ref(&a, &x, &mut tmp, false);
            gemv_ref(&b, &x, &mut w, false);
            for i in 0..n {
                y[i] = 2.0 * tmp[i] + 3.0 * w[i];
            }
            vec![("tmp".into(), tmp), ("w".into(), w), ("y".into(), y)]
        }
        Kernel::Bicg => {
            let a = mat(kernel, "A", n, n);
            let p = mat(kernel, "p", n, 1);
            let r = mat(kernel, "r", n, 1);
            let mut q = vec![0f32; n];
            let mut s = vec![0f32; n];
            gemv_ref(&a, &p, &mut q, false);
            gemv_ref(&a, &r, &mut s, true);
            vec![("q".into(), q), ("s".into(), s)]
        }
        Kernel::Atax => {
            let a = mat(kernel, "A", n, n);
            let x = mat(kernel, "x", n, 1);
            let mut tmp = vec![0f32; n];
            let mut y = vec![0f32; n];
            gemv_ref(&a, &x, &mut tmp, false);
            gemv_ref(&a, &tmp, &mut y, true);
            vec![("tmp".into(), tmp), ("y".into(), y)]
        }
        Kernel::Mvt => {
            let a = mat(kernel, "A", n, n);
            let y1 = mat(kernel, "y1", n, 1);
            let y2 = mat(kernel, "y2", n, 1);
            let mut x1 = mat(kernel, "x1", n, 1);
            let mut x2 = mat(kernel, "x2", n, 1);
            gemv_ref(&a, &y1, &mut x1, false);
            gemv_ref(&a, &y2, &mut x2, true);
            vec![("x1".into(), x1), ("x2".into(), x2)]
        }
    }
}

fn mat(kernel: Kernel, name: &str, rows: usize, cols: usize) -> Vec<f32> {
    let mut data = vec![0f32; rows * cols];
    init_array(kernel, name, &mut data);
    data
}

/// Row-panel GEMM reference, `C = beta*C + alpha*A*B` over row-major
/// operands: `b` is `k x n`, `c_panel` holds `m` rows of `C` (on entry
/// and exit) and `a_panel` the matching `m x k` rows of `A`, with
/// `m = c_panel.len() / n` and `k = b.len() / n`. A whole matrix is the
/// panel of all its rows; a streaming executor passes the `A` panel it
/// stages.
///
/// Each element is scaled by `beta` first, then accumulates
/// `(alpha * A[i][k]) * B[k][j]` for `k` ascending, one rounding per
/// multiply and per add: exactly the source's
/// `C[i][j] *= beta; for k: C[i][j] += alpha * A[i][k] * B[k][j]`. The
/// loops run in cache order (`k` in the middle, the contiguous `C` row
/// innermost), which changes no element's operation sequence, so
/// concatenated panel results are bit-for-bit equal to the whole-matrix
/// reference.
pub fn gemm_panel_ref(
    a_panel: &[f32],
    b: &[f32],
    c_panel: &mut [f32],
    n: usize,
    alpha: f32,
    beta: f32,
) {
    assert!(n > 0, "GEMM width must be positive");
    assert!(
        c_panel.len().is_multiple_of(n) && b.len().is_multiple_of(n),
        "C and B rows must be n wide"
    );
    let (rows, k) = (c_panel.len() / n, b.len() / n);
    assert_eq!(a_panel.len(), rows * k, "A panel must match the C panel's rows and B's depth");
    for (i, c_row) in c_panel.chunks_exact_mut(n).enumerate() {
        for c in c_row.iter_mut() {
            *c *= beta;
        }
        for (&a_ik, b_row) in a_panel[i * k..(i + 1) * k].iter().zip(b.chunks_exact(n)) {
            let t = alpha * a_ik;
            for (c, &b_kj) in c_row.iter_mut().zip(b_row) {
                *c += t * b_kj;
            }
        }
    }
}

/// `y += op(A) * x` for a row-major `A` of `y.len() x x.len()` (plain) or
/// `x.len() x y.len()` (`trans`). Plain accumulates
/// `y[i] += A[i][j] * x[j]` for `j` ascending along contiguous rows. The
/// transposed form `y[j] += x[i] * A[i][j]`, `i` ascending, is the
/// one-row GEMM `y^T = 1*y^T + 1*x^T*A`, so it walks `A` by rows too.
fn gemv_ref(a: &[f32], x: &[f32], y: &mut [f32], trans: bool) {
    assert_eq!(a.len(), x.len() * y.len(), "A must have x.len() * y.len() elements");
    if trans {
        gemm_panel_ref(x, a, y, y.len(), 1.0, 1.0);
    } else {
        for (i, yi) in y.iter_mut().enumerate() {
            for (&a_ij, &xj) in a[i * x.len()..(i + 1) * x.len()].iter().zip(x) {
                *yi += a_ij * xj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_non_trivial() {
        for k in Kernel::ALL_EXTENDED {
            let outs = reference_outputs(k, Dataset::Mini);
            assert!(!outs.is_empty(), "{}", k.name());
            for (name, data) in outs {
                assert!(data.iter().any(|v| *v != 0.0), "{}::{name} is identically zero", k.name());
                assert!(data.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn gemm_reference_hand_check() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![1.0, 1.0, 1.0, 1.0];
        gemm_panel_ref(&a, &b, &mut c, 2, 2.0, 3.0);
        assert_eq!(c, vec![2.0 + 3.0, 4.0 + 3.0, 6.0 + 3.0, 8.0 + 3.0]);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn panel_reference_streams_bit_for_bit() {
        use crate::init::init_array_panel;
        for dataset in [Dataset::Mini, Dataset::Small] {
            let whole = &reference_outputs(Kernel::Gemm, dataset)[0].1;
            let n = dataset.base_size();
            let b = mat(Kernel::Gemm, "B", n, n);
            // Heights that do not divide n leave a ragged last panel.
            for panel_rows in [1, 3, 5, 16, n] {
                let mut streamed = vec![0f32; n * n];
                for row0 in (0..n).step_by(panel_rows) {
                    let pr = panel_rows.min(n - row0);
                    let mut a_panel = vec![0f32; pr * n];
                    init_array_panel(Kernel::Gemm, "A", n, n, row0, 0, pr, n, &mut a_panel);
                    let c_panel = &mut streamed[row0 * n..(row0 + pr) * n];
                    init_array_panel(Kernel::Gemm, "C", n, n, row0, 0, pr, n, c_panel);
                    gemm_panel_ref(&a_panel, &b, c_panel, n, 2.0, 3.0);
                }
                assert_eq!(bits(whole), bits(&streamed), "{dataset:?}, {panel_rows}-row panels");
            }
        }
    }

    #[test]
    fn transposed_gemv_reference() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let x = vec![1.0, 1.0];
        let mut y = vec![0.0, 0.0];
        gemv_ref(&a, &x, &mut y, true);
        assert_eq!(y, vec![4.0, 6.0]);
    }

    /// Seeded uniform values in [-2, 2) with 24 significant bits, so
    /// products and sums round and any reordering shows in the result
    /// bits (the kernels' integer-valued default fills keep first-layer
    /// sums exact and would hide one).
    fn uniform(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 40) as f32 * (4.0 / 16_777_216.0) - 2.0
            })
            .collect()
    }

    /// The source's loop order, `i-j-k`: column walk over `B`.
    fn naive_gemm(a: &[f32], b: &[f32], c: &mut [f32], n: usize, alpha: f32, beta: f32) {
        let (m, k) = (c.len() / n, b.len() / n);
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] *= beta;
                for kk in 0..k {
                    c[i * n + j] += alpha * a[i * k + kk] * b[kk * n + j];
                }
            }
        }
    }

    /// A reordering the comparison must reject: each element's `k` range
    /// is summed as two halves, then combined.
    fn pairwise_gemm(a: &[f32], b: &[f32], c: &mut [f32], n: usize, alpha: f32, beta: f32) {
        let (m, k) = (c.len() / n, b.len() / n);
        let half = |i: usize, j: usize, ks: std::ops::Range<usize>| {
            ks.fold(0f32, |acc, kk| acc + alpha * a[i * k + kk] * b[kk * n + j])
        };
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] *= beta;
                c[i * n + j] += half(i, j, 0..k / 2) + half(i, j, k / 2..k);
            }
        }
    }

    /// The source's GEMV loops; the transposed one walks `A` by column.
    fn naive_gemv(a: &[f32], x: &[f32], y: &mut [f32], trans: bool) {
        if trans {
            let cols = y.len();
            for j in 0..cols {
                for i in 0..x.len() {
                    y[j] += x[i] * a[i * cols + j];
                }
            }
        } else {
            let cols = x.len();
            for i in 0..y.len() {
                for j in 0..cols {
                    y[i] += a[i * cols + j] * x[j];
                }
            }
        }
    }

    #[test]
    fn cache_order_kernels_keep_the_source_operation_order() {
        // (m, k, n): non-square, and widths off the vector length.
        let shapes = [(1, 1, 1), (3, 5, 7), (7, 13, 9), (16, 16, 16), (5, 33, 31), (2, 70, 67)];
        let scalars = [(1.0, 1.0), (2.0, 3.0), (-0.7, 1.3), (1.5, 0.0)];
        let mut reorders_caught = 0;
        for (seed, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = seed as u64;
            let (a, b, c0) =
                (uniform(seed, m * k), uniform(seed + 100, k * n), uniform(seed + 200, m * n));
            for &(alpha, beta) in &scalars {
                let (mut got, mut want, mut pairwise) = (c0.clone(), c0.clone(), c0.clone());
                gemm_panel_ref(&a, &b, &mut got, n, alpha, beta);
                naive_gemm(&a, &b, &mut want, n, alpha, beta);
                pairwise_gemm(&a, &b, &mut pairwise, n, alpha, beta);
                assert_eq!(bits(&got), bits(&want), "gemm {m}x{k}x{n}, alpha {alpha}, beta {beta}");
                reorders_caught += usize::from(bits(&pairwise) != bits(&want));
            }
            for trans in [false, true] {
                // A is m x n; op(A) maps an n- (plain) or m-vector (trans).
                let (xs, ys) = if trans { (m, n) } else { (n, m) };
                let (a, x, y0) =
                    (uniform(seed + 300, m * n), uniform(seed + 400, xs), uniform(seed + 500, ys));
                let (mut got, mut want) = (y0.clone(), y0);
                gemv_ref(&a, &x, &mut got, trans);
                naive_gemv(&a, &x, &mut want, trans);
                assert_eq!(bits(&got), bits(&want), "gemv {m}x{n}, trans {trans}");
            }
        }
        assert!(reorders_caught > 0, "the inputs must expose a reassociated reduction");
    }
}
